package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

// randBytes returns n deterministic pseudo-random bytes.
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestPackUnpackBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 1460, 1461} {
		src := randBytes(rng, n)
		words := make([]uint64, WordsForBytes(n))
		PackBytes(words, src)
		got := make([]byte, n)
		UnpackBytes(got, words)
		if !bytes.Equal(got, src) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestPackBytesZeroPadsTail(t *testing.T) {
	words := []uint64{^uint64(0)}
	PackBytes(words, []byte{0xAB, 0xCD})
	if words[0] != 0xCDAB {
		t.Fatalf("tail not zero-padded: got %#x", words[0])
	}
}

func TestPackBytesMatchesXorSemantics(t *testing.T) {
	// XOR of packed rows must equal the packed XOR of byte rows: the packed
	// payload representation is a drop-in for xorSlice on byte payloads.
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 7, 64, 65, 1460} {
		a, b := randBytes(rng, n), randBytes(rng, n)
		wa := make([]uint64, WordsForBytes(n))
		wb := make([]uint64, WordsForBytes(n))
		PackBytes(wa, a)
		PackBytes(wb, b)
		XorWords(wa, wb)
		AddMulSlice(a, b, 1)
		want := make([]uint64, WordsForBytes(n))
		PackBytes(want, a)
		for i := range wa {
			if wa[i] != want[i] {
				t.Fatalf("n=%d word %d: packed XOR diverges from byte XOR", n, i)
			}
		}
	}
}

func TestPackUnpackBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 7, 63, 64, 65, 128, 255} {
		coeffs := make([]byte, k)
		for i := range coeffs {
			coeffs[i] = byte(rng.Intn(2))
		}
		bits := make([]uint64, WordsForBits(k))
		PackBits(bits, coeffs)
		got := make([]byte, k)
		UnpackBits(got, bits)
		if !bytes.Equal(got, coeffs) {
			t.Fatalf("k=%d: bit round trip mismatch", k)
		}
		for i := 0; i < k; i++ {
			if Bit(bits, i) != coeffs[i] {
				t.Fatalf("k=%d: Bit(%d) = %d, want %d", k, i, Bit(bits, i), coeffs[i])
			}
		}
	}
}

func TestPackBitsKeepsOnlyLowBit(t *testing.T) {
	bits := make([]uint64, 1)
	PackBits(bits, []byte{0xFE, 0xFF, 0x02, 0x03})
	if bits[0] != 0b1010 {
		t.Fatalf("PackBits must clamp to the low bit: got %#b", bits[0])
	}
}

func TestPackBitsClearsStaleWords(t *testing.T) {
	bits := []uint64{^uint64(0), ^uint64(0)}
	PackBits(bits, make([]byte, 65))
	if bits[0] != 0 || bits[1] != 0 {
		t.Fatalf("PackBits must clear all covered words: got %#x %#x", bits[0], bits[1])
	}
}

func TestXorWordsMatchesWordwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 3, 4, 7, 8, 183, 184} {
		src := make([]uint64, n)
		got := make([]uint64, n)
		want := make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64()
			got[i] = rng.Uint64()
			want[i] = got[i] ^ src[i]
		}
		XorWords(got, src)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d word %d: XorWords differs from a word-by-word XOR", n, i)
			}
		}
	}
}

func TestXorWordsShortSource(t *testing.T) {
	dst := []uint64{1, 2, 3}
	XorWords(dst, []uint64{1})
	if dst[0] != 0 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("short source must only touch the overlap: %v", dst)
	}
}

func TestXorWordsSourceTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	XorWords(make([]uint64, 1), make([]uint64, 2))
}

func TestCombineWordsMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, words := range []int{1, 8, 183, fusedStripWords + 5} {
		const rows = 9
		srcs := make([][]uint64, rows)
		cs := make([]byte, rows)
		for j := range srcs {
			srcs[j] = make([]uint64, words)
			for i := range srcs[j] {
				srcs[j][i] = rng.Uint64()
			}
			cs[j] = byte(rng.Intn(4))
		}
		dst := make([]uint64, words)
		for i := range dst {
			dst[i] = rng.Uint64() // stale contents must be overwritten
		}
		CombineWords(dst, srcs, cs)
		want := make([]uint64, words)
		for j := range srcs {
			if cs[j]&1 == 1 {
				XorWords(want, srcs[j])
			}
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("words=%d word %d: gather diverges", words, i)
			}
		}
	}
}

func TestCombineWordsAllZeroCoeffsZeroesDst(t *testing.T) {
	dst := []uint64{7, 7}
	srcs := [][]uint64{{1, 2}, {3, 4}}
	CombineWords(dst, srcs, []byte{0, 2})
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("all-zero coefficients must zero dst: %v", dst)
	}
}

func TestPackedKernelPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"PackBytesShortDst", func() { PackBytes(make([]uint64, 1), make([]byte, 9)) }},
		{"UnpackBytesShortSrc", func() { UnpackBytes(make([]byte, 9), make([]uint64, 1)) }},
		{"PackBitsShortDst", func() { PackBits(make([]uint64, 1), make([]byte, 65)) }},
		{"UnpackBitsShortSrc", func() { UnpackBits(make([]byte, 65), make([]uint64, 1)) }},
		{"CombineRowsMismatch", func() { CombineWords(make([]uint64, 1), make([][]uint64, 2), make([]byte, 1)) }},
		{"CombineLenMismatch", func() { CombineWords(make([]uint64, 1), [][]uint64{make([]uint64, 2)}, make([]byte, 1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestXorWordsZeroAlloc(t *testing.T) {
	dst := make([]uint64, WordsForBytes(1460))
	src := make([]uint64, WordsForBytes(1460))
	if n := testing.AllocsPerRun(100, func() { XorWords(dst, src) }); n != 0 {
		t.Fatalf("XorWords allocates %v times per run", n)
	}
}

func TestCombineWordsZeroAlloc(t *testing.T) {
	const rows = 8
	words := WordsForBytes(1460)
	srcs := make([][]uint64, rows)
	for j := range srcs {
		srcs[j] = make([]uint64, words)
	}
	cs := make([]byte, rows)
	for j := range cs {
		cs[j] = byte(j & 1)
	}
	dst := make([]uint64, words)
	if n := testing.AllocsPerRun(100, func() { CombineWords(dst, srcs, cs) }); n != 0 {
		t.Fatalf("CombineWords allocates %v times per run", n)
	}
}

// BenchmarkXorWords is the GF(2) kernel benchmark: one MTU-sized packed row
// per op. Guarded by benchguard baselines.
func BenchmarkXorWords(b *testing.B) {
	words := WordsForBytes(1460)
	dst := make([]uint64, words)
	src := make([]uint64, words)
	for i := range src {
		src[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	b.Run("words", func(b *testing.B) {
		b.SetBytes(1460)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			XorWords(dst, src)
		}
	})
	b.Run("bytes", func(b *testing.B) {
		// The unpacked byte-slice XOR, for the packed-vs-byte comparison.
		db := make([]byte, 1460)
		sb := make([]byte, 1460)
		b.SetBytes(1460)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AddMulSlice(db, sb, 1)
		}
	})
}

func BenchmarkCombineWords(b *testing.B) {
	for _, rows := range []int{4, 16, 64} {
		words := WordsForBytes(1460)
		srcs := make([][]uint64, rows)
		for j := range srcs {
			srcs[j] = make([]uint64, words)
			for i := range srcs[j] {
				srcs[j][i] = uint64(i*j + 1)
			}
		}
		cs := make([]byte, rows)
		for j := range cs {
			cs[j] = byte((j*7 + 1) & 1)
		}
		cs[0] = 1
		dst := make([]uint64, words)
		b.Run("rows="+itoa(rows), func(b *testing.B) {
			b.SetBytes(int64(rows * 1460))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CombineWords(dst, srcs, cs)
			}
		})
	}
}

func BenchmarkPackBytes(b *testing.B) {
	src := make([]byte, 1460)
	dst := make([]uint64, WordsForBytes(1460))
	b.SetBytes(1460)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PackBytes(dst, src)
	}
}

// itoa avoids pulling strconv into the benchmark name path.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
