package gf

import (
	"math/rand"
	"testing"
)

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
		a, b := make([]byte, n), make([]byte, n)
		rng.Read(a)
		rng.Read(b)
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

func TestPackedKernelPanics(t *testing.T) {
	t.Run("PackBytesShortDst", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		PackBytes(make([]uint64, 1), make([]byte, 9))
	})
}

func TestXorWordsZeroAlloc(t *testing.T) {
	dst := make([]uint64, WordsForBytes(1460))
	src := make([]uint64, WordsForBytes(1460))
	if n := testing.AllocsPerRun(100, func() { XorWords(dst, src) }); n != 0 {
		t.Fatalf("XorWords allocates %v times per run", n)
	}
}

// BenchmarkXorWords times one MTU-sized packed row per op against the byte
// XOR kernel on the same row.
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
		db := make([]byte, 1460)
		sb := make([]byte, 1460)
		b.SetBytes(1460)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AddMulSlice(db, sb, 1)
		}
	})
}
