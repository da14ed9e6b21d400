package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// randSlice returns n pseudo-random bytes (including zeros, so the c==0 and
// b==0 fast paths are exercised).
func randSlice(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

func TestAddMulSlicesMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 63, 64, 255, 1460} {
		for _, rows := range []int{1, 2, 3, 8, 17} {
			src := randSlice(rng, n)
			cs := randSlice(rng, rows)
			cs[0] = 0 // force the skip path
			if rows > 1 {
				cs[1] = 1 // force the XOR path
			}
			want := make([][]byte, rows)
			got := make([][]byte, rows)
			for j := 0; j < rows; j++ {
				row := randSlice(rng, n)
				want[j] = append([]byte(nil), row...)
				got[j] = append([]byte(nil), row...)
				AddMulSlice(want[j], src, cs[j])
			}
			AddMulSlices(got, src, cs)
			for j := 0; j < rows; j++ {
				if !bytes.Equal(got[j], want[j]) {
					t.Fatalf("n=%d rows=%d: fused row %d differs from looped AddMulSlice", n, rows, j)
				}
			}
		}
	}
}

func TestAddMulSlicesBothKernels(t *testing.T) {
	// The fused pass, which runs the vector kernel where there is one, must
	// agree row for row with the table loop.
	rng := rand.New(rand.NewSource(2))
	src := randSlice(rng, 1460)
	cs := randSlice(rng, 6)
	got := make([][]byte, len(cs))
	want := make([][]byte, len(cs))
	for j := range got {
		got[j] = randSlice(rng, len(src))
		want[j] = append([]byte(nil), got[j]...)
		addMulSliceTable(want[j], src, cs[j])
	}
	AddMulSlices(got, src, cs)
	for j := range got {
		if !bytes.Equal(got[j], want[j]) {
			t.Fatalf("fused kernel and table loop disagree on row %d", j)
		}
	}
}

func TestAddMulSlicesPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("rows/coeffs mismatch", func() {
		AddMulSlices(make([][]byte, 2), make([]byte, 4), make([]byte, 1))
	})
	mustPanic("row length mismatch", func() {
		AddMulSlices([][]byte{make([]byte, 3)}, make([]byte, 4), []byte{5})
	})
	mustPanic("combine rows/coeffs mismatch", func() {
		CombineSlices(make([]byte, 4), make([][]byte, 2), make([]byte, 1))
	})
	mustPanic("combine length mismatch", func() {
		CombineSlices(make([]byte, 4), [][]byte{make([]byte, 3)}, []byte{5})
	})
}

func TestCombineSlicesMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 63, 64, 255, 1460} {
		for _, rows := range []int{1, 2, 4, 16} {
			srcs := make([][]byte, rows)
			for j := range srcs {
				srcs[j] = randSlice(rng, n)
			}
			cs := randSlice(rng, rows)
			want := make([]byte, n)
			for j := range srcs {
				AddMulSlice(want, srcs[j], cs[j])
			}
			got := randSlice(rng, n) // pre-filled garbage: CombineSlices overwrites
			CombineSlices(got, srcs, cs)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d rows=%d: CombineSlices differs from looped accumulate", n, rows)
			}
		}
	}
}

func TestCombineSlicesAllZeroCoeffsZeroesDst(t *testing.T) {
	dst := []byte{1, 2, 3, 4}
	CombineSlices(dst, [][]byte{{9, 9, 9, 9}}, []byte{0})
	for _, b := range dst {
		if b != 0 {
			t.Fatal("all-zero combine must zero the destination")
		}
	}
}

func TestMulSliceAliased(t *testing.T) {
	// Scaling a row in place (dst and src the same slice) is the one
	// aliasing the codec relies on.
	rng := rand.New(rand.NewSource(5))
	for _, n := range kernelTestLengths() {
		got := randSlice(rng, n)
		want := make([]byte, n)
		mulSliceTable(want, got, 77)
		MulSlice(got, got, 77)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: in-place MulSlice differs from the table loop", n)
		}
	}
}

func TestDotProductMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 4, 64, 255} {
		a, b := randSlice(rng, n), randSlice(rng, n)
		if n > 2 {
			a[1], b[2] = 0, 0 // exercise the zero-skip branches
		}
		if got, want := DotProduct(a, b), dotProductTable(a, b); got != want {
			t.Fatalf("n=%d: DotProduct = %d, table reference = %d", n, got, want)
		}
	}
}

// BenchmarkAddMulSlices compares the fused one-source-to-N-rows kernel with
// N independent AddMulSlice calls (the traffic the fused pass saves).
func BenchmarkAddMulSlices(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	src := randSlice(rng, 1460)
	for _, rows := range []int{4, 8, 32, 64} {
		dsts := make([][]byte, rows)
		for j := range dsts {
			dsts[j] = randSlice(rng, len(src))
		}
		cs := randSlice(rng, rows)
		for j := range cs {
			cs[j] = cs[j]%254 + 2 // no 0/1 fast paths in the measurement
		}
		b.Run(fmt.Sprintf("fused/rows=%d", rows), func(b *testing.B) {
			b.SetBytes(int64(rows * len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AddMulSlices(dsts, src, cs)
			}
		})
		b.Run(fmt.Sprintf("looped/rows=%d", rows), func(b *testing.B) {
			b.SetBytes(int64(rows * len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range dsts {
					AddMulSlice(dsts[j], src, cs[j])
				}
			}
		})
	}
}

// BenchmarkCombineSlices compares the fused N-sources-to-one-row gather with
// N independent AddMulSlice accumulations (the recoder's emission kernel).
func BenchmarkCombineSlices(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	dst := make([]byte, 1460)
	for _, rows := range []int{4, 8, 32, 64} {
		srcs := make([][]byte, rows)
		for j := range srcs {
			srcs[j] = randSlice(rng, len(dst))
		}
		cs := randSlice(rng, rows)
		for j := range cs {
			cs[j] = cs[j]%254 + 2
		}
		b.Run(fmt.Sprintf("fused/rows=%d", rows), func(b *testing.B) {
			b.SetBytes(int64(rows * len(dst)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CombineSlices(dst, srcs, cs)
			}
		})
		b.Run(fmt.Sprintf("looped/rows=%d", rows), func(b *testing.B) {
			b.SetBytes(int64(rows * len(dst)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range dst {
					dst[j] = 0
				}
				for j := range srcs {
					AddMulSlice(dst, srcs[j], cs[j])
				}
			}
		})
	}
}

// BenchmarkDotProduct compares the log/exp inner loop against the
// product-table loop over coefficient-vector lengths the decoder sees.
func BenchmarkDotProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{4, 16, 64, 255} {
		av, bv := randSlice(rng, n), randSlice(rng, n)
		b.Run(fmt.Sprintf("logexp/len=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink ^= DotProduct(av, bv)
			}
		})
		b.Run(fmt.Sprintf("table/len=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink ^= dotProductTable(av, bv)
			}
		})
	}
}

// sink defeats dead-code elimination in the benchmarks.
var sink byte
