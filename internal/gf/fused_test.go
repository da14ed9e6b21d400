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

func TestCombineSlicesPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
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
