package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.data[i][j] = byte(rng.Intn(256))
		}
	}
	return m
}

func TestRREFBlockedMatchesRREF(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct{ rows, cols int }{
		{0, 0}, {1, 1}, {3, 3}, {4, 7}, {7, 4}, {16, 16}, {64, 80},
	}
	for _, tc := range cases {
		m := randMatrix(rng, tc.rows, tc.cols)
		if tc.rows > 2 {
			// Inject a dependent row and a zero column so rank < rows.
			copy(m.data[tc.rows-1], m.data[0])
			for i := 0; i < tc.rows; i++ {
				m.data[i][tc.cols/2] = 0
			}
		}
		a, b := m.Clone(), m.Clone()
		ra, rb := a.RREF(), b.RREFBlocked()
		if ra != rb {
			t.Fatalf("%dx%d: RREF rank %d, RREFBlocked rank %d", tc.rows, tc.cols, ra, rb)
		}
		if !a.Equal(b) {
			t.Fatalf("%dx%d: RREFBlocked result differs from RREF", tc.rows, tc.cols)
		}
	}
}

func TestInverseBlockedMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 16, 64} {
		var m *Matrix
		for {
			m = randMatrix(rng, n, n)
			if m.Rank() == n {
				break
			}
		}
		want, err := m.Inverse()
		if err != nil {
			t.Fatalf("n=%d: Inverse: %v", n, err)
		}
		got, err := m.InverseBlocked()
		if err != nil {
			t.Fatalf("n=%d: InverseBlocked: %v", n, err)
		}
		if !got.Equal(want) {
			t.Fatalf("n=%d: InverseBlocked differs from Inverse", n)
		}
		// And it really is an inverse.
		prod, err := m.Mul(got)
		if err != nil {
			t.Fatal(err)
		}
		if !prod.Equal(Identity(n)) {
			t.Fatalf("n=%d: m * InverseBlocked(m) != I", n)
		}
	}
}

func TestInverseBlockedSingular(t *testing.T) {
	m := New(3, 3)
	m.Set(0, 0, 5)
	m.Set(1, 1, 7)
	// Row 2 is zero: singular.
	if _, err := m.InverseBlocked(); err != ErrSingular {
		t.Fatalf("singular inverse: got err %v, want ErrSingular", err)
	}
	if _, err := New(2, 3).InverseBlocked(); err == nil {
		t.Fatal("non-square inverse must fail")
	}
}

func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 4, 5}, {16, 16, 16}, {64, 64, 100}, {8, 64, 1460}, {5, 65, 257},
	}
	for _, tc := range cases {
		a := randMatrix(rng, tc.m, tc.k)
		// The gather has no per-coefficient cases of its own, the loop it
		// replaces had three: an all-zero row of m must still overwrite its
		// output row, and zeros and ones must mix with the rest.
		clear(a.Row(0))
		a.Row(tc.m - 1)[0], a.Row(tc.m - 1)[tc.k-1] = 0, 1
		b := randMatrix(rng, tc.k, tc.n)
		want, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		got := randMatrix(rng, tc.m, tc.n) // garbage: MulInto overwrites
		if err := a.MulInto(got, b); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%dx%dx%d: MulInto differs from Mul", tc.m, tc.k, tc.n)
		}
	}
	if err := randMatrix(rng, 2, 3).MulInto(New(2, 2), randMatrix(rng, 4, 2)); err == nil {
		t.Fatal("inner-dimension mismatch must fail")
	}
	if err := randMatrix(rng, 2, 3).MulInto(New(3, 2), randMatrix(rng, 3, 2)); err == nil {
		t.Fatal("output-dimension mismatch must fail")
	}
}

// BenchmarkInverse compares the row-at-a-time and blocked Gauss-Jordan paths
// on the dense square systems the batched decoder inverts.
func BenchmarkInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{16, 64, 128} {
		var m *Matrix
		for {
			m = randMatrix(rng, n, n)
			if m.Rank() == n {
				break
			}
		}
		b.Run(fmt.Sprintf("rowwise/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Inverse(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("blocked/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.InverseBlocked(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMulInto measures the fused matrix-matrix multiply on the
// inverse x payload shape the batched decoder computes (k x k by k x 1460).
func BenchmarkMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	for _, k := range []int{16, 64} {
		a := randMatrix(rng, k, k)
		p := randMatrix(rng, k, 1460)
		out := New(k, 1460)
		b.Run(fmt.Sprintf("mul/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k * 1460))
			for i := 0; i < b.N; i++ {
				if _, err := a.Mul(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("mulinto/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k * 1460))
			for i := 0; i < b.N; i++ {
				if err := a.MulInto(out, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
