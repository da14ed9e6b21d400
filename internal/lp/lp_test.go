package lp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// approx tolerates the solver's anti-degeneracy perturbation (documented
// in the package comment: up to ~1e-4 of absolute slack).
func approx(a, b float64) bool { return math.Abs(a-b) < 1e-3 }

func TestSimple2D(t *testing.T) {
	// maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12.
	s, err := Solve(Problem{
		C: []float64{3, 2},
		A: [][]float64{{1, 1}, {1, 3}},
		B: []float64{4, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 12) || !approx(s.X[0], 4) || !approx(s.X[1], 0) {
		t.Fatalf("got %+v", s)
	}
}

func TestInteriorOptimum(t *testing.T) {
	// maximize x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj 8/3.
	s, err := Solve(Problem{
		C: []float64{1, 1},
		A: [][]float64{{2, 1}, {1, 2}},
		B: []float64{4, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 8.0/3) {
		t.Fatalf("objective = %v, want 8/3", s.Objective)
	}
	if !approx(s.X[0], 4.0/3) || !approx(s.X[1], 4.0/3) {
		t.Fatalf("x = %v", s.X)
	}
}

func TestUnbounded(t *testing.T) {
	_, err := Solve(Problem{
		C: []float64{1},
		A: [][]float64{{-1}},
		B: []float64{1},
	})
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestZeroVariables(t *testing.T) {
	s, err := Solve(Problem{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Objective != 0 {
		t.Fatal("empty problem objective nonzero")
	}
}

func TestTrivialBound(t *testing.T) {
	// maximize x s.t. x <= 7.
	s, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{7}})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.X[0], 7) {
		t.Fatalf("x = %v", s.X)
	}
}

func TestNegativeRHSRejected(t *testing.T) {
	_, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{-1}})
	if !errors.Is(err, ErrBadProblem) {
		t.Fatalf("err = %v, want ErrBadProblem", err)
	}
}

func TestRaggedRowRejected(t *testing.T) {
	_, err := Solve(Problem{C: []float64{1, 2}, A: [][]float64{{1}}, B: []float64{1}})
	if !errors.Is(err, ErrBadProblem) {
		t.Fatalf("err = %v, want ErrBadProblem", err)
	}
}

func TestRHSLengthMismatch(t *testing.T) {
	_, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}})
	if !errors.Is(err, ErrBadProblem) {
		t.Fatalf("err = %v, want ErrBadProblem", err)
	}
}

func TestNonFiniteRHSRejected(t *testing.T) {
	_, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{math.Inf(1)}})
	if !errors.Is(err, ErrBadProblem) {
		t.Fatalf("err = %v, want ErrBadProblem", err)
	}
}

func TestIterationLimit(t *testing.T) {
	_, err := Solve(Problem{
		C:       []float64{1, 1, 1},
		A:       [][]float64{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}},
		B:       []float64{1, 1, 1},
		MaxIter: 1,
	})
	if !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("err = %v, want ErrIterationLimit", err)
	}
}

func TestDegenerateTermination(t *testing.T) {
	// A classic degenerate instance (Beale's cycling example shape);
	// Bland's rule must terminate.
	s, err := Solve(Problem{
		C: []float64{0.75, -150, 0.02, -6},
		A: [][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
			{0, 0, 1, 0},
		},
		B: []float64{0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 0.05) {
		t.Fatalf("objective = %v, want 0.05", s.Objective)
	}
}

func TestMaxFlowAsLP(t *testing.T) {
	// Butterfly-like max-flow expressed as path LP: two edge-disjoint
	// paths of capacity 35 each -> 70.
	// Variables: f1 (path A), f2 (path B), shared bottleneck of 100.
	s, err := Solve(Problem{
		C: []float64{1, 1},
		A: [][]float64{
			{1, 0}, // path A capacity
			{0, 1}, // path B capacity
			{1, 1}, // shared constraint
		},
		B: []float64{35, 35, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 70) {
		t.Fatalf("objective = %v, want 70", s.Objective)
	}
}

func TestRandomProblemsFeasibleOptimal(t *testing.T) {
	// For random problems with b >= 0, the solution must satisfy all
	// constraints and be at least as good as any random feasible point.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(5) + 2
		m := rng.Intn(6) + 2
		p := Problem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
		for j := range p.C {
			p.C[j] = rng.Float64() * 2
		}
		for i := range p.A {
			p.A[i] = make([]float64, n)
			for j := range p.A[i] {
				p.A[i][j] = rng.Float64() // non-negative => bounded
			}
			p.B[i] = rng.Float64() * 10
		}
		// Ensure boundedness: add sum(x) <= 100.
		ones := make([]float64, n)
		for j := range ones {
			ones[j] = 1
		}
		p.A = append(p.A, ones)
		p.B = append(p.B, 100)

		s, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, row := range p.A {
			lhs := 0.0
			for j, a := range row {
				lhs += a * s.X[j]
			}
			if lhs > p.B[i]+1e-3 {
				t.Fatalf("trial %d: constraint %d violated: %v > %v", trial, i, lhs, p.B[i])
			}
		}
		for j, x := range s.X {
			if x < -1e-9 {
				t.Fatalf("trial %d: x[%d] = %v negative", trial, j, x)
			}
		}
		// Compare against random feasible candidates (scaled to satisfy).
		for probe := 0; probe < 20; probe++ {
			cand := make([]float64, n)
			for j := range cand {
				cand[j] = rng.Float64()
			}
			// Scale down until feasible.
			for i, row := range p.A {
				lhs := 0.0
				for j, a := range row {
					lhs += a * cand[j]
				}
				if lhs > p.B[i] && lhs > 0 {
					f := p.B[i] / lhs
					for j := range cand {
						cand[j] *= f
					}
				}
			}
			val := 0.0
			for j, c := range p.C {
				val += c * cand[j]
			}
			if val > s.Objective+1e-3 {
				t.Fatalf("trial %d: found better feasible point %v > %v", trial, val, s.Objective)
			}
		}
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	b.SetObjective("x", 3)
	b.SetObjective("y", 2)
	b.Constraint("cap", map[string]float64{"x": 1, "y": 1}, 4)
	b.Constraint("mix", map[string]float64{"x": 1, "y": 3}, 6)
	if len(b.names) != 2 || len(b.rows) != 2 {
		t.Fatalf("builder sizes %d, %d", len(b.names), len(b.rows))
	}
	if b.names[b.Var("x")] != "x" {
		t.Fatal("name round trip failed")
	}
	s, err := Solve(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.Value(s, "x"), 4) || !approx(b.Value(s, "y"), 0) {
		t.Fatalf("x=%v y=%v", b.Value(s, "x"), b.Value(s, "y"))
	}
	if b.Value(s, "missing") != 0 {
		t.Fatal("missing variable should read zero")
	}
}

func TestBuildCanonicalOrder(t *testing.T) {
	// Callers assemble constraints by ranging over Go maps, so Build must
	// produce the same matrix no matter the declaration order: variables
	// sorted by name, rows sorted by label, indices rewritten to match.
	b := NewBuilder()
	b.Constraint("z-row", map[string]float64{"beta": 1, "alpha": 2}, 5)
	b.Constraint("a-row", map[string]float64{"gamma": 1}, 3)
	b.SetObjective("beta", 1)
	p := b.Build()
	for i, want := range []string{"alpha", "beta", "gamma"} {
		if b.names[i] != want {
			t.Fatalf("names[%d] = %q, want %q", i, b.names[i], want)
		}
	}
	if p.B[0] != 3 || p.A[0][2] != 1 {
		t.Fatalf("row 0 not a-row: A=%v B=%v", p.A[0], p.B[0])
	}
	if p.B[1] != 5 || p.A[1][0] != 2 || p.A[1][1] != 1 {
		t.Fatalf("row 1 not z-row: A=%v B=%v", p.A[1], p.B[1])
	}
	if p.C[0] != 0 || p.C[1] != 1 {
		t.Fatalf("objective not permuted: %v", p.C)
	}
	// Value must follow the permuted indices.
	s := &Solution{X: []float64{10, 20, 30}}
	if b.Value(s, "beta") != 20 || b.Value(s, "gamma") != 30 {
		t.Fatalf("Value broken after canonicalize: beta=%v gamma=%v",
			b.Value(s, "beta"), b.Value(s, "gamma"))
	}
	// Idempotent: a second Build yields the identical problem.
	q := b.Build()
	if !reflect.DeepEqual(p, q) {
		t.Fatal("Build is not idempotent")
	}
}

func TestBuilderAccumulatesObjective(t *testing.T) {
	b := NewBuilder()
	b.SetObjective("x", 1)
	b.SetObjective("x", 2)
	b.Constraint("cap", map[string]float64{"x": 1}, 5)
	s, err := Solve(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 15) {
		t.Fatalf("objective = %v, want 15", s.Objective)
	}
}

func TestBuilderAccumulatesCoeffs(t *testing.T) {
	b := NewBuilder()
	b.SetObjective("x", 1)
	b.Constraint("double", map[string]float64{"x": 1}, 10)
	// Same variable twice in a row map is impossible with map literals,
	// but Constraint must tolerate later rows introducing new vars.
	b.Constraint("other", map[string]float64{"y": 1, "x": 1}, 3)
	s, err := Solve(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.Value(s, "x"), 3) {
		t.Fatalf("x = %v, want 3", b.Value(s, "x"))
	}
}

func BenchmarkSolveMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n, m := 50, 40
	p := Problem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
	for j := range p.C {
		p.C[j] = rng.Float64()
	}
	for i := range p.A {
		p.A[i] = make([]float64, n)
		for j := range p.A[i] {
			p.A[i][j] = rng.Float64()
		}
		p.B[i] = 10 * rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
