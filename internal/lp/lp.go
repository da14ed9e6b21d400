// Package lp implements a dense primal simplex solver for linear programs
// of the form
//
//	maximize    c·x
//	subject to  A x ≤ b,   x ≥ 0,   b ≥ 0
//
// which is exactly the shape of the coding-deployment program (2) in
// Sec. IV-A after the integer constraint on the VNF counts is relaxed (the
// paper solves the relaxation with a stock LP solver such as glpk and
// rounds; this package is the from-scratch substitute).
//
// All right-hand sides in program (2) are non-negative (capacity bounds and
// homogeneous flow inequalities), so the all-slack basis is feasible and no
// Phase-1 is required; Problem rejects negative b for clarity. Pivoting uses
// Dantzig's rule with a Bland fallback for termination, over a RHS with a
// graded anti-degeneracy perturbation — consequently solutions may sit up
// to ~1e-4 beyond nominal bounds; callers should compare against physical
// limits with a tolerance of that order (1e-4 of a Mbps is far below any
// measurable rate).
package lp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Solver failure modes.
var (
	// ErrUnbounded is returned when the objective is unbounded above.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrIterationLimit is returned when the pivot limit is exceeded.
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
	// ErrBadProblem is returned for malformed input.
	ErrBadProblem = errors.New("lp: malformed problem")
)

// Problem is a linear program in standard inequality form.
type Problem struct {
	// C is the objective coefficient vector (length = number of
	// variables). The solver maximizes C·x.
	C []float64
	// A is the constraint matrix, one row per constraint.
	A [][]float64
	// B is the right-hand side, one entry per constraint; all entries
	// must be non-negative.
	B []float64
	// MaxIter caps simplex pivots; zero selects a generous default.
	MaxIter int
}

// Solution is an optimal point and its objective value.
type Solution struct {
	X         []float64
	Objective float64
	// Iterations is the number of pivots performed.
	Iterations int
}

const defaultMaxIter = 200000

// eps is the numerical tolerance for pivoting decisions.
const eps = 1e-9

// Solve runs the simplex method and returns an optimal solution.
func Solve(p Problem) (*Solution, error) {
	n := len(p.C)
	m := len(p.A)
	if len(p.B) != m {
		return nil, fmt.Errorf("%w: %d rows but %d rhs entries", ErrBadProblem, m, len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrBadProblem, i, len(row), n)
		}
	}
	for i, b := range p.B {
		if b < 0 {
			return nil, fmt.Errorf("%w: negative rhs b[%d] = %g", ErrBadProblem, i, b)
		}
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("%w: non-finite rhs b[%d]", ErrBadProblem, i)
		}
	}
	if n == 0 {
		return &Solution{X: nil, Objective: 0}, nil
	}
	maxIter := p.MaxIter
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}

	// Tableau layout: m rows of [A | I | b], then the objective row
	// [-c | 0 | 0]. Column j < n is variable j; column n+i is slack i.
	//
	// The right-hand side gets a graded perturbation (the classic
	// lexicographic trick): program (2) instances are massively degenerate
	// (many zero-RHS flow-coupling rows), and unperturbed pivoting can
	// stall for hundreds of thousands of iterations. The perturbation must
	// exceed the pivot tolerance eps to actually break ties; at 1e-6·row
	// it shifts capacities by at most a few millionths of their scale,
	// well below the 1e-3 tolerances used by callers.
	const perturb = 1e-6
	width := n + m + 1
	t := make([][]float64, m+1)
	for i := 0; i < m; i++ {
		row := make([]float64, width)
		copy(row, p.A[i])
		row[n+i] = 1
		row[width-1] = p.B[i] + perturb*float64(i+1)
		t[i] = row
	}
	obj := make([]float64, width)
	for j, c := range p.C {
		obj[j] = -c
	}
	t[m] = obj

	// basis[i] is the variable index basic in row i.
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}

	// Pivot selection: Dantzig's rule (most negative reduced cost) is fast
	// in practice but can cycle on degenerate problems; after blandAfter
	// pivots we switch to Bland's rule, which guarantees termination.
	blandAfter := 2 * (n + m)
	if blandAfter < 1000 {
		blandAfter = 1000
	}
	iter := 0
	for {
		enter := -1
		if iter < blandAfter {
			best := -eps
			for j := 0; j < n+m; j++ {
				if t[m][j] < best {
					best = t[m][j]
					enter = j
				}
			}
		} else {
			for j := 0; j < n+m; j++ {
				if t[m][j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			break // optimal
		}
		// Ratio test; Bland tie-break on smallest basic variable index.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			a := t[i][enter]
			if a <= eps {
				continue
			}
			ratio := t[i][width-1] / a
			if ratio < best-eps || (ratio < best+eps && (leave < 0 || basis[i] < basis[leave])) {
				best = ratio
				leave = i
			}
		}
		if leave < 0 {
			return nil, ErrUnbounded
		}
		pivot(t, leave, enter)
		basis[leave] = enter
		iter++
		if iter > maxIter {
			return nil, ErrIterationLimit
		}
	}

	x := make([]float64, n)
	for i, v := range basis {
		if v < n {
			x[v] = t[i][width-1]
		}
	}
	objective := 0.0
	for j, c := range p.C {
		objective += c * x[j]
	}
	return &Solution{X: x, Objective: objective, Iterations: iter}, nil
}

// pivot performs a Gauss–Jordan pivot on t[row][col].
func pivot(t [][]float64, row, col int) {
	width := len(t[row])
	p := t[row][col]
	inv := 1 / p
	for j := 0; j < width; j++ {
		t[row][j] *= inv
	}
	t[row][col] = 1 // kill residual rounding
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		ri, rp := t[i], t[row]
		for j := 0; j < width; j++ {
			ri[j] -= f * rp[j]
		}
		ri[col] = 0
	}
}

// Builder incrementally assembles a Problem from named variables and sparse
// constraint rows, which keeps the optimizer code readable.
type Builder struct {
	names  []string
	index  map[string]int
	obj    map[int]float64
	rows   []map[int]float64
	rhs    []float64
	labels []string
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]int), obj: make(map[int]float64)}
}

// Var returns the index of the named variable, creating it on first use.
func (b *Builder) Var(name string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	i := len(b.names)
	b.names = append(b.names, name)
	b.index[name] = i
	return i
}

// SetObjective adds coeff to the objective coefficient of the variable.
func (b *Builder) SetObjective(name string, coeff float64) {
	b.obj[b.Var(name)] += coeff
}

// Constraint adds the row  Σ coeffs[name]·x_name ≤ rhs, tagged with a
// human-readable label for debugging.
func (b *Builder) Constraint(label string, coeffs map[string]float64, rhs float64) {
	row := make(map[int]float64, len(coeffs))
	for name, c := range coeffs {
		row[b.Var(name)] += c
	}
	b.rows = append(b.rows, row)
	b.rhs = append(b.rhs, rhs)
	b.labels = append(b.labels, label)
}

// Build materializes the dense Problem in canonical form: variables are
// reordered by name and rows by label. Callers assemble problems by ranging
// over Go maps, so without this the matrix layout — and, on degenerate
// optima, the exact vertex the simplex returns — varies run to run. The
// builder's own indices are permuted to match, so Name and Value stay valid
// after Build.
func (b *Builder) Build() Problem {
	b.canonicalize()
	n := len(b.names)
	c := make([]float64, n)
	for i, v := range b.obj {
		c[i] = v
	}
	a := make([][]float64, len(b.rows))
	for i, row := range b.rows {
		dense := make([]float64, n)
		for j, v := range row {
			dense[j] = v
		}
		a[i] = dense
	}
	return Problem{C: c, A: a, B: append([]float64(nil), b.rhs...)}
}

// canonicalize sorts variables by name and rows by label (stable, so rows
// sharing a label keep their insertion order), rewriting every index the
// builder holds. Idempotent.
func (b *Builder) canonicalize() {
	perm := make([]int, len(b.names))
	sorted := append([]string(nil), b.names...)
	sort.Strings(sorted)
	for newIdx, name := range sorted {
		perm[b.index[name]] = newIdx
	}
	b.names = sorted
	for name, old := range b.index {
		b.index[name] = perm[old]
	}
	obj := make(map[int]float64, len(b.obj))
	for i, v := range b.obj {
		obj[perm[i]] = v
	}
	b.obj = obj
	for r, row := range b.rows {
		remapped := make(map[int]float64, len(row))
		for i, v := range row {
			remapped[perm[i]] = v
		}
		b.rows[r] = remapped
	}

	order := make([]int, len(b.rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return b.labels[order[x]] < b.labels[order[y]] })
	rows := make([]map[int]float64, len(b.rows))
	rhs := make([]float64, len(b.rhs))
	labels := make([]string, len(b.labels))
	for newIdx, old := range order {
		rows[newIdx] = b.rows[old]
		rhs[newIdx] = b.rhs[old]
		labels[newIdx] = b.labels[old]
	}
	b.rows, b.rhs, b.labels = rows, rhs, labels
}

// Value extracts a named variable from a solution produced by solving a
// Build()-t problem; absent variables read as zero.
func (b *Builder) Value(s *Solution, name string) float64 {
	i, ok := b.index[name]
	if !ok || i >= len(s.X) {
		return 0
	}
	return s.X[i]
}
