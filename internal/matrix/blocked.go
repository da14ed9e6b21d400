package matrix

import (
	"fmt"

	"ncfn/internal/gf"
)

// This file holds the blocked variants of the elimination and multiply
// routines. "Blocked" here means built on the fused multi-row kernels in
// internal/gf: elimination applies each pivot row to every affected row in
// one AddMulSlices pass, so the pivot row stays L1-resident across its
// destination rows, and the multiply gathers each output row from all its
// source rows in one CombineSlices pass, so the output row stays in
// registers and is stored once — against one load and one store per source
// row in the row-at-a-time Mul above.

// RREFBlocked reduces the matrix to reduced row-echelon form in place using
// the fused multi-row elimination kernel and returns its rank. It computes
// exactly the same result as RREF.
func (m *Matrix) RREFBlocked() int {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	dsts := make([][]byte, 0, m.rows)
	cs := make([]byte, 0, m.rows)
	rank := 0
	for col := 0; col < m.cols && rank < m.rows; col++ {
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if m.data[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.data[rank], m.data[pivot] = m.data[pivot], m.data[rank]
		if p := m.data[rank][col]; p != 1 {
			gf.MulSlice(m.data[rank], m.data[rank], gf.Inv(p))
		}
		// One fused pass eliminates the pivot column from every other row.
		dsts, cs = dsts[:0], cs[:0]
		for r := 0; r < m.rows; r++ {
			if r == rank || m.data[r][col] == 0 {
				continue
			}
			dsts = append(dsts, m.data[r])
			cs = append(cs, m.data[r][col])
		}
		if len(dsts) > 0 {
			gf.AddMulSlices(dsts, m.data[rank], cs)
		}
		rank++
	}
	return rank
}

// InverseBlocked returns the inverse of a square matrix computed with a
// single blocked Gauss-Jordan pass over the augmented [m | I], or
// ErrSingular. Unlike Inverse it does not run a separate rank pre-check, so
// it performs one elimination instead of two.
func (m *Matrix) InverseBlocked() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert %dx%d: %w", m.rows, m.cols, ErrSingular)
	}
	n := m.rows
	aug := New(n, 2*n)
	for i := 0; i < n; i++ {
		copy(aug.data[i][:n], m.data[i])
		aug.data[i][n+i] = 1
	}
	aug.RREFBlocked()
	// The augmented rows [m_i | e_i] always have full rank, so the rank of
	// aug says nothing about m. m is invertible iff every pivot landed in the
	// left half, i.e. the left half reduced to the identity.
	for i := 0; i < n; i++ {
		if aug.data[i][i] != 1 {
			return nil, ErrSingular
		}
	}
	inv := New(n, n)
	for i := 0; i < n; i++ {
		copy(inv.data[i], aug.data[i][n:])
	}
	return inv, nil
}

// MulInto computes out = m * o into a caller-provided matrix, one fused
// gather per output row: out[i] = sum_j m[i][j] * o[j]. Each output row is
// written once and never read — the scatter form (apply o[j] to every
// output row, for each j) loads and stores every output row m.Cols() times.
// out must be m.Rows() x o.Cols() and must not share storage with m or o;
// its previous contents are overwritten.
func (m *Matrix) MulInto(out, o *Matrix) error {
	if m.cols != o.rows {
		return fmt.Errorf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	if out.rows != m.rows || out.cols != o.cols {
		return fmt.Errorf("matrix: MulInto output is %dx%d, want %dx%d", out.rows, out.cols, m.rows, o.cols)
	}
	for i, row := range out.data {
		gf.CombineSlices(row, o.data, m.data[i])
	}
	return nil
}
