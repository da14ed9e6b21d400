package gf

// This file provides the fused multi-row operations the batched decode
// pipeline and the emission paths are built on: one call for a whole
// (coefficients, rows) combination. The gather (N rows into one) is the
// primitive — emission and the decode multiply both call it — and has a
// kernel of its own where the CPU has one, which keeps the destination in
// registers across the rows; the scatter (one row into N) is the loop over
// AddMulSlice that elimination needs. Neither blocks the columns into strips
// (DESIGN.md §5 has the measurements).

// AddMulSlices computes dsts[j][i] += cs[j] * src[i] for every destination
// row j and column i — one source row applied to N destination rows.
// len(dsts) must equal len(cs) and every destination must have the source's
// length. Rows with a zero coefficient are skipped; no destination may alias
// src.
//
//nc:hotpath
func AddMulSlices(dsts [][]byte, src []byte, cs []byte) {
	if len(dsts) != len(cs) {
		panic("gf: AddMulSlices rows/coeffs mismatch")
	}
	for j, d := range dsts {
		AddMulSlice(d, src, cs[j])
	}
}

// CombineSlices sets dst[i] = sum_j cs[j] * srcs[j][i] — N source rows
// gathered into one destination (the emission kernel of the recoder: one
// fresh coded block from the whole stored span; a row of a matrix product).
// dst is overwritten; it must not alias any source. len(srcs) must equal
// len(cs) and every source must have dst's length.
//
//nc:hotpath
func CombineSlices(dst []byte, srcs [][]byte, cs []byte) {
	if len(srcs) != len(cs) {
		panic("gf: CombineSlices rows/coeffs mismatch")
	}
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic("gf: CombineSlices length mismatch")
		}
	}
	combineKernel(dst, srcs, cs)
}

// combineLoop is CombineSlices a row at a time — skip a zero coefficient,
// scale to start the accumulation, accumulate after — for CPUs whose kernel
// has no gather body.
//
//nc:hotpath
func combineLoop(dst []byte, srcs [][]byte, cs []byte) {
	started := false
	for j, s := range srcs {
		switch c := cs[j]; {
		case c == 0:
		case started:
			AddMulSlice(dst, s, c)
		default:
			MulSlice(dst, s, c)
			started = true
		}
	}
	if !started {
		clear(dst)
	}
}
