package gf

// This file provides the fused multi-row operation the emission paths are
// built on: the gather, N rows into one, in one call for a whole
// (coefficients, rows) combination. It has a kernel of its own where the CPU
// has one, which keeps the destination in registers across the rows, and
// does not block the columns into strips (DESIGN.md §5 has the
// measurements). Elimination's scatter (one row into N) is a loop over
// AddMulSlice at its caller.

// CombineSlices sets dst[i] = sum_j cs[j] * srcs[j][i] — N source rows
// gathered into one destination (the emission kernel of encoder and recoder:
// one fresh coded block from the whole stored span).
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
