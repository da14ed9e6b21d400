package gf

// This file provides the fused multi-row operations the batched decode
// pipeline and the emission paths are built on: one call for a whole
// (coefficients, rows) combination, so the per-row dispatch — skip a zero
// coefficient, XOR for one, copy or scale to start an accumulation — is
// written once. Rows are block-sized (at most an MTU), so source and
// destination stay L1-resident across the rows of a call without blocking
// the columns into strips.

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
// fresh coded block from the whole stored span). dst is overwritten; it must
// not alias any source. len(srcs) must equal len(cs) and every source must
// have dst's length.
//
//nc:hotpath
func CombineSlices(dst []byte, srcs [][]byte, cs []byte) {
	if len(srcs) != len(cs) {
		panic("gf: CombineSlices rows/coeffs mismatch")
	}
	started := false
	for j, s := range srcs {
		if len(s) != len(dst) {
			panic("gf: CombineSlices length mismatch")
		}
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
		for i := range dst {
			dst[i] = 0
		}
	}
}
