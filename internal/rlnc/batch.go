package rlnc

import "ncfn/internal/gf"

// This file is the Recoder's storage: a coefficient gate plus raw rows. A
// recoder never needs reduced payload rows — any random combination of the
// RAW innovative rows spans the same space as a reduced basis — so absorbing
// a packet eliminates only its k-byte coefficient vector (is this row
// innovative?) and, if it is, copies the payload once; an emission is one
// fused gather over the stored rows (gf.CombineSlices).

// rawSpan stores up to k raw innovative rows plus a coefficient-only RREF
// used to gate insertions. All row storage is arena-backed and preallocated;
// insert performs no heap allocation.
type rawSpan struct {
	k, blockSize int

	// Raw rows exactly as received, in arrival order; the first n are valid.
	rawC [][]byte
	rawP [][]byte
	n    int

	// Coefficient-only reduced system: red[col], when pivots[col] is true,
	// is a k-byte row with leading 1 at col, reduced against all other
	// pivot rows. scratch is the arena row the next arrival is reduced in.
	red     [][]byte
	pivots  []bool
	scratch []byte
	nextRed int
	useless int

	work uint64 // payload-equivalent kernel traffic, in bytes

	arenaC, arenaP, arenaR []byte
}

// rowStride is the distance between payload rows in an arena: the block size
// rounded up to the 64 bytes of a cache line and of the widest vector load,
// so that no load of a row, which starts on a line, is split across two
// (1460 -> 1472; 256 and 1024 stay).
func rowStride(blockSize int) int { return (blockSize + 63) &^ 63 }

func newRawSpan(k, blockSize int) *rawSpan {
	stride := rowStride(blockSize)
	s := &rawSpan{
		k:         k,
		blockSize: blockSize,
		rawC:      make([][]byte, k),
		rawP:      make([][]byte, k),
		red:       make([][]byte, k),
		pivots:    make([]bool, k),
		arenaC:    make([]byte, k*k),
		arenaP:    make([]byte, k*stride),
		arenaR:    make([]byte, (k+1)*k),
	}
	for i := 0; i < k; i++ {
		s.rawC[i] = s.arenaC[i*k : (i+1)*k : (i+1)*k]
		s.rawP[i] = s.arenaP[i*stride : i*stride+blockSize : i*stride+blockSize]
	}
	s.scratch = s.arenaR[:k:k]
	s.nextRed = 1
	return s
}

// insert rank-gates one coded block on its coefficients alone and, if
// innovative, stores the raw row. It reports whether the rank increased.
//
//nc:hotpath
func (s *rawSpan) insert(coeffs, payload []byte) bool {
	if s.n == s.k {
		s.useless++
		return false
	}
	cs := s.scratch
	copy(cs, coeffs)
	for col := 0; col < s.k; col++ {
		if cs[col] == 0 || !s.pivots[col] {
			continue
		}
		gf.AddMulSlice(cs, s.red[col], cs[col])
	}
	lead := -1
	for col := 0; col < s.k; col++ {
		if cs[col] != 0 {
			lead = col
			break
		}
	}
	if lead < 0 {
		s.useless++
		return false
	}
	if c := cs[lead]; c != 1 {
		gf.MulSlice(cs, cs, gf.Inv(c))
	}
	s.red[lead] = cs
	s.pivots[lead] = true
	for r := 0; r < s.k; r++ {
		if r == lead || !s.pivots[r] {
			continue
		}
		if c := s.red[r][lead]; c != 0 {
			gf.AddMulSlice(s.red[r], cs, c)
		}
	}
	s.scratch = s.arenaR[s.nextRed*s.k : (s.nextRed+1)*s.k : (s.nextRed+1)*s.k]
	s.nextRed++
	copy(s.rawC[s.n], coeffs)
	copy(s.rawP[s.n], payload)
	s.n++
	s.work += uint64(s.blockSize) // the raw payload copy
	return true
}
