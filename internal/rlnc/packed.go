package rlnc

import (
	"math/bits"

	"ncfn/internal/gf"
)

// This file implements the word-wide GF(2) fast path of the codec. Over the
// binary field a coefficient is one bit and addmul is a conditional XOR, so
// the packed engines hold coefficient vectors as bitmaps (one uint64 = 64
// coefficients) and payloads as []uint64 words: every row operation of the
// elimination moves 64 coded bits per ALU op instead of 8 through a lookup
// table. Each engine here is the packed twin of a byte engine in rlnc.go /
// batch.go — packedBasis of basis, packedSpan of rawSpan — with identical
// insert/accept semantics, so the byte-wise path stays available as the
// differential reference (the packed differential tier asserts bit-identical
// decode and recode output).
//
// Work metering: the byte engines count payload-equivalent kernel traffic in
// bytes, where one byte equals one table-lookup ALU op. A packed XOR moves 8
// payload bytes per ALU op, so the packed engines bill the same traffic
// formulas shifted down by gf2WorkShift — chargeCodingCost then prices GF(2)
// work at its true per-op cost.

// gf2WorkShift converts byte-denominated kernel traffic to the packed GF(2)
// cost model: one 64-bit XOR carries 8 payload bytes, versus one table
// lookup per byte on the GF(2^8) path.
const gf2WorkShift = 3

// maxCoeffRedraws bounds the all-zero redraw loop of coefficient and weight
// draws. Under GF(2) an all-zero draw has probability 2^-k, so the bound is
// effectively never hit; it exists to keep the loop provably finite, after
// which one random entry is forced to 1.
const maxCoeffRedraws = 8

// leadBit returns the column of the first set bit of a packed coefficient
// row, or -1 for a zero row.
//
//nc:hotpath
func leadBit(row []uint64) int {
	for w, v := range row {
		if v != 0 {
			return w*gf.WordBits + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// packedBasis is the bit-packed twin of basis: a reduced row-echelon system
// over GF(2) whose coefficient rows are bitmaps and whose payload rows are
// packed words. Reducing an arrival costs k/64 word ops per coefficient row
// and blockSize/8 word ops per payload row. All storage is arena-backed;
// insert performs no heap allocation.
type packedBasis struct {
	k, blockSize   int
	cwords, pwords int

	// rows[i] / payload[i], when pivots[i] is true, form a row with leading
	// 1 at column i, reduced against all other pivot rows.
	rows    [][]uint64
	payload [][]uint64
	pivots  []bool
	rank    int
	useless int
	work    uint64 // payload-equivalent kernel traffic, in bytes

	scratchC []uint64
	scratchP []uint64
	nextRow  int
	arenaC   []uint64
	arenaP   []uint64

	// Decoded blocks are unpacked to bytes lazily, once the generation is
	// complete and a block is requested.
	out      []byte
	outRows  [][]byte
	unpacked []bool
}

func newPackedBasis(k, blockSize int) *packedBasis {
	pb := &packedBasis{
		k:         k,
		blockSize: blockSize,
		cwords:    gf.WordsForBits(k),
		pwords:    gf.WordsForBytes(blockSize),
		rows:      make([][]uint64, k),
		payload:   make([][]uint64, k),
		pivots:    make([]bool, k),
		outRows:   make([][]byte, k),
		unpacked:  make([]bool, k),
	}
	pb.arenaC = make([]uint64, (k+1)*pb.cwords)
	pb.arenaP = make([]uint64, (k+1)*pb.pwords)
	pb.out = make([]byte, k*blockSize)
	for i := 0; i < k; i++ {
		pb.outRows[i] = pb.out[i*blockSize : (i+1)*blockSize : (i+1)*blockSize]
	}
	pb.scratchC, pb.scratchP = pb.arenaRow(0)
	pb.nextRow = 1
	return pb
}

func (pb *packedBasis) arenaRow(i int) (coeffs, payload []uint64) {
	return pb.arenaC[i*pb.cwords : (i+1)*pb.cwords : (i+1)*pb.cwords],
		pb.arenaP[i*pb.pwords : (i+1)*pb.pwords : (i+1)*pb.pwords]
}

// insert is the packed twin of basis.insert: pack, reduce, find the lead,
// adopt, back-substitute — all as word-wide XORs, with no normalization step
// because the only nonzero GF(2) coefficient is already 1.
//
//nc:hotpath
func (pb *packedBasis) insert(coeffs, payload []byte) bool {
	cs, ps := pb.scratchC, pb.scratchP
	gf.PackBits(cs, coeffs)
	gf.PackBytes(ps, payload)
	rowOps := 1 // the payload pack (the copy of the byte path)

	for col := 0; col < pb.k; col++ {
		if !pb.pivots[col] || gf.Bit(cs, col) == 0 {
			continue
		}
		gf.XorWords(cs, pb.rows[col])
		gf.XorWords(ps, pb.payload[col])
		rowOps++
	}
	lead := leadBit(cs)
	if lead < 0 {
		pb.useless++
		pb.work += uint64(rowOps) * uint64(pb.blockSize) >> gf2WorkShift
		return false
	}
	pb.rows[lead] = cs
	pb.payload[lead] = ps
	pb.pivots[lead] = true
	pb.rank++
	for r := 0; r < pb.k; r++ {
		if r == lead || !pb.pivots[r] {
			continue
		}
		if gf.Bit(pb.rows[r], lead) != 0 {
			gf.XorWords(pb.rows[r], cs)
			gf.XorWords(pb.payload[r], ps)
			rowOps++
		}
	}
	pb.scratchC, pb.scratchP = pb.arenaRow(pb.nextRow)
	pb.nextRow++
	pb.work += uint64(rowOps) * uint64(pb.blockSize) >> gf2WorkShift
	return true
}

// block returns decoded source block i as bytes, unpacking the packed
// payload row on first request. Callers guarantee the generation is
// complete, so pivot row i exists and is fully reduced.
func (pb *packedBasis) block(i int) []byte {
	if !pb.unpacked[i] {
		gf.UnpackBytes(pb.outRows[i], pb.payload[i])
		pb.unpacked[i] = true
	}
	return pb.outRows[i]
}

// packedSpan is the bit-packed twin of rawSpan: up to k raw rows stored as
// packed words, gated by a coefficient-only bitmap RREF — the GF(2)
// recoder's storage. insert performs no heap allocation.
type packedSpan struct {
	k, blockSize   int
	cwords, pwords int

	// Raw rows exactly as received, in arrival order; the first n are valid.
	rawC [][]uint64
	rawP [][]uint64
	n    int

	// Coefficient-only reduced bitmaps: red[col], when pivots[col] is true,
	// has leading bit col and is reduced against all other pivot rows.
	red     [][]uint64
	pivots  []bool
	scratch []uint64
	nextRed int
	useless int

	work uint64 // payload-equivalent kernel traffic, in bytes

	arenaC, arenaP, arenaR []uint64
}

func newPackedSpan(k, blockSize int) *packedSpan {
	s := &packedSpan{
		k:         k,
		blockSize: blockSize,
		cwords:    gf.WordsForBits(k),
		pwords:    gf.WordsForBytes(blockSize),
		rawC:      make([][]uint64, k),
		rawP:      make([][]uint64, k),
		red:       make([][]uint64, k),
		pivots:    make([]bool, k),
	}
	s.arenaC = make([]uint64, k*s.cwords)
	s.arenaP = make([]uint64, k*s.pwords)
	s.arenaR = make([]uint64, (k+1)*s.cwords)
	for i := 0; i < k; i++ {
		s.rawC[i] = s.arenaC[i*s.cwords : (i+1)*s.cwords : (i+1)*s.cwords]
		s.rawP[i] = s.arenaP[i*s.pwords : (i+1)*s.pwords : (i+1)*s.pwords]
	}
	s.scratch = s.arenaR[:s.cwords:s.cwords]
	s.nextRed = 1
	return s
}

// insert rank-gates one coded block on its packed coefficients alone and, if
// innovative, stores the raw row packed. It reports whether the rank
// increased.
//
//nc:hotpath
func (s *packedSpan) insert(coeffs, payload []byte) bool {
	if s.n == s.k {
		s.useless++
		return false
	}
	cs := s.scratch
	gf.PackBits(cs, coeffs)
	for col := 0; col < s.k; col++ {
		if !s.pivots[col] || gf.Bit(cs, col) == 0 {
			continue
		}
		gf.XorWords(cs, s.red[col])
	}
	lead := leadBit(cs)
	if lead < 0 {
		s.useless++
		return false
	}
	s.red[lead] = cs
	s.pivots[lead] = true
	for r := 0; r < s.k; r++ {
		if r == lead || !s.pivots[r] {
			continue
		}
		if gf.Bit(s.red[r], lead) != 0 {
			gf.XorWords(s.red[r], cs)
		}
	}
	s.scratch = s.arenaR[s.nextRed*s.cwords : (s.nextRed+1)*s.cwords : (s.nextRed+1)*s.cwords]
	s.nextRed++
	gf.PackBits(s.rawC[s.n], coeffs)
	gf.PackBytes(s.rawP[s.n], payload)
	s.n++
	s.work += uint64(s.blockSize) >> gf2WorkShift // the raw payload pack
	return true
}
