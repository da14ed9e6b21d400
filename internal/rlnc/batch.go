package rlnc

import (
	"fmt"

	"ncfn/internal/gf"
	"ncfn/internal/matrix"
)

// This file implements the deferred-elimination decode path. The incremental
// basis in rlnc.go pays O(rank) payload row-operations on every arriving
// packet (reduce + back-substitute), so a full generation costs
// O(k^2 * blockSize) of single-row kernel traffic. The deferred path splits
// that work differently:
//
//   - Per packet, only the k-byte coefficient vector is eliminated (a
//     rank-gate: is this row innovative?). Innovative rows are stored RAW —
//     one blockSize copy — and payloads are never touched again until the
//     generation completes. Per-packet back-substitution disappears.
//   - At full rank, the k x k raw coefficient matrix is inverted once with
//     the blocked Gauss-Jordan (matrix.InverseBlocked) and the source blocks
//     are recovered in one matrix-matrix multiply (inverse x raw payloads,
//     matrix.MulInto): k fused gathers, each reading the k raw rows and
//     storing one decoded row once.
//
// The same rawSpan core backs the Recoder: a recoder never needs reduced
// payload rows at all — any random combination of the RAW innovative rows
// spans the same space — so its insert cost drops from O(rank) payload
// row-operations to one copy, and emission becomes a single fused gather.

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

// payloadRows allocates k rows of blockSize bytes, rowStride apart.
func payloadRows(k, blockSize int) (rows [][]byte, arena []byte) {
	stride := rowStride(blockSize)
	rows, arena = make([][]byte, k), make([]byte, k*stride)
	for i := range rows {
		rows[i] = arena[i*stride : i*stride+blockSize : i*stride+blockSize]
	}
	return rows, arena
}

func newRawSpan(k, blockSize int) *rawSpan {
	s := &rawSpan{
		k:         k,
		blockSize: blockSize,
		rawC:      make([][]byte, k),
		red:       make([][]byte, k),
		pivots:    make([]bool, k),
		arenaC:    make([]byte, k*k),
		arenaR:    make([]byte, (k+1)*k),
	}
	s.rawP, s.arenaP = payloadRows(k, blockSize)
	for i := 0; i < k; i++ {
		s.rawC[i] = s.arenaC[i*k : (i+1)*k : (i+1)*k]
	}
	s.scratch = s.arenaR[:k:k]
	s.nextRed = 1
	return s
}

// insert rank-gates one coded block on its coefficients alone and, if
// innovative, stores the raw row. It reports whether the rank increased.
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

// deferred is the Decoder's batched engine: a rawSpan plus the decoded-output
// arena filled by one blocked inverse + fused multiply at full rank.
type deferred struct {
	span    *rawSpan
	decoded [][]byte
	arenaD  []byte
	solved  bool
	work    uint64

	// The span's raw coefficient and payload rows and the decoded rows as
	// matrices: the same arenas every generation, so wrapped once.
	c, p, out *matrix.Matrix
}

func newDeferred(k, blockSize int) *deferred {
	d := &deferred{span: newRawSpan(k, blockSize)}
	d.decoded, d.arenaD = payloadRows(k, blockSize)
	// Rows of equal length by construction: FromRows cannot fail.
	d.c, _ = matrix.FromRows(d.span.rawC)
	d.p, _ = matrix.FromRows(d.span.rawP)
	d.out, _ = matrix.FromRows(d.decoded)
	return d
}

// finalize recovers the source blocks: decoded = C^-1 * P where C and P are
// the raw coefficient and payload matrices. Runs once; later calls are free.
func (d *deferred) finalize() error {
	if d.solved {
		return nil
	}
	s := d.span
	if s.n < s.k {
		return fmt.Errorf("rlnc: generation incomplete (rank %d/%d)", s.n, s.k)
	}
	inv, err := d.c.InverseBlocked()
	if err != nil {
		// Cannot happen: every stored row passed the innovation gate.
		return fmt.Errorf("rlnc: raw span not invertible: %w", err)
	}
	if err := inv.MulInto(d.out, d.p); err != nil {
		return err
	}
	k := uint64(s.k)
	// Work model (memory traffic, not compute): the blocked Gauss-Jordan on
	// [C|I] streams about (k+1) rows of 2k bytes per pivot; the multiply is
	// billed (k+1)/2 rows of blockSize bytes per output row.
	d.work += 2*k*k*k + k*(k+1)/2*uint64(s.blockSize)
	d.solved = true
	return nil
}

func (d *deferred) takeWork() uint64 {
	w := d.work + d.span.work
	d.work, d.span.work = 0, 0
	return w
}

// AddBatch consumes a run of coded blocks in deferred-elimination mode and
// returns how many were innovative. The first call on a fresh decoder
// selects the batched engine: per-packet work drops to a coefficient-only
// rank gate plus one raw-row copy, and all payload elimination is deferred
// to a single blocked inverse + fused multiply when the generation
// completes. On a decoder already fed through Add, the blocks fold into the
// incremental basis instead — both modes accept either call and decode to
// identical bytes.
func (d *Decoder) AddBatch(blocks []CodedBlock) (int, error) {
	for i := range blocks {
		if err := d.params.checkBlock(blocks[i]); err != nil {
			return 0, err
		}
	}
	innovative := 0
	if d.b != nil {
		for i := range blocks {
			if d.b.insert(blocks[i].Coeffs, blocks[i].Payload) {
				innovative++
			}
		}
		return innovative, nil
	}
	if d.pb != nil {
		for i := range blocks {
			if d.pb.insert(blocks[i].Coeffs, blocks[i].Payload) {
				innovative++
			}
		}
		return innovative, nil
	}
	if d.def == nil && d.pdef == nil {
		if d.params.field() == gf.GF2 {
			d.pdef = newPackedDeferred(d.params.GenerationBlocks, d.params.BlockSize)
		} else {
			d.def = newDeferred(d.params.GenerationBlocks, d.params.BlockSize)
		}
	}
	if d.pdef != nil {
		for i := range blocks {
			if d.pdef.span.insert(blocks[i].Coeffs, blocks[i].Payload) {
				innovative++
			}
		}
		return innovative, nil
	}
	for i := range blocks {
		if d.def.span.insert(blocks[i].Coeffs, blocks[i].Payload) {
			innovative++
		}
	}
	return innovative, nil
}

// AddBatch folds a run of received coded blocks into the recoding span and
// returns how many were innovative.
func (r *Recoder) AddBatch(blocks []CodedBlock) (int, error) {
	innovative := 0
	for i := range blocks {
		if err := r.params.checkBlock(blocks[i]); err != nil {
			return innovative, err
		}
		if r.pspan != nil {
			if r.pspan.insert(blocks[i].Coeffs, blocks[i].Payload) {
				innovative++
			}
			continue
		}
		if r.span.insert(blocks[i].Coeffs, blocks[i].Payload) {
			innovative++
		}
	}
	return innovative, nil
}
