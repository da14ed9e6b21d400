package rlnc

import "ncfn/internal/gf"

// This file implements generation-state reuse: Reset methods that return a
// Decoder or Recoder to its freshly-constructed state while keeping every
// arena allocation, plus the StateBytes footprint model the data plane's
// session store uses for memory accounting. Under massive multi-tenancy a
// VNF churns through far more generations than it holds concurrently, so
// recycling a finished generation's arenas instead of allocating new ones
// keeps the steady-state allocation rate independent of generation turnover.

// StateBytes estimates the bytes of coding state one generation retains at
// this VNF: the engine arenas a decoder (or recoder) of these parameters
// allocates — coefficient rows, reduction rows, payload rows, and the
// decoded-output arena. The estimate is deterministic (it depends only on
// the parameters, not on how many packets arrived), sized for the deferred
// engines the batched data plane selects, and field-aware: GF(2) packs
// coefficients 8 per byte and both coefficient and payload rows into
// uint64 words. The session store multiplies it by live generations to feed
// the dataplane_session_bytes gauge, so it intentionally over-counts a
// low-rank generation rather than under-counting a full one.
func (p Params) StateBytes() int {
	k, bs := p.GenerationBlocks, p.BlockSize
	if p.field() == gf.GF2 {
		cw := gf.WordsForBits(k)
		pw := gf.WordsForBytes(bs)
		// packedSpan arenas (k raw coeff + k raw payload + k+1 reduction
		// rows, 8 bytes per word) plus the decoded byte arena.
		return 8*((2*k+1)*cw+k*pw) + k*bs
	}
	// rawSpan arenas (k*k raw coeffs, (k+1)*k reduction rows, k payload
	// rows at their padded stride) plus the decoded byte arena.
	return (2*k+1)*k + 2*k*rowStride(bs)
}

// Reset returns the decoder to its freshly-constructed state for a new
// generation, reusing every engine arena already allocated. A reset decoder
// accepts the same call sequence as a new one and decodes identical bytes;
// the only difference from NewDecoder is that whichever engines the previous
// generation instantiated stay selected, so a decoder recycled across
// generations keeps its allocation-free steady state.
func (d *Decoder) Reset() {
	if d.b != nil {
		d.b.reset()
	}
	if d.def != nil {
		d.def.reset()
	}
	if d.pb != nil {
		d.pb.reset()
	}
	if d.pdef != nil {
		d.pdef.reset()
	}
}

// Reset returns the recoder to its freshly-constructed state for a new
// generation, reusing the span arenas and re-seeding the emission RNG. A
// recoder reset with seed s behaves bit-identically to NewRecoder(params, s):
// same innovation gating, same emitted combinations.
func (r *Recoder) Reset(seed int64) {
	r.rng.seed(seed)
	if r.pspan != nil {
		r.pspan.reset()
	}
	if r.span != nil {
		r.span.reset()
	}
}

func (b *basis) reset() {
	for i := range b.pivots {
		b.pivots[i] = false
		b.rows[i] = nil
		b.payload[i] = nil
	}
	b.rank, b.useless, b.work = 0, 0, 0
	b.scratchC, b.scratchP = b.arenaRow(0)
	b.nextRow = 1
}

func (s *rawSpan) reset() {
	for i := range s.pivots {
		s.pivots[i] = false
		s.red[i] = nil
	}
	s.n, s.useless, s.work = 0, 0, 0
	s.scratch = s.arenaR[:s.k:s.k]
	s.nextRed = 1
}

func (d *deferred) reset() {
	d.span.reset()
	d.solved = false
	d.work = 0
}

func (pb *packedBasis) reset() {
	for i := range pb.pivots {
		pb.pivots[i] = false
		pb.rows[i] = nil
		pb.payload[i] = nil
		pb.unpacked[i] = false
	}
	pb.rank, pb.useless, pb.work = 0, 0, 0
	pb.scratchC, pb.scratchP = pb.arenaRow(0)
	pb.nextRow = 1
}

func (s *packedSpan) reset() {
	for i := range s.pivots {
		s.pivots[i] = false
		s.red[i] = nil
	}
	s.n, s.useless, s.work = 0, 0, 0
	s.scratch = s.arenaR[:s.cwords:s.cwords]
	s.nextRed = 1
}

func (d *packedDeferred) reset() {
	d.span.reset()
	d.solved = false
	d.work = 0
}
