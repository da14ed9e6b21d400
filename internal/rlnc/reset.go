package rlnc

// This file implements generation-state reuse: Reset methods that return a
// Decoder or Recoder to its freshly-constructed state while keeping every
// arena allocation, plus the StateBytes footprint model the data plane's
// session store uses for memory accounting. Under massive multi-tenancy a
// VNF churns through far more generations than it holds concurrently, so
// recycling a finished generation's arenas instead of allocating new ones
// keeps the steady-state allocation rate independent of generation turnover.

// StateBytes is the bytes of coding state one generation retains at a VNF:
// the larger of what a decoder and a recoder of these parameters allocate,
// arena for arena (TestStateBytesMatchesArenas). It depends only on the
// parameters, not on how many packets arrived, and is the same in both
// fields. The session store multiplies it by live generations to feed the
// dataplane_session_bytes gauge, so it over-counts the smaller role and a
// low-rank generation rather than under-counting a full one.
func (p Params) StateBytes() int {
	k, bs := p.GenerationBlocks, p.BlockSize
	// basis: k+1 coefficient and payload rows; rawSpan: k*k raw coefficients,
	// (k+1)*k reduction rows, k payload rows. Payload rows sit at their
	// padded stride in both.
	return max((k+1)*(k+rowStride(bs)), (2*k+1)*k+k*rowStride(bs))
}

// Reset returns the decoder to its freshly-constructed state for a new
// generation, reusing the engine's arenas: a reset decoder accepts the same
// call sequence as a new one and decodes identical bytes.
func (d *Decoder) Reset() { d.b.reset() }

// Reset returns the recoder to its freshly-constructed state for a new
// generation, reusing the span arenas and re-seeding the emission RNG. A
// recoder reset with seed s behaves bit-identically to NewRecoder(params, s):
// same innovation gating, same emitted combinations.
func (r *Recoder) Reset(seed int64) {
	r.rng.seed(seed)
	r.span.reset()
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
