// Package rlnc implements randomized linear network coding (RLNC) over
// GF(2^8), mirroring the data-plane coding scheme of Sec. III-B:
//
//   - Source data is split into generations; each generation is split into
//     a fixed number of equal-size blocks (Fig. 3).
//   - An encoded block is a random linear combination of the blocks of one
//     generation; the random coefficients travel in the packet header.
//   - Intermediate nodes recode: any set of received coded blocks for a
//     generation can be combined again without decoding.
//   - A receiver decodes a generation once it has collected as many
//     linearly independent coded blocks as the generation has blocks.
//
// The default parameters are the paper's: 4 blocks per generation and
// 1460-byte blocks, chosen so that the NC header + UDP + IP headers exactly
// fill a 1500-byte MTU.
package rlnc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ncfn/internal/gf"
)

// DefaultGenerationBlocks is the paper's generation size in blocks (Fig. 4
// shows throughput peaking at 4 blocks per generation).
const DefaultGenerationBlocks = 4

// DefaultBlockSize is the paper's block size in bytes: 1460 bytes +
// 12-byte NC header + 8-byte UDP header + 20-byte IP header = 1500 (MTU).
const DefaultBlockSize = 1460

// ErrParams is returned for invalid coding parameters.
var ErrParams = errors.New("rlnc: invalid parameters")

// Params fixes the coding configuration for a session. The same generation
// and block sizes are used across all sessions of a deployment and are
// distributed to each VNF at initialization (Sec. III-B).
type Params struct {
	// GenerationBlocks is the number of blocks per generation.
	GenerationBlocks int
	// BlockSize is the number of bytes per block.
	BlockSize int
	// Field is the coefficient field; zero value means GF(2^8).
	Field gf.Field
}

// DefaultParams returns the paper's coding parameters.
func DefaultParams() Params {
	return Params{GenerationBlocks: DefaultGenerationBlocks, BlockSize: DefaultBlockSize, Field: gf.GF256}
}

// Validate checks that the parameters are usable.
func (p Params) Validate() error {
	if p.GenerationBlocks <= 0 || p.GenerationBlocks > 255 {
		return fmt.Errorf("%w: generation blocks %d out of range [1,255]", ErrParams, p.GenerationBlocks)
	}
	if p.BlockSize <= 0 {
		return fmt.Errorf("%w: block size %d must be positive", ErrParams, p.BlockSize)
	}
	if f := p.field(); f != gf.GF256 && f != gf.GF2 {
		return fmt.Errorf("%w: unsupported field %v", ErrParams, p.Field)
	}
	return nil
}

// GenerationBytes returns the payload bytes carried by one full generation.
func (p Params) GenerationBytes() int { return p.GenerationBlocks * p.BlockSize }

func (p Params) field() gf.Field {
	if p.Field == 0 {
		return gf.GF256
	}
	return p.Field
}

// checkBlock validates a coded block's dimensions against the parameters.
func (p Params) checkBlock(cb CodedBlock) error {
	if len(cb.Coeffs) != p.GenerationBlocks {
		return fmt.Errorf("%w: coefficient vector length %d, want %d", ErrParams, len(cb.Coeffs), p.GenerationBlocks)
	}
	if len(cb.Payload) != p.BlockSize {
		return fmt.Errorf("%w: payload length %d, want %d", ErrParams, len(cb.Payload), p.BlockSize)
	}
	return nil
}

// CodedBlock is one coded block together with its coefficient vector: the
// payload equals sum_i Coeffs[i] * block_i of the source generation.
type CodedBlock struct {
	// Coeffs has length Params.GenerationBlocks.
	Coeffs []byte
	// Payload has length Params.BlockSize.
	Payload []byte
}

// Clone returns a deep copy of the coded block.
func (c CodedBlock) Clone() CodedBlock {
	return CodedBlock{
		Coeffs:  append([]byte(nil), c.Coeffs...),
		Payload: append([]byte(nil), c.Payload...),
	}
}

// Encoder produces coded blocks for a single source generation.
// It is not safe for concurrent use.
type Encoder struct {
	params Params
	blocks [][]byte // views of arena, one per source block
	arena  []byte
	rng    prng
	next   int    // next systematic block index
	work   uint64 // payload-equivalent kernel traffic, in bytes
}

// NewEncoder builds an encoder for one generation of source data. data must
// be at most GenerationBytes long; a short final generation is zero-padded
// (the application layer records the true length). seed makes coefficient
// draws reproducible; use different seeds per node in deployments.
func NewEncoder(params Params, data []byte, seed int64) (*Encoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	k, bs := params.GenerationBlocks, params.BlockSize
	e := &Encoder{
		params: params,
		blocks: make([][]byte, k),
		arena:  make([]byte, k*bs),
	}
	for i := range e.blocks {
		e.blocks[i] = e.arena[i*bs : (i+1)*bs : (i+1)*bs]
	}
	return e, e.Reset(data, seed)
}

// Reset loads a new generation into the encoder, keeping its allocations: a
// reset encoder behaves bit-identically to NewEncoder(params, data, seed).
// The data is copied; the caller may reuse it once Reset returns.
func (e *Encoder) Reset(data []byte, seed int64) error {
	if len(data) > len(e.arena) {
		return fmt.Errorf("%w: %d bytes exceed generation capacity %d", ErrParams, len(data), len(e.arena))
	}
	clear(e.arena[copy(e.arena, data):])
	e.rng.seed(seed)
	e.next, e.work = 0, 0
	return nil
}

// Systematic returns the next uncoded source block (identity coefficient
// vector) or false once all source blocks have been emitted once.
// Systematic transmission lets the first packet of a generation be forwarded
// without coding, as the data plane does for the first arrival (Sec. III-B).
func (e *Encoder) Systematic() (CodedBlock, bool) {
	var cb CodedBlock
	ok := e.SystematicInto(&cb)
	return cb, ok
}

// SystematicInto is Systematic writing into cb, reusing cb's backing arrays
// when they have capacity, as CodedInto does.
//
//nc:hotpath
func (e *Encoder) SystematicInto(cb *CodedBlock) bool {
	if e.next >= e.params.GenerationBlocks {
		return false
	}
	cb.Coeffs = resizeBuf(cb.Coeffs, e.params.GenerationBlocks)
	cb.Payload = resizeBuf(cb.Payload, e.params.BlockSize)
	clear(cb.Coeffs)
	cb.Coeffs[e.next] = 1
	copy(cb.Payload, e.blocks[e.next])
	e.next++
	e.work += uint64(e.params.BlockSize)
	return true
}

// Coded returns a fresh random linear combination of the generation.
func (e *Encoder) Coded() CodedBlock {
	var cb CodedBlock
	e.CodedInto(&cb)
	return cb
}

// CodedInto writes a fresh random combination of the generation into cb,
// reusing cb's backing arrays when they have capacity — the data plane's
// allocation-free emission path. The payload is produced by one fused gather
// over the source blocks (gf.CombineSlices), so the destination stays
// cache-resident while every source row streams through it once.
//
//nc:hotpath
func (e *Encoder) CodedInto(cb *CodedBlock) {
	k := e.params.GenerationBlocks
	cb.Coeffs = resizeBuf(cb.Coeffs, k)
	cb.Payload = resizeBuf(cb.Payload, e.params.BlockSize)
	drawCoeffs(&e.rng, e.params.field(), cb.Coeffs)
	gf.CombineSlices(cb.Payload, e.blocks, cb.Coeffs)
	// Fused gather traffic: (k+1)/2 rows of blockSize per emission.
	e.work += uint64(k+1) * uint64(e.params.BlockSize) / 2
}

// prng is the coefficient generator: splitmix64, eight bytes of state held
// by value in its owner, seeded in O(1). A relay seeds one per generation
// per hop, so seeding has to cost nothing next to the generation's packets.
type prng struct{ state uint64 }

// mix64 is splitmix64's output function, a bijection on 64-bit words.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// seed starts the stream for seed. The seed is mixed first: callers hand out
// consecutive seeds (Seed+gid at a source, nextSeed++ at a relay), and
// without it stream s+1 would be stream s shifted by one word.
func (p *prng) seed(seed int64) { p.state = mix64(uint64(seed)) }

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	return mix64(p.state)
}

// maxCoeffRedraws bounds the all-zero redraw loop of coefficient and weight
// draws. Under GF(2) an all-zero draw has probability 2^-k, so the bound is
// effectively never hit; it exists to keep the loop provably finite, after
// which one random entry is forced to 1.
const maxCoeffRedraws = 8

// drawCoeffs fills coeffs with random field coefficients, eight per
// generator word, redrawing the whole vector if every entry came up zero:
// an all-zero vector carries no information, and under GF(2) a single draw
// goes all-zero with probability 2^-k — at small generation sizes that is
// real transmission waste, not a corner case. The redraw loop is bounded by
// maxCoeffRedraws, after which one random entry is forced to 1.
//
// The mask is all the field changes in this package: a GF(2) coefficient is
// the byte 0 or 1, and the GF(2^8) engines handle such rows exactly (c == 1
// is the XOR kernel, the inverse of 1 is 1, and a 0/1 matrix has the same
// rank over GF(2^8) as over GF(2)).
//
//nc:hotpath
func drawCoeffs(rng *prng, field gf.Field, coeffs []byte) {
	mask := ^uint64(0)
	if field == gf.GF2 {
		mask = 0x0101010101010101 // the low bit of each of the eight bytes
	}
	for attempt := 0; ; attempt++ {
		var any uint64
		c := coeffs
		for ; len(c) >= 8; c = c[8:] {
			w := rng.next() & mask
			binary.LittleEndian.PutUint64(c, w)
			any |= w
		}
		if len(c) > 0 {
			w := rng.next() & mask
			for i := range c {
				c[i] = byte(w >> (8 * i))
				any |= uint64(c[i])
			}
		}
		if any != 0 {
			return
		}
		if attempt == maxCoeffRedraws {
			coeffs[rng.next()%uint64(len(coeffs))] = 1
			return
		}
	}
}

// TakeWork returns the coding work performed since the last call, measured
// in bytes of equivalent single-row kernel traffic, and resets the counter.
// The whole-system benchmark's per-layer budget reads these deltas.
func (e *Encoder) TakeWork() uint64 {
	w := e.work
	e.work = 0
	return w
}

// basis is the Decoder's progressive-Gaussian-elimination engine over
// GF(2^8): a reduced row-echelon system of at most k rows, stored in a
// preallocated arena so that inserting a block performs zero heap
// allocations. The arena holds k+1 rows: up to k pivot rows plus one
// scratch row the next arrival is reduced in; an innovative insert promotes
// the scratch row to a pivot and adopts the next free arena row as scratch.
type basis struct {
	k, blockSize int
	// rows[i] / payload[i], when pivots[i] is true, form a row with
	// leading 1 at column i, reduced against all other pivot rows.
	rows    [][]byte
	payload [][]byte
	pivots  []bool
	rank    int
	useless int    // inserted blocks that were not innovative
	work    uint64 // payload-equivalent kernel traffic, in bytes

	scratchC []byte // next incoming coefficient row (arena view)
	scratchP []byte // next incoming payload row (arena view)
	nextRow  int
	arenaC   []byte
	arenaP   []byte
}

func newBasis(k, blockSize int) *basis {
	b := &basis{
		k:         k,
		blockSize: blockSize,
		rows:      make([][]byte, k),
		payload:   make([][]byte, k),
		pivots:    make([]bool, k),
		arenaC:    make([]byte, (k+1)*k),
		arenaP:    make([]byte, (k+1)*rowStride(blockSize)),
	}
	b.scratchC, b.scratchP = b.arenaRow(0)
	b.nextRow = 1
	return b
}

// arenaRow returns the i-th coefficient row and the i-th payload row, which
// starts on a cache line like a rawSpan's (rowStride).
func (b *basis) arenaRow(i int) (coeffs, payload []byte) {
	off := i * rowStride(b.blockSize)
	return b.arenaC[i*b.k : (i+1)*b.k : (i+1)*b.k],
		b.arenaP[off : off+b.blockSize : off+b.blockSize]
}

// insert reduces one coded block against the stored pivot rows and, if it
// is innovative, stores it and back-substitutes to keep the system in
// reduced form. It reports whether the rank increased. insert performs no
// heap allocation.
//
//nc:hotpath
func (b *basis) insert(coeffs, payload []byte) bool {
	cs, ps := b.scratchC, b.scratchP
	copy(cs, coeffs)
	copy(ps, payload)
	rowOps := 1 // the payload copy

	// Reduce the incoming vector against every existing pivot row. Each
	// stored pivot row is zero at all other pivot columns, so one pass
	// clears every pivot column of the incoming vector.
	for col := 0; col < b.k; col++ {
		if cs[col] == 0 || !b.pivots[col] {
			continue
		}
		c := cs[col]
		gf.AddMulSlice(cs, b.rows[col], c)
		gf.AddMulSlice(ps, b.payload[col], c)
		rowOps++
	}
	// The leading nonzero column (necessarily pivot-free now) becomes the
	// new pivot; a fully-reduced zero vector was not innovative.
	lead := -1
	for col := 0; col < b.k; col++ {
		if cs[col] != 0 {
			lead = col
			break
		}
	}
	if lead < 0 {
		b.useless++
		b.work += uint64(rowOps) * uint64(b.blockSize)
		return false
	}
	if c := cs[lead]; c != 1 {
		inv := gf.Inv(c)
		gf.MulSlice(cs, cs, inv)
		gf.MulSlice(ps, ps, inv)
		rowOps++
	}
	b.rows[lead] = cs
	b.payload[lead] = ps
	b.pivots[lead] = true
	b.rank++
	// Back-substitute: eliminate column lead from all other pivot rows.
	for r := 0; r < b.k; r++ {
		if r == lead || !b.pivots[r] {
			continue
		}
		if c := b.rows[r][lead]; c != 0 {
			gf.AddMulSlice(b.rows[r], b.rows[lead], c)
			gf.AddMulSlice(b.payload[r], b.payload[lead], c)
			rowOps++
		}
	}
	b.scratchC, b.scratchP = b.arenaRow(b.nextRow)
	b.nextRow++
	b.work += uint64(rowOps) * uint64(b.blockSize)
	return true
}

// Decoder recovers a generation from coded blocks by progressive Gaussian
// elimination: every arriving block is reduced against the rows collected so
// far and, if innovative, back-substituted into them, so the source blocks
// stand decoded the moment the rank reaches k and the cost is spread across
// arrivals. A zero coefficient costs nothing, which is what the systematic,
// subset-recoded traffic of the data plane is mostly made of (DESIGN.md §5
// has the measurements against the batched inverse this replaced).
//
// Both fields run the same engine, basis: Params.Field only decides how the
// coefficients arriving here were drawn (drawCoeffs). All row storage is
// preallocated; Add, AddBatch and Reset perform no heap allocation. It is
// not safe for concurrent use.
type Decoder struct {
	params Params
	b      *basis
}

// NewDecoder builds a decoder for one generation.
func NewDecoder(params Params) (*Decoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Decoder{params: params, b: newBasis(params.GenerationBlocks, params.BlockSize)}, nil
}

// Rank returns the number of linearly independent blocks received so far.
func (d *Decoder) Rank() int { return d.b.rank }

// Complete reports whether the full generation can be recovered.
func (d *Decoder) Complete() bool { return d.Rank() == d.params.GenerationBlocks }

// TakeWork returns the coding work performed since the last call, measured
// in bytes of equivalent single-row kernel traffic, and resets the counter.
func (d *Decoder) TakeWork() uint64 {
	w := d.b.work
	d.b.work = 0
	return w
}

// Add consumes one coded block and reports whether it was innovative
// (increased the decoder's rank).
func (d *Decoder) Add(cb CodedBlock) (bool, error) {
	if err := d.params.checkBlock(cb); err != nil {
		return false, err
	}
	return d.b.insert(cb.Coeffs, cb.Payload), nil
}

// AddBatch consumes a run of coded blocks — what a shard worker drained for
// one generation — and returns how many were innovative. Every block is
// checked before the first is consumed, so a bad batch changes nothing.
func (d *Decoder) AddBatch(blocks []CodedBlock) (int, error) {
	for i := range blocks {
		if err := d.params.checkBlock(blocks[i]); err != nil {
			return 0, err
		}
	}
	innovative := 0
	for i := range blocks {
		if d.b.insert(blocks[i].Coeffs, blocks[i].Payload) {
			innovative++
		}
	}
	return innovative, nil
}

// Block returns source block i once the generation is complete.
func (d *Decoder) Block(i int) ([]byte, error) {
	if !d.Complete() {
		return nil, fmt.Errorf("rlnc: generation incomplete (rank %d/%d)", d.Rank(), d.params.GenerationBlocks)
	}
	if i < 0 || i >= d.params.GenerationBlocks {
		return nil, fmt.Errorf("%w: block index %d", ErrParams, i)
	}
	return d.b.payload[i], nil
}

// Generation returns the concatenated decoded generation payload.
func (d *Decoder) Generation() ([]byte, error) {
	if !d.Complete() {
		return nil, fmt.Errorf("rlnc: generation incomplete (rank %d/%d)", d.Rank(), d.params.GenerationBlocks)
	}
	out := make([]byte, 0, d.params.GenerationBytes())
	for i := 0; i < d.params.GenerationBlocks; i++ {
		row, err := d.Block(i)
		if err != nil {
			return nil, err
		}
		out = append(out, row...)
	}
	return out, nil
}

// Recoder combines coded blocks received so far into fresh coded blocks
// without decoding — the core capability that lets intermediate VNFs mix
// flows. It stores the raw innovative rows it receives, gated by a
// coefficient-only rank check: a recoder never needs payload elimination at
// all, because any random combination of the raw rows spans the same space
// as a reduced basis. Per-generation memory is bounded by k rows, absorbing
// a packet costs one payload copy, and an emission is a single fused gather
// over the stored span — O(rank) row reads, not O(packets received). Add
// and RecodeInto perform no heap allocation. Both fields run the same span;
// under GF(2) the emission weights are drawn from {0, 1}. It is not safe for
// concurrent use.
type Recoder struct {
	params  Params
	span    *rawSpan
	rng     prng
	weights []byte // emission draw scratch
}

// NewRecoder builds a recoder for one generation.
func NewRecoder(params Params, seed int64) (*Recoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	r := &Recoder{
		params:  params,
		span:    newRawSpan(params.GenerationBlocks, params.BlockSize),
		weights: make([]byte, params.GenerationBlocks),
	}
	r.rng.seed(seed)
	return r, nil
}

// Stored returns the number of linearly independent blocks buffered for
// recoding (the recoder's rank; dependent arrivals add no information and
// are dropped by the coefficient gate).
func (r *Recoder) Stored() int { return r.span.n }

// Useless returns the number of received blocks the coefficient gate dropped
// as linearly dependent. The data plane surfaces this per field: dependent
// arrivals are the transmission overhead small fields trade for cheaper
// coding (Sec. III-B).
func (r *Recoder) Useless() int { return r.span.useless }

// TakeWork returns the coding work performed since the last call, measured
// in bytes of equivalent single-row kernel traffic, and resets the counter.
func (r *Recoder) TakeWork() uint64 {
	w := r.span.work
	r.span.work = 0
	return w
}

// Add folds a received coded block into the recoding span.
func (r *Recoder) Add(cb CodedBlock) error {
	if err := r.params.checkBlock(cb); err != nil {
		return err
	}
	r.span.insert(cb.Coeffs, cb.Payload)
	return nil
}

// Recode emits a random linear combination of the received span. It returns
// false if nothing has been buffered yet.
func (r *Recoder) Recode() (CodedBlock, bool) {
	var cb CodedBlock
	if !r.RecodeInto(&cb) {
		return CodedBlock{}, false
	}
	return cb, true
}

// RecodeInto writes a fresh random combination of the received span into
// cb, reusing cb's backing arrays when they have capacity — the data
// plane's allocation-free emission path. It returns false if nothing has
// been buffered yet.
//
//nc:hotpath
func (r *Recoder) RecodeInto(cb *CodedBlock) bool {
	n := r.Stored()
	if n == 0 {
		return false
	}
	cb.Coeffs = resizeBuf(cb.Coeffs, r.params.GenerationBlocks)
	cb.Payload = resizeBuf(cb.Payload, r.params.BlockSize)
	// All-zero weight vectors are redrawn at the source: emitting the fused
	// gather of an all-zero draw would be a zero packet, and the old
	// fallback (forward stored row 0) was a guaranteed duplicate — useless
	// to every downstream decoder that already has the row.
	w := r.weights[:n]
	drawCoeffs(&r.rng, r.params.field(), w)
	gf.CombineSlices(cb.Coeffs, r.span.rawC[:n], w)
	gf.CombineSlices(cb.Payload, r.span.rawP[:n], w)
	// Fused gather traffic: (n+1)/2 rows of blockSize per emission.
	r.span.work += uint64(n+1) * uint64(r.params.BlockSize) / 2
	return true
}

// resizeBuf returns b resized to n bytes, reusing its backing array when
// capacity allows. Contents are unspecified; callers overwrite fully.
func resizeBuf(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// SplitGenerations cuts data into generation-size chunks. The final chunk
// may be short; the encoder zero-pads it.
func SplitGenerations(params Params, data []byte) [][]byte {
	genBytes := params.GenerationBytes()
	if genBytes <= 0 {
		return nil
	}
	var out [][]byte
	for len(data) > 0 {
		n := genBytes
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}
