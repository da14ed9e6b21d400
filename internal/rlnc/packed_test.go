package rlnc

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"ncfn/internal/gf"
)

// This file is the differential tier of the GF(2) packed fast path: every
// packed engine must be bit-identical to its byte-wise twin under loss,
// duplication, and reordering, at generation sizes deliberately straddling
// the 64-bit word boundary (k = 64 packs exactly one coefficient word;
// k = 65 spills into a second). The byte engines are reached by pre-seeding
// a Decoder's unexported engine field (tests share the package) or by
// hand-building a Recoder around a byte rawSpan — the public constructors
// auto-select the packed path for GF(2) params.

// packedDiffSizes straddle the coefficient-word boundary.
var packedDiffSizes = []int{1, 7, 64, 65}

func gf2Params(k, blockSize int) Params {
	return Params{GenerationBlocks: k, BlockSize: blockSize, Field: gf.GF2}
}

// byteDecoder returns a GF(2) decoder pinned to the byte-wise engine:
// incremental (basis) or deferred (rawSpan) depending on batched.
func byteDecoder(t *testing.T, p Params, batched bool) *Decoder {
	t.Helper()
	d, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if batched {
		d.def = newDeferred(p.GenerationBlocks, p.BlockSize)
	} else {
		d.b = newBasis(p.GenerationBlocks, p.BlockSize)
	}
	return d
}

// byteRecoder returns a GF(2) recoder pinned to the byte-wise span.
func byteRecoder(p Params, seed int64) *Recoder {
	r := &Recoder{
		params:  p,
		span:    newRawSpan(p.GenerationBlocks, p.BlockSize),
		weights: make([]byte, p.GenerationBlocks),
	}
	r.rng.seed(seed)
	return r
}

// gf2Stream encodes a generation over GF(2) and returns a corrupted arrival
// sequence with enough redundancy to complete under the given loss.
func gf2Stream(t *testing.T, p Params, seed int64, lossPct, dupPct int) (src []byte, stream []CodedBlock) {
	t.Helper()
	src = randomData(seed, p.GenerationBytes())
	enc, err := NewEncoder(p, src, seed)
	if err != nil {
		t.Fatal(err)
	}
	coded := make([]CodedBlock, 4*p.GenerationBlocks+16)
	for i := range coded {
		coded[i] = enc.Coded()
	}
	rng := rand.New(rand.NewSource(seed + 7))
	return src, corruptStream(rng, coded, lossPct, dupPct)
}

// TestPackedDecoderMatchesByteReference drives the packed incremental and
// packed deferred engines in lockstep with their byte-wise references on the
// same corrupted GF(2) stream: every innovation verdict, every rank and
// useless step, and the final decoded bytes must agree across all four.
func TestPackedDecoderMatchesByteReference(t *testing.T) {
	for _, k := range packedDiffSizes {
		for _, tc := range []struct {
			name            string
			lossPct, dupPct int
			batch           int
		}{
			{"clean", 0, 0, 1},
			{"loss", 25, 0, 3},
			{"dup", 0, 35, 2},
			{"loss+dup", 20, 25, 5},
		} {
			t.Run("k="+strconv.Itoa(k)+"/"+tc.name, func(t *testing.T) {
				p := gf2Params(k, 96+k%8) // odd block sizes exercise word tails
				_, stream := gf2Stream(t, p, int64(1000+k), tc.lossPct, tc.dupPct)

				packedInc, _ := NewDecoder(p)
				packedDef, _ := NewDecoder(p)
				byteInc := byteDecoder(t, p, false)
				byteDef := byteDecoder(t, p, true)
				// Select the packed engines through the public API.
				if _, err := packedInc.Add(stream[0].Clone()); err != nil {
					t.Fatal(err)
				}
				if _, err := byteInc.Add(stream[0].Clone()); err != nil {
					t.Fatal(err)
				}
				if packedInc.pb == nil || byteInc.b == nil {
					t.Fatal("engine selection wrong: want packed basis vs byte basis")
				}
				for off := 1; off < len(stream); off++ {
					pi, err := packedInc.Add(stream[off].Clone())
					if err != nil {
						t.Fatal(err)
					}
					bi, err := byteInc.Add(stream[off].Clone())
					if err != nil {
						t.Fatal(err)
					}
					if pi != bi {
						t.Fatalf("packet %d: innovation verdict diverged (packed %v, byte %v)", off, pi, bi)
					}
				}
				for off := 0; off < len(stream); off += tc.batch {
					end := off + tc.batch
					if end > len(stream) {
						end = len(stream)
					}
					pn, err := packedDef.AddBatch(stream[off:end])
					if err != nil {
						t.Fatal(err)
					}
					bn, err := byteDef.AddBatch(stream[off:end])
					if err != nil {
						t.Fatal(err)
					}
					if pn != bn {
						t.Fatalf("batch at %d: innovative count diverged (packed %d, byte %d)", off, pn, bn)
					}
				}
				if packedDef.pdef == nil || byteDef.def == nil {
					t.Fatal("engine selection wrong: want packed deferred vs byte deferred")
				}
				decoders := []*Decoder{packedInc, byteInc, packedDef, byteDef}
				for i, d := range decoders[1:] {
					if d.Rank() != decoders[0].Rank() || d.Useless() != decoders[0].Useless() {
						t.Fatalf("decoder %d: rank/useless diverged: %d/%d vs %d/%d",
							i+1, d.Rank(), d.Useless(), decoders[0].Rank(), decoders[0].Useless())
					}
				}
				if !packedInc.Complete() {
					t.Fatalf("stream did not complete the generation (rank %d/%d)", packedInc.Rank(), k)
				}
				want, err := packedInc.Generation()
				if err != nil {
					t.Fatal(err)
				}
				for i, d := range decoders[1:] {
					got, err := d.Generation()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("decoder %d: decoded bytes diverged", i+1)
					}
				}
			})
		}
	}
}

// TestPackedEncoderMatchesByteReference: with the same seed, the packed
// GF(2) encoder must emit bit-identical coefficient vectors and payloads to
// a byte-wise encoder over the same blocks.
func TestPackedEncoderMatchesByteReference(t *testing.T) {
	for _, k := range packedDiffSizes {
		p := gf2Params(k, 131)
		src := randomData(int64(2000+k), p.GenerationBytes())
		packed, err := NewEncoder(p, src, 42)
		if err != nil {
			t.Fatal(err)
		}
		if packed.pblocks == nil {
			t.Fatal("GF(2) encoder did not select the packed path")
		}
		ref, err := NewEncoder(p, src, 42)
		if err != nil {
			t.Fatal(err)
		}
		ref.pblocks, ref.pscratch = nil, nil // pin the byte path
		for i := 0; i < 3*k+8; i++ {
			pc := packed.Coded()
			bc := ref.Coded()
			if !bytes.Equal(pc.Coeffs, bc.Coeffs) {
				t.Fatalf("k=%d emission %d: coefficients diverged", k, i)
			}
			if !bytes.Equal(pc.Payload, bc.Payload) {
				t.Fatalf("k=%d emission %d: payloads diverged", k, i)
			}
		}
	}
}

// TestPackedRecoderMatchesByteReference: the packed recoder must store the
// same rows and, with the same seed, emit bit-identical recoded blocks to
// the byte-wise recoder — via both Add and the AddBatch path.
func TestPackedRecoderMatchesByteReference(t *testing.T) {
	for _, k := range packedDiffSizes {
		for _, useBatch := range []bool{false, true} {
			name := "k=" + strconv.Itoa(k)
			if useBatch {
				name += "/batch"
			}
			t.Run(name, func(t *testing.T) {
				p := gf2Params(k, 77)
				_, stream := gf2Stream(t, p, int64(3000+k), 15, 20)
				packed, err := NewRecoder(p, 99)
				if err != nil {
					t.Fatal(err)
				}
				if packed.pspan == nil {
					t.Fatal("GF(2) recoder did not select the packed span")
				}
				ref := byteRecoder(p, 99)
				if useBatch {
					pn, err := packed.AddBatch(stream)
					if err != nil {
						t.Fatal(err)
					}
					bn, err := ref.AddBatch(stream)
					if err != nil {
						t.Fatal(err)
					}
					if pn != bn {
						t.Fatalf("AddBatch innovative diverged: packed %d, byte %d", pn, bn)
					}
				} else {
					for _, cb := range stream {
						if err := packed.Add(cb); err != nil {
							t.Fatal(err)
						}
						if err := ref.Add(cb); err != nil {
							t.Fatal(err)
						}
					}
				}
				if packed.Stored() != ref.Stored() || packed.Useless() != ref.Useless() {
					t.Fatalf("span state diverged: packed %d/%d, byte %d/%d",
						packed.Stored(), packed.Useless(), ref.Stored(), ref.Useless())
				}
				var pc, bc CodedBlock
				for i := 0; i < 2*k+8; i++ {
					if !packed.RecodeInto(&pc) || !ref.RecodeInto(&bc) {
						t.Fatal("RecodeInto returned false with stored rows")
					}
					if !bytes.Equal(pc.Coeffs, bc.Coeffs) {
						t.Fatalf("emission %d: coefficients diverged", i)
					}
					if !bytes.Equal(pc.Payload, bc.Payload) {
						t.Fatalf("emission %d: payloads diverged", i)
					}
				}
			})
		}
	}
}

// TestGF2DrawsNeverAllZero is the satellite-1 regression: neither the
// encoder nor the recoder may emit an all-zero coefficient vector, even at
// k = 1 where GF(2) draws go all-zero with probability 1/2 per attempt.
func TestGF2DrawsNeverAllZero(t *testing.T) {
	p := gf2Params(1, 16)
	enc, err := NewEncoder(p, randomData(4, p.GenerationBytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	var cb CodedBlock
	for i := 0; i < 500; i++ {
		enc.CodedInto(&cb)
		if cb.Coeffs[0] == 0 {
			t.Fatalf("emission %d: encoder emitted a zero coefficient vector", i)
		}
	}
	rec, err := NewRecoder(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Add(cb); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if !rec.RecodeInto(&cb) {
			t.Fatal("RecodeInto returned false")
		}
		if cb.Coeffs[0] == 0 {
			t.Fatalf("emission %d: recoder emitted a zero coefficient vector", i)
		}
	}
}

// TestPackedDecoderDelegation: each packed engine accepts the other entry
// point once selected, mirroring TestDecoderModeDelegation.
func TestPackedDecoderDelegation(t *testing.T) {
	p := gf2Params(7, 64)
	src := randomData(6, p.GenerationBytes())
	enc, _ := NewEncoder(p, src, 6)
	coded := make([]CodedBlock, 4*p.GenerationBlocks)
	for i := range coded {
		coded[i] = enc.Coded()
	}
	// Packed basis selected by Add, then fed through AddBatch.
	d1, _ := NewDecoder(p)
	if _, err := d1.Add(coded[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.AddBatch(coded[1:]); err != nil {
		t.Fatal(err)
	}
	if d1.pb == nil || d1.pdef != nil {
		t.Fatal("AddBatch after Add must fold into the packed basis")
	}
	// Packed deferred selected by AddBatch, then fed through Add.
	d2, _ := NewDecoder(p)
	if _, err := d2.AddBatch(coded[:2]); err != nil {
		t.Fatal(err)
	}
	for _, cb := range coded[2:] {
		if _, err := d2.Add(cb); err != nil {
			t.Fatal(err)
		}
	}
	if d2.pdef == nil || d2.pb != nil {
		t.Fatal("Add after AddBatch must fold into the packed deferred span")
	}
	for _, d := range []*Decoder{d1, d2} {
		if !d.Complete() {
			t.Fatalf("generation incomplete (rank %d/%d)", d.Rank(), p.GenerationBlocks)
		}
		got, err := d.Generation()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("decoded generation differs from source")
		}
	}
}

// TestPackedTakeWorkMetersGF2 asserts the packed engines bill work at the
// gf2WorkShift discount and that chargeable work flows through TakeWork.
func TestPackedTakeWorkMetersGF2(t *testing.T) {
	k, blockSize := 8, 1024
	p2 := gf2Params(k, blockSize)
	p256 := Params{GenerationBlocks: k, BlockSize: blockSize, Field: gf.GF256}
	src := randomData(12, p2.GenerationBytes())

	encGF2, _ := NewEncoder(p2, src, 12)
	encGF256, _ := NewEncoder(p256, src, 12)
	var cb CodedBlock
	encGF2.CodedInto(&cb)
	encGF256.CodedInto(&cb)
	w2, w256 := encGF2.TakeWork(), encGF256.TakeWork()
	if w2 == 0 {
		t.Fatal("GF(2) encoder must still bill nonzero work")
	}
	if want := w256 >> gf2WorkShift; w2 != want {
		t.Fatalf("GF(2) encode work = %d, want %d (GF(2^8) work %d >> %d)", w2, want, w256, gf2WorkShift)
	}
	if encGF2.TakeWork() != 0 {
		t.Fatal("TakeWork must reset")
	}

	dec, _ := NewDecoder(p2)
	for i := 0; i < 2*k && !dec.Complete(); i++ {
		encGF2.CodedInto(&cb)
		if _, err := dec.Add(cb.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if dec.TakeWork() == 0 {
		t.Fatal("packed incremental decode must bill work")
	}
}

func TestPackedDecoderAddZeroAlloc(t *testing.T) {
	p := gf2Params(65, 1460)
	enc, _ := NewEncoder(p, randomData(13, p.GenerationBytes()), 13)
	blocks := make([]CodedBlock, 130)
	for i := range blocks {
		blocks[i] = enc.Coded()
	}
	d, _ := NewDecoder(p)
	if _, err := d.Add(blocks[0]); err != nil { // create the packed basis
		t.Fatal(err)
	}
	i := 1
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.Add(blocks[i%len(blocks)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("packed Add allocated %.1f times per run, want 0", allocs)
	}
}

func TestPackedDecoderAddBatchZeroAlloc(t *testing.T) {
	p := gf2Params(65, 1460)
	enc, _ := NewEncoder(p, randomData(14, p.GenerationBytes()), 14)
	batch := make([]CodedBlock, 2)
	for i := range batch {
		batch[i] = enc.Coded()
	}
	d, _ := NewDecoder(p)
	if _, err := d.AddBatch(batch[:1]); err != nil { // create the packed deferred engine
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("packed AddBatch allocated %.1f times per run, want 0", allocs)
	}
}

func TestPackedEncoderCodedIntoZeroAlloc(t *testing.T) {
	p := gf2Params(65, 1460)
	enc, _ := NewEncoder(p, randomData(15, p.GenerationBytes()), 15)
	var cb CodedBlock
	enc.CodedInto(&cb) // size the buffers
	coeffsPtr, payloadPtr := &cb.Coeffs[0], &cb.Payload[0]
	allocs := testing.AllocsPerRun(100, func() {
		enc.CodedInto(&cb)
	})
	if allocs != 0 {
		t.Fatalf("packed CodedInto allocated %.1f times per run, want 0", allocs)
	}
	if &cb.Coeffs[0] != coeffsPtr || &cb.Payload[0] != payloadPtr {
		t.Fatal("packed CodedInto did not reuse the emission block's backing arrays")
	}
}

func TestPackedRecoderRecodeIntoZeroAlloc(t *testing.T) {
	p := gf2Params(65, 1460)
	enc, _ := NewEncoder(p, randomData(16, p.GenerationBytes()), 16)
	rec, _ := NewRecoder(p, 16)
	for i := 0; i < p.GenerationBlocks; i++ {
		if err := rec.Add(enc.Coded()); err != nil {
			t.Fatal(err)
		}
	}
	var cb CodedBlock
	rec.RecodeInto(&cb) // size the buffers
	allocs := testing.AllocsPerRun(100, func() {
		rec.RecodeInto(&cb)
	})
	if allocs != 0 {
		t.Fatalf("packed RecodeInto allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkDecoderBatchGF2 is the acceptance benchmark of the GF(2) fast
// path: a full generation decoded through AddBatch at the Fig 4 sweep
// sizes, packed engine vs the byte-wise GF(2) reference. Compare
// throughput against BenchmarkDecoderBatch/deferred (the GF(2^8) batched
// engine) at the same k. Guarded by a benchguard baseline at k=64.
func BenchmarkDecoderBatchGF2(b *testing.B) {
	for _, k := range []int{16, 64} {
		p := gf2Params(k, 1460)
		enc, err := NewEncoder(p, randomData(21, p.GenerationBytes()), 21)
		if err != nil {
			b.Fatal(err)
		}
		// Extra blocks absorb dependent GF(2) combinations.
		blocks := make([]CodedBlock, 2*k+16)
		for i := range blocks {
			blocks[i] = enc.Coded()
		}
		run := func(b *testing.B, packed bool) {
			b.SetBytes(int64(p.GenerationBytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := NewDecoder(p)
				if err != nil {
					b.Fatal(err)
				}
				if !packed {
					d.def = newDeferred(k, p.BlockSize)
				}
				for off := 0; off < len(blocks) && !d.Complete(); off += 8 {
					end := off + 8
					if end > len(blocks) {
						end = len(blocks)
					}
					if _, err := d.AddBatch(blocks[off:end]); err != nil {
						b.Fatal(err)
					}
				}
				if !d.Complete() {
					b.Fatal("generation incomplete")
				}
				if _, err := d.Block(0); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run("packed/k="+strconv.Itoa(k), func(b *testing.B) { run(b, true) })
		b.Run("reference/k="+strconv.Itoa(k), func(b *testing.B) { run(b, false) })
	}
}

// BenchmarkEncodeCodedIntoGF2 mirrors BenchmarkEncodeCodedInto for the
// packed GF(2) emission path.
func BenchmarkEncodeCodedIntoGF2(b *testing.B) {
	for _, k := range []int{4, 64} {
		p := gf2Params(k, 1460)
		enc, err := NewEncoder(p, randomData(22, p.GenerationBytes()), 22)
		if err != nil {
			b.Fatal(err)
		}
		var cb CodedBlock
		enc.CodedInto(&cb)
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			b.SetBytes(int64(p.BlockSize))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc.CodedInto(&cb)
			}
		})
	}
}

// BenchmarkRecodeGF2 measures the packed recoder's absorb+emit cycle, the
// per-packet cost of a GF(2) relay VNF.
func BenchmarkRecodeGF2(b *testing.B) {
	for _, k := range []int{4, 64} {
		p := gf2Params(k, 1460)
		enc, err := NewEncoder(p, randomData(23, p.GenerationBytes()), 23)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := NewRecoder(p, 23)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := rec.Add(enc.Coded()); err != nil {
				b.Fatal(err)
			}
		}
		var cb CodedBlock
		rec.RecodeInto(&cb)
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			b.SetBytes(int64(p.BlockSize))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.RecodeInto(&cb)
			}
		})
	}
}
