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
// k = 65 spills into a second). The byte engines are reached by swapping a
// Decoder's unexported engine field (tests share the package) or by
// hand-building a Recoder around a byte rawSpan — the public constructors
// build the packed path for GF(2) params.

// packedDiffSizes straddle the coefficient-word boundary.
var packedDiffSizes = []int{1, 7, 64, 65}

func gf2Params(k, blockSize int) Params {
	return Params{GenerationBlocks: k, BlockSize: blockSize, Field: gf.GF2}
}

// byteDecoder returns a GF(2) decoder running the byte-wise basis.
func byteDecoder(t testing.TB, p Params) *Decoder {
	t.Helper()
	d, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	d.b, d.pb = newBasis(p.GenerationBlocks, p.BlockSize), nil
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

// TestPackedDecoderMatchesByteReference drives the packed basis in lockstep
// with the byte basis on the same corrupted GF(2) stream: every innovation
// verdict, every rank and useless step, and the final decoded bytes must
// agree.
func TestPackedDecoderMatchesByteReference(t *testing.T) {
	for _, k := range packedDiffSizes {
		for _, tc := range []struct {
			name            string
			lossPct, dupPct int
		}{
			{"clean", 0, 0},
			{"loss", 25, 0},
			{"dup", 0, 35},
			{"loss+dup", 20, 25},
		} {
			t.Run("k="+strconv.Itoa(k)+"/"+tc.name, func(t *testing.T) {
				p := gf2Params(k, 96+k%8) // odd block sizes exercise word tails
				src, stream := gf2Stream(t, p, int64(1000+k), tc.lossPct, tc.dupPct)

				packed, _ := NewDecoder(p)
				ref := byteDecoder(t, p)
				if packed.pb == nil || packed.b != nil {
					t.Fatal("NewDecoder did not build the packed basis for GF(2)")
				}
				for off := range stream {
					pi, err := packed.Add(stream[off].Clone())
					if err != nil {
						t.Fatal(err)
					}
					bi, err := ref.Add(stream[off].Clone())
					if err != nil {
						t.Fatal(err)
					}
					if pi != bi {
						t.Fatalf("packet %d: innovation verdict diverged (packed %v, byte %v)", off, pi, bi)
					}
					if packed.Rank() != ref.Rank() || packed.Useless() != ref.Useless() {
						t.Fatalf("packet %d: rank/useless diverged: packed %d/%d, byte %d/%d",
							off, packed.Rank(), packed.Useless(), ref.Rank(), ref.Useless())
					}
				}
				if !packed.Complete() {
					t.Fatalf("stream did not complete the generation (rank %d/%d)", packed.Rank(), k)
				}
				for _, d := range []*Decoder{packed, ref} {
					got, err := d.Generation()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, src) {
						t.Fatal("decoded bytes differ from the source")
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

// TestPackedDecoderDelegation: Add and AddBatch are one insert, so a packed
// decoder fed through them in either order decodes the source.
func TestPackedDecoderDelegation(t *testing.T) {
	p := gf2Params(7, 64)
	src := randomData(6, p.GenerationBytes())
	enc, _ := NewEncoder(p, src, 6)
	coded := make([]CodedBlock, 4*p.GenerationBlocks)
	for i := range coded {
		coded[i] = enc.Coded()
	}
	d1, _ := NewDecoder(p)
	if _, err := d1.Add(coded[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.AddBatch(coded[1:]); err != nil {
		t.Fatal(err)
	}
	d2, _ := NewDecoder(p)
	if _, err := d2.AddBatch(coded[:2]); err != nil {
		t.Fatal(err)
	}
	for _, cb := range coded[2:] {
		if _, err := d2.Add(cb); err != nil {
			t.Fatal(err)
		}
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
	i := 0
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

// BenchmarkDecoderBatchGF2 is BenchmarkDecoderBatch over GF(2): the packed
// basis against the byte basis on the same rows (the reference), in both row
// shapes. The packed rows are guarded by benchguard baselines.
func BenchmarkDecoderBatchGF2(b *testing.B) {
	for _, shape := range benchRowShapes {
		for _, k := range []int{16, 64} {
			p := gf2Params(k, 1460)
			// Extra blocks absorb dependent GF(2) combinations.
			blocks := benchRows(b, p, shape, 2*k+16)
			name := shape + "/k=" + strconv.Itoa(k)
			b.Run("packed/"+name, func(b *testing.B) {
				d, _ := NewDecoder(p)
				benchDecode(b, d, blocks)
			})
			b.Run("reference/"+name, func(b *testing.B) { benchDecode(b, byteDecoder(b, p), blocks) })
		}
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
