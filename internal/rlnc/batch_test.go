package rlnc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// corruptStream applies seeded loss, duplication, and reordering to a coded
// packet stream, returning the arrival sequence a decoder would see.
func corruptStream(rng *rand.Rand, blocks []CodedBlock, lossPct, dupPct int) []CodedBlock {
	var out []CodedBlock
	for _, cb := range blocks {
		if rng.Intn(100) < lossPct {
			continue
		}
		out = append(out, cb)
		for rng.Intn(100) < dupPct {
			out = append(out, cb.Clone())
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestAddBatchMatchesIncremental is the differential proof the batched
// decoder is drop-in: under random loss, duplication, and reordering, the
// deferred AddBatch engine must agree with the incremental Add engine on
// every rank step, the useless count, and the decoded bytes.
func TestAddBatchMatchesIncremental(t *testing.T) {
	cases := []struct {
		name         string
		k, blockSize int
		lossPct      int
		dupPct       int
		batch        int
		seed         int64
	}{
		{"clean/k=4", 4, 32, 0, 0, 1, 100},
		{"loss/k=4", 4, 32, 30, 0, 2, 101},
		{"dup/k=4", 4, 32, 0, 40, 3, 102},
		{"loss+dup/k=8", 8, 64, 20, 30, 4, 103},
		{"paper/k=4", 4, 1460, 10, 10, 8, 104},
		{"large/k=64", 64, 256, 15, 15, 16, 105},
		{"gf2/k=8", 8, 32, 10, 25, 4, 106},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{GenerationBlocks: tc.k, BlockSize: tc.blockSize}
			if tc.name == "gf2/k=8" {
				p.Field = 2 // gf.GF2
			}
			rng := rand.New(rand.NewSource(tc.seed))
			src := randomData(tc.seed, p.GenerationBytes())
			enc, err := NewEncoder(p, src, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			// Enough redundancy to survive the configured loss.
			coded := make([]CodedBlock, 4*tc.k+8)
			for i := range coded {
				coded[i] = enc.Coded()
			}
			stream := corruptStream(rng, coded, tc.lossPct, tc.dupPct)

			inc, _ := NewDecoder(p)
			def, _ := NewDecoder(p)
			for off := 0; off < len(stream); off += tc.batch {
				end := off + tc.batch
				if end > len(stream) {
					end = len(stream)
				}
				run := stream[off:end]
				wantInnov := 0
				for _, cb := range run {
					ok, err := inc.Add(cb)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						wantInnov++
					}
				}
				gotInnov, err := def.AddBatch(run)
				if err != nil {
					t.Fatal(err)
				}
				if gotInnov != wantInnov {
					t.Fatalf("batch at %d: AddBatch reported %d innovative, incremental %d", off, gotInnov, wantInnov)
				}
				if inc.Rank() != def.Rank() || inc.Useless() != def.Useless() {
					t.Fatalf("batch at %d: rank/useless diverged: inc %d/%d def %d/%d",
						off, inc.Rank(), inc.Useless(), def.Rank(), def.Useless())
				}
			}
			if !inc.Complete() {
				t.Fatalf("stream did not complete the generation (rank %d/%d); raise redundancy", inc.Rank(), tc.k)
			}
			wantGen, err := inc.Generation()
			if err != nil {
				t.Fatal(err)
			}
			gotGen, err := def.Generation()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotGen, wantGen) {
				t.Fatal("deferred decode differs from incremental decode")
			}
			if !bytes.Equal(gotGen, src) {
				t.Fatal("decoded generation differs from source")
			}
			for i := 0; i < tc.k; i++ {
				wb, _ := inc.Block(i)
				gb, err := def.Block(i)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("block %d differs between engines", i)
				}
			}
		})
	}
}

// TestDecoderModeDelegation checks that each engine accepts the other
// entry point once selected.
func TestDecoderModeDelegation(t *testing.T) {
	p := testParams()
	src := randomData(7, p.GenerationBytes())
	enc, _ := NewEncoder(p, src, 7)
	coded := make([]CodedBlock, p.GenerationBlocks)
	for i := range coded {
		coded[i] = enc.Coded()
	}

	// Add first -> incremental engine; AddBatch must fold into it.
	d1, _ := NewDecoder(p)
	if _, err := d1.Add(coded[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.AddBatch(coded[1:]); err != nil {
		t.Fatal(err)
	}
	if d1.def != nil {
		t.Fatal("AddBatch after Add must not create the deferred engine")
	}

	// AddBatch first -> deferred engine; Add must fold into it.
	d2, _ := NewDecoder(p)
	if _, err := d2.AddBatch(coded[:1]); err != nil {
		t.Fatal(err)
	}
	for _, cb := range coded[1:] {
		if _, err := d2.Add(cb); err != nil {
			t.Fatal(err)
		}
	}
	if d2.b != nil {
		t.Fatal("Add after AddBatch must not create the incremental basis")
	}

	g1, err := d1.Generation()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := d2.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g1, src) || !bytes.Equal(g2, src) {
		t.Fatal("mixed-call decoders did not recover the source")
	}
}

func TestAddBatchValidates(t *testing.T) {
	d, _ := NewDecoder(testParams())
	if _, err := d.AddBatch([]CodedBlock{{Coeffs: make([]byte, 3), Payload: make([]byte, 32)}}); err == nil {
		t.Fatal("bad coefficient length must fail")
	}
	if _, err := d.AddBatch([]CodedBlock{{Coeffs: make([]byte, 4), Payload: make([]byte, 31)}}); err == nil {
		t.Fatal("bad payload length must fail")
	}
	if d.Rank() != 0 {
		t.Fatal("failed batch must not change rank")
	}
}

// TestDecoderAddBatchZeroAlloc: once the deferred engine exists, absorbing
// batches allocates nothing.
func TestDecoderAddBatchZeroAlloc(t *testing.T) {
	p := testParams()
	enc, _ := NewEncoder(p, randomData(8, p.GenerationBytes()), 8)
	batch := make([]CodedBlock, 2)
	for i := range batch {
		batch[i] = enc.Coded()
	}
	d, _ := NewDecoder(p)
	if _, err := d.AddBatch(batch[:1]); err != nil { // create the engine
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AddBatch allocated %.1f times per run, want 0", allocs)
	}
}

// TestEncoderCodedIntoZeroAlloc: the send side reuses the emission block's
// backing arrays.
func TestEncoderCodedIntoZeroAlloc(t *testing.T) {
	p := testParams()
	enc, _ := NewEncoder(p, randomData(9, p.GenerationBytes()), 9)
	var cb CodedBlock
	enc.CodedInto(&cb) // size the buffers
	coeffsPtr, payloadPtr := &cb.Coeffs[0], &cb.Payload[0]
	allocs := testing.AllocsPerRun(100, func() {
		enc.CodedInto(&cb)
	})
	if allocs != 0 {
		t.Fatalf("CodedInto allocated %.1f times per run, want 0", allocs)
	}
	if &cb.Coeffs[0] != coeffsPtr || &cb.Payload[0] != payloadPtr {
		t.Fatal("CodedInto did not reuse the emission block's backing arrays")
	}
}

// TestCodedIntoMatchesDecoder: CodedInto emissions are decodable and carry
// coefficient vectors consistent with their payloads.
func TestCodedIntoMatchesDecoder(t *testing.T) {
	p := testParams()
	src := randomData(10, p.GenerationBytes())
	enc, _ := NewEncoder(p, src, 10)
	d, _ := NewDecoder(p)
	var cb CodedBlock
	for !d.Complete() {
		enc.CodedInto(&cb)
		if _, err := d.Add(cb.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("CodedInto stream did not decode to the source")
	}
}

func TestRecoderAddBatch(t *testing.T) {
	p := testParams()
	enc, _ := NewEncoder(p, randomData(11, p.GenerationBytes()), 11)
	blocks := make([]CodedBlock, p.GenerationBlocks+2)
	for i := range blocks {
		blocks[i] = enc.Coded()
	}
	r, _ := NewRecoder(p, 11)
	innov, err := r.AddBatch(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if innov != p.GenerationBlocks || r.Stored() != p.GenerationBlocks {
		t.Fatalf("AddBatch: %d innovative, stored %d; want %d", innov, r.Stored(), p.GenerationBlocks)
	}
	// Recoded output from the raw span must still decode to the source.
	d, _ := NewDecoder(p)
	for !d.Complete() {
		cb, ok := r.Recode()
		if !ok {
			t.Fatal("recoder has data but emitted nothing")
		}
		if _, err := d.Add(cb); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDecoderTakeWork(t *testing.T) {
	p := testParams()
	enc, _ := NewEncoder(p, randomData(12, p.GenerationBytes()), 12)
	coded := make([]CodedBlock, p.GenerationBlocks)
	for i := range coded {
		coded[i] = enc.Coded()
	}
	if enc.TakeWork() == 0 {
		t.Fatal("encoder reported no work after coding")
	}
	if enc.TakeWork() != 0 {
		t.Fatal("TakeWork must reset the counter")
	}
	d, _ := NewDecoder(p)
	if _, err := d.AddBatch(coded); err != nil {
		t.Fatal(err)
	}
	ingest := d.TakeWork()
	if ingest == 0 {
		t.Fatal("deferred decoder reported no ingest work")
	}
	if _, err := d.Generation(); err != nil {
		t.Fatal(err)
	}
	if d.TakeWork() == 0 {
		t.Fatal("finalize work was not recorded")
	}
	if d.TakeWork() != 0 {
		t.Fatal("TakeWork must reset the counter")
	}
}

// BenchmarkDecoderBatch decodes one full generation through the deferred
// engine (AddBatch + one blocked inverse/multiply), the structure the Fig 4
// large-generation sweep exercises.
func BenchmarkDecoderBatch(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		p := Params{GenerationBlocks: k, BlockSize: DefaultBlockSize}
		enc, _ := NewEncoder(p, randomData(13, p.GenerationBytes()), 13)
		blocks := make([]CodedBlock, k+1)
		for i := range blocks {
			blocks[i] = enc.Coded()
		}
		b.Run(fmt.Sprintf("deferred/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(p.GenerationBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _ := NewDecoder(p)
				if _, err := d.AddBatch(blocks); err != nil {
					b.Fatal(err)
				}
				if _, err := d.Generation(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("incremental/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(p.GenerationBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _ := NewDecoder(p)
				for j := range blocks {
					if _, err := d.Add(blocks[j]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := d.Generation(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeCodedInto measures the allocation-free fused-gather
// emission path against the allocating Coded.
func BenchmarkEncodeCodedInto(b *testing.B) {
	p := DefaultParams()
	enc, _ := NewEncoder(p, randomData(14, p.GenerationBytes()), 14)
	var cb CodedBlock
	b.SetBytes(int64(p.BlockSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.CodedInto(&cb)
	}
}

// TestStateBytesMatchesArenas holds the estimate to what the deferred
// engines allocate — payload rows at their padded stride included — so the
// dataplane_session_bytes gauge cannot drift from the arenas it stands for:
// a decoder retains exactly StateBytes, a recoder that less the decoded
// arena.
func TestStateBytesMatchesArenas(t *testing.T) {
	for _, p := range []Params{{GenerationBlocks: 4, BlockSize: 1460}, {GenerationBlocks: 64, BlockSize: 1460},
		{GenerationBlocks: 4, BlockSize: 256}, {GenerationBlocks: 16, BlockSize: 1024}, {GenerationBlocks: 2, BlockSize: 8}} {
		spanBytes := func(s *rawSpan) int { return cap(s.arenaC) + cap(s.arenaP) + cap(s.arenaR) }
		def := newDeferred(p.GenerationBlocks, p.BlockSize)
		if got := spanBytes(def.span) + cap(def.arenaD); got != p.StateBytes() {
			t.Errorf("%+v: a decoder's arenas hold %d bytes, StateBytes says %d", p, got, p.StateBytes())
		}
		rec, err := NewRecoder(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := spanBytes(rec.span), p.StateBytes()-cap(def.arenaD); got != want {
			t.Errorf("%+v: a recoder's arenas hold %d bytes, StateBytes less the %d of a decoded arena says %d",
				p, got, cap(def.arenaD), want)
		}
		stride := rowStride(p.BlockSize)
		if stride%64 != 0 || stride < p.BlockSize || stride >= p.BlockSize+64 {
			t.Errorf("%+v: row stride %d is not the block size rounded up to 64", p, stride)
		}
		for i, row := range def.span.rawP {
			row[0] = byte(i + 1) // found again in the arena: that is where the row is
			if def.span.arenaP[i*stride] != byte(i+1) || len(row) != p.BlockSize || cap(row) != p.BlockSize {
				t.Errorf("%+v: payload row %d is not the %d bytes at %d x the stride", p, i, p.BlockSize, i)
			}
		}
	}
}

// TestDeferredDecodeAllocsPerGeneration pins what a recycled decoder still
// allocates per generation: the eight of InverseBlocked (augmented matrix,
// inverse, elimination scratch) and Generation's result — none for the
// multiply or for wrapping the arenas.
func TestDeferredDecodeAllocsPerGeneration(t *testing.T) {
	p := Params{GenerationBlocks: 16, BlockSize: 256}
	enc, _ := NewEncoder(p, randomData(30, p.GenerationBytes()), 30)
	batch := make([]CodedBlock, p.GenerationBlocks+2)
	for i := range batch {
		batch[i] = enc.Coded()
	}
	d, _ := NewDecoder(p)
	allocs := testing.AllocsPerRun(20, func() {
		d.Reset()
		if _, err := d.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Generation(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 9 {
		t.Fatalf("a deferred decode allocated %.1f times per generation, want at most 9", allocs)
	}
}
