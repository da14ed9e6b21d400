package rlnc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ncfn/internal/gf"
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

// TestAddBatchMatchesIncremental holds a relay's gate and a sink's decoder to
// one verdict: a Recoder (rawSpan: elimination on coefficients only, raw
// rows kept) and a Decoder (basis: full elimination) fed the same arrivals
// under loss, duplication and reordering must call the same packets
// innovative, packet by packet, and the decoder must return the source
// bytes. A second decoder takes the arrivals through AddBatch, which is the
// loop over the same insert, and must count and decode the same. The
// k ∈ {1, 7, 64, 65} cases straddle a 64-coefficient word in both fields.
func TestAddBatchMatchesIncremental(t *testing.T) {
	type diffCase struct {
		name         string
		k, blockSize int
		lossPct      int
		dupPct       int
		batch        int
		seed         int64
		field        gf.Field
	}
	cases := []diffCase{
		{"clean/k=4", 4, 32, 0, 0, 1, 100, gf.GF256},
		{"loss/k=4", 4, 32, 30, 0, 2, 101, gf.GF256},
		{"dup/k=4", 4, 32, 0, 40, 3, 102, gf.GF256},
		{"loss+dup/k=8", 8, 64, 20, 30, 4, 103, gf.GF256},
		{"paper/k=4", 4, 1460, 10, 10, 8, 104, gf.GF256},
		{"large/k=64", 64, 256, 15, 15, 16, 105, gf.GF256},
		{"gf2/k=8", 8, 32, 10, 25, 4, 106, gf.GF2},
	}
	for _, k := range []int{1, 7, 64, 65} {
		for _, f := range []gf.Field{gf.GF256, gf.GF2} {
			cases = append(cases, diffCase{fmt.Sprintf("%v/k=%d", f, k), k, 96 + k%8, 20, 25, 5, int64(200 + k), f})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{GenerationBlocks: tc.k, BlockSize: tc.blockSize, Field: tc.field}
			rng := rand.New(rand.NewSource(tc.seed))
			src := randomData(tc.seed, p.GenerationBytes())
			enc, err := NewEncoder(p, src, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			// Enough redundancy to survive the configured loss, and GF(2)'s
			// dependent draws.
			coded := make([]CodedBlock, 4*tc.k+16)
			for i := range coded {
				coded[i] = enc.Coded()
			}
			stream := corruptStream(rng, coded, tc.lossPct, tc.dupPct)

			gate, _ := NewRecoder(p, tc.seed)
			dec, _ := NewDecoder(p)
			batched, _ := NewDecoder(p)
			for off := 0; off < len(stream); off += tc.batch {
				run := stream[off:min(off+tc.batch, len(stream))]
				wantInnov := 0
				for i, cb := range run {
					ok, err := dec.Add(cb)
					if err != nil {
						t.Fatal(err)
					}
					n, err := gate.AddBatch(run[i : i+1])
					if err != nil {
						t.Fatal(err)
					}
					if ok != (n == 1) {
						t.Fatalf("packet %d: decoder says innovative=%v, the recoder's gate stored %d", off+i, ok, n)
					}
					if ok {
						wantInnov++
					}
				}
				gotInnov, err := batched.AddBatch(run)
				if err != nil {
					t.Fatal(err)
				}
				if gotInnov != wantInnov {
					t.Fatalf("batch at %d: AddBatch reported %d innovative, Add %d", off, gotInnov, wantInnov)
				}
				if dec.Rank() != gate.Stored() || dec.Useless() != gate.Useless() ||
					dec.Rank() != batched.Rank() || dec.Useless() != batched.Useless() {
					t.Fatalf("batch at %d: rank/useless diverged: decoder %d/%d, gate %d/%d, batched %d/%d", off,
						dec.Rank(), dec.Useless(), gate.Stored(), gate.Useless(), batched.Rank(), batched.Useless())
				}
			}
			if !dec.Complete() {
				t.Fatalf("stream did not complete the generation (rank %d/%d); raise redundancy", dec.Rank(), tc.k)
			}
			for _, d := range []*Decoder{dec, batched} {
				got, err := d.Generation()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, src) {
					t.Fatal("decoded generation differs from source")
				}
			}
		})
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

// TestDecoderAddBatchZeroAlloc: absorbing batches allocates nothing, in
// either field.
func TestDecoderAddBatchZeroAlloc(t *testing.T) {
	for _, p := range []Params{testParams(), gf2Params(65, 1460)} {
		enc, _ := NewEncoder(p, randomData(8, p.GenerationBytes()), 8)
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
			t.Fatalf("%v: AddBatch allocated %.1f times per run, want 0", p.field(), allocs)
		}
	}
}

// TestEncoderCodedIntoZeroAlloc: the send side reuses the emission block's
// backing arrays, in either field.
func TestEncoderCodedIntoZeroAlloc(t *testing.T) {
	for _, p := range []Params{testParams(), gf2Params(65, 1460)} {
		enc, _ := NewEncoder(p, randomData(9, p.GenerationBytes()), 9)
		var cb CodedBlock
		enc.CodedInto(&cb) // size the buffers
		coeffsPtr, payloadPtr := &cb.Coeffs[0], &cb.Payload[0]
		allocs := testing.AllocsPerRun(100, func() {
			enc.CodedInto(&cb)
		})
		if allocs != 0 {
			t.Fatalf("%v: CodedInto allocated %.1f times per run, want 0", p.field(), allocs)
		}
		if &cb.Coeffs[0] != coeffsPtr || &cb.Payload[0] != payloadPtr {
			t.Fatalf("%v: CodedInto did not reuse the emission block's backing arrays", p.field())
		}
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
	if d.TakeWork() == 0 {
		t.Fatal("decoder reported no work after a full generation")
	}
	if d.TakeWork() != 0 {
		t.Fatal("TakeWork must reset the counter")
	}
}

// benchRowShapes are the two kinds of arrivals the decode benchmarks feed.
// dense is enc.Coded(): every coefficient random, none zero — what a
// benchmark reaches for first and what no source in this repository emits.
// butterfly is what a sink of the butterfly hears: half the generation
// directly and systematic, the rest as recodes from a relay that saw only
// the other half, so most coefficients are zero. Measured at the sinks of
// the whole-system benchmark the zero share is 41 % on inproc-k64, 32 % on
// procs-k16 and 17 % on inproc-k4 (every caller sets Systematic and each
// relay recodes over the subset of columns it saw). Elimination skips a zero
// coefficient; a matrix inverse and multiply do not. Measuring dense rows
// alone once chose a batched inverse that was slower on all of that traffic.
var benchRowShapes = []string{"dense", "butterfly"}

// benchRows returns n arrivals of one generation in the given shape.
func benchRows(b *testing.B, p Params, shape string, n int) []CodedBlock {
	b.Helper()
	enc, err := NewEncoder(p, randomData(13, p.GenerationBytes()), 13)
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([]CodedBlock, 0, n)
	if shape == "dense" {
		for len(blocks) < n {
			blocks = append(blocks, enc.Coded())
		}
		return blocks
	}
	relay, err := NewRecoder(p, 13)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < p.GenerationBlocks; i++ {
		cb, _ := enc.Systematic()
		if i < p.GenerationBlocks/2 {
			blocks = append(blocks, cb)
		} else if err := relay.Add(cb); err != nil {
			b.Fatal(err)
		}
	}
	for len(blocks) < n {
		cb, _ := relay.Recode()
		blocks = append(blocks, cb)
	}
	return blocks
}

// benchDecode decodes blocks on d, reset each time, as the data plane does:
// AddBatch in shard-drain-sized runs until complete, then the first block.
func benchDecode(b *testing.B, d *Decoder, blocks []CodedBlock) {
	b.SetBytes(int64(d.params.GenerationBytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Reset()
		for off := 0; off < len(blocks) && !d.Complete(); off += 8 {
			if _, err := d.AddBatch(blocks[off:min(off+8, len(blocks))]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := d.Block(0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFields is the field axis of the codec benchmarks: the same engines
// fed 0/1 coefficients under gf2.
var benchFields = []struct {
	name  string
	field gf.Field
}{{"gf256", gf.GF256}, {"gf2", gf.GF2}}

// BenchmarkDecoderBatch decodes one full generation at the Fig 4 sweep
// sizes, in both fields and both row shapes.
func BenchmarkDecoderBatch(b *testing.B) {
	for _, f := range benchFields {
		for _, shape := range benchRowShapes {
			for _, k := range []int{4, 16, 64} {
				p := Params{GenerationBlocks: k, BlockSize: DefaultBlockSize, Field: f.field}
				n := k + 1
				if f.field == gf.GF2 {
					n = 2*k + 16 // extra rows absorb dependent GF(2) combinations
				}
				blocks := benchRows(b, p, shape, n)
				b.Run(fmt.Sprintf("%s/%s/k=%d", f.name, shape, k), func(b *testing.B) {
					d, _ := NewDecoder(p)
					benchDecode(b, d, blocks)
				})
			}
		}
	}
}

// BenchmarkEncodeCodedInto measures the allocation-free fused-gather
// emission path, in both fields.
func BenchmarkEncodeCodedInto(b *testing.B) {
	for _, f := range benchFields {
		for _, k := range []int{4, 16, 64} {
			p := Params{GenerationBlocks: k, BlockSize: DefaultBlockSize, Field: f.field}
			enc, _ := NewEncoder(p, randomData(14, p.GenerationBytes()), 14)
			var cb CodedBlock
			b.Run(fmt.Sprintf("%s/k=%d", f.name, k), func(b *testing.B) {
				b.SetBytes(int64(p.BlockSize))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					enc.CodedInto(&cb)
				}
			})
		}
	}
}

// TestStateBytesMatchesArenas holds the estimate to what the engines
// allocate, so the dataplane_session_bytes gauge cannot drift from the arenas
// it stands for: StateBytes is the summed capacity of a fresh Decoder's
// arenas or of a fresh Recoder's, whichever is larger.
func TestStateBytesMatchesArenas(t *testing.T) {
	for _, p := range []Params{{GenerationBlocks: 4, BlockSize: 1460}, {GenerationBlocks: 64, BlockSize: 1460},
		{GenerationBlocks: 4, BlockSize: 256}, {GenerationBlocks: 16, BlockSize: 1024}, {GenerationBlocks: 2, BlockSize: 8},
		gf2Params(4, 1460), gf2Params(64, 1460), gf2Params(200, 8)} {
		dec, err := NewDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecoder(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		decBytes := cap(dec.b.arenaC) + cap(dec.b.arenaP)
		recBytes := cap(rec.span.arenaC) + cap(rec.span.arenaP) + cap(rec.span.arenaR)
		if got := p.StateBytes(); got != max(decBytes, recBytes) {
			t.Errorf("%+v: a decoder's arenas hold %d bytes and a recoder's %d, StateBytes says %d", p, decBytes, recBytes, got)
		}
		stride := rowStride(p.BlockSize)
		if stride%64 != 0 || stride < p.BlockSize || stride >= p.BlockSize+64 {
			t.Errorf("%+v: row stride %d is not the block size rounded up to 64", p, stride)
		}
		for i, row := range rec.span.rawP {
			row[0] = byte(i + 1) // found again in the arena: that is where the row is
			if rec.span.arenaP[i*stride] != byte(i+1) || len(row) != p.BlockSize || cap(row) != p.BlockSize {
				t.Errorf("%+v: payload row %d is not the %d bytes at %d x the stride", p, i, p.BlockSize, i)
			}
		}
	}
}

// TestDecodeAllocsPerGeneration pins what a recycled decoder allocates per
// generation, in both fields: nothing from Reset through AddBatch to full
// rank, and Generation's result slice after.
func TestDecodeAllocsPerGeneration(t *testing.T) {
	for _, p := range []Params{{GenerationBlocks: 16, BlockSize: 256}, gf2Params(16, 256)} {
		enc, _ := NewEncoder(p, randomData(30, p.GenerationBytes()), 30)
		batch := make([]CodedBlock, 3*p.GenerationBlocks)
		for i := range batch {
			batch[i] = enc.Coded()
		}
		d, _ := NewDecoder(p)
		fill := func() {
			d.Reset()
			if _, err := d.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			if !d.Complete() {
				t.Fatalf("%v: %d blocks left the generation at rank %d", p.field(), len(batch), d.Rank())
			}
		}
		if allocs := testing.AllocsPerRun(20, fill); allocs != 0 {
			t.Errorf("%v: Reset + AddBatch to full rank allocated %.1f times, want 0", p.field(), allocs)
		}
		allocs := testing.AllocsPerRun(20, func() {
			fill()
			if _, err := d.Generation(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%v: a decode allocated %.1f times per generation, want 1 (Generation's result)", p.field(), allocs)
		}
	}
}
