package rlnc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ncfn/internal/gf"
)

func testParams() Params {
	return Params{GenerationBlocks: 4, BlockSize: 32}
}

func gf2Params(k, blockSize int) Params {
	return Params{GenerationBlocks: k, BlockSize: blockSize, Field: gf.GF2}
}

func randomData(seed int64, n int) []byte {
	d := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(d)
	return d
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.GenerationBlocks != 4 || p.BlockSize != 1460 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// NC header (8 + 4 coeffs) + UDP (8) + IP (20) + block = 1500.
	if 12+8+20+p.BlockSize != 1500 {
		t.Fatal("default block size does not fill the MTU as in the paper")
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []Params{
		{GenerationBlocks: 0, BlockSize: 10},
		{GenerationBlocks: 256, BlockSize: 10},
		{GenerationBlocks: -1, BlockSize: 10},
		{GenerationBlocks: 4, BlockSize: 0},
		{GenerationBlocks: 4, BlockSize: -5},
		{GenerationBlocks: 4, BlockSize: 10, Field: gf.Field(99)},
	}
	for i, p := range cases {
		if err := p.Validate(); !errors.Is(err, ErrParams) {
			t.Errorf("case %d: err = %v, want ErrParams", i, err)
		}
	}
}

func TestGenerationBytes(t *testing.T) {
	if got := testParams().GenerationBytes(); got != 128 {
		t.Fatalf("GenerationBytes = %d, want 128", got)
	}
}

func TestEncodeDecodeCodedOnly(t *testing.T) {
	p := testParams()
	data := randomData(1, p.GenerationBytes())
	enc, err := NewEncoder(p, data, 42)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Complete() {
		if _, err := dec.Add(enc.Coded()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decoded generation differs from source")
	}
}

func TestEncodeDecodeSystematic(t *testing.T) {
	p := testParams()
	data := randomData(2, p.GenerationBytes())
	enc, _ := NewEncoder(p, data, 1)
	dec, _ := NewDecoder(p)
	count := 0
	for {
		cb, ok := enc.Systematic()
		if !ok {
			break
		}
		count++
		innovative, err := dec.Add(cb)
		if err != nil {
			t.Fatal(err)
		}
		if !innovative {
			t.Fatal("systematic block not innovative")
		}
	}
	if count != p.GenerationBlocks {
		t.Fatalf("systematic emitted %d blocks, want %d", count, p.GenerationBlocks)
	}
	got, err := dec.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("systematic round-trip mismatch")
	}
}

func TestDecodeWithLoss(t *testing.T) {
	// Drop every other coded packet; decoding must still complete from the
	// survivors since every coded packet is (w.h.p.) innovative.
	p := testParams()
	data := randomData(3, p.GenerationBytes())
	enc, _ := NewEncoder(p, data, 7)
	dec, _ := NewDecoder(p)
	i := 0
	for !dec.Complete() {
		cb := enc.Coded()
		if i%2 == 0 { // drop
			i++
			continue
		}
		i++
		if _, err := dec.Add(cb); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := dec.Generation()
	if !bytes.Equal(got, data) {
		t.Fatal("decode-with-loss mismatch")
	}
}

func TestShortGenerationZeroPadded(t *testing.T) {
	p := testParams()
	data := randomData(4, 50) // less than 128
	enc, _ := NewEncoder(p, data, 3)
	dec, _ := NewDecoder(p)
	for !dec.Complete() {
		if _, err := dec.Add(enc.Coded()); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := dec.Generation()
	if !bytes.Equal(got[:50], data) {
		t.Fatal("short generation data mismatch")
	}
	for _, b := range got[50:] {
		if b != 0 {
			t.Fatal("padding not zero")
		}
	}
}

func TestEncoderRejectsOversizedData(t *testing.T) {
	p := testParams()
	if _, err := NewEncoder(p, make([]byte, p.GenerationBytes()+1), 0); !errors.Is(err, ErrParams) {
		t.Fatalf("err = %v, want ErrParams", err)
	}
}

func TestEncoderRejectsBadParams(t *testing.T) {
	if _, err := NewEncoder(Params{}, nil, 0); !errors.Is(err, ErrParams) {
		t.Fatalf("err = %v, want ErrParams", err)
	}
}

func TestDecoderRejectsBadParams(t *testing.T) {
	if _, err := NewDecoder(Params{GenerationBlocks: -1, BlockSize: 4}); !errors.Is(err, ErrParams) {
		t.Fatal("bad params accepted")
	}
}

func TestDecoderRejectsWrongLengths(t *testing.T) {
	p := testParams()
	dec, _ := NewDecoder(p)
	if _, err := dec.Add(CodedBlock{Coeffs: []byte{1}, Payload: make([]byte, p.BlockSize)}); !errors.Is(err, ErrParams) {
		t.Fatal("short coeffs accepted")
	}
	if _, err := dec.Add(CodedBlock{Coeffs: make([]byte, 4), Payload: make([]byte, 5)}); !errors.Is(err, ErrParams) {
		t.Fatal("short payload accepted")
	}
}

func TestDecoderDuplicateNotInnovative(t *testing.T) {
	p := testParams()
	data := randomData(5, p.GenerationBytes())
	enc, _ := NewEncoder(p, data, 9)
	dec, _ := NewDecoder(p)
	cb := enc.Coded()
	if ok, _ := dec.Add(cb); !ok {
		t.Fatal("first block should be innovative")
	}
	if ok, _ := dec.Add(cb.Clone()); ok {
		t.Fatal("duplicate block must not be innovative")
	}
	if dec.Useless() != 1 {
		t.Fatalf("Useless = %d, want 1", dec.Useless())
	}
}

func TestDecoderScaledDuplicateNotInnovative(t *testing.T) {
	p := testParams()
	enc, _ := NewEncoder(p, randomData(6, p.GenerationBytes()), 11)
	dec, _ := NewDecoder(p)
	cb := enc.Coded()
	dec.Add(cb)
	scaled := cb.Clone()
	gf.MulSlice(scaled.Coeffs, scaled.Coeffs, 17)
	gf.MulSlice(scaled.Payload, scaled.Payload, 17)
	if ok, _ := dec.Add(scaled); ok {
		t.Fatal("scaled duplicate must not be innovative")
	}
}

func TestDecoderIncompleteErrors(t *testing.T) {
	p := testParams()
	dec, _ := NewDecoder(p)
	if _, err := dec.Generation(); err == nil {
		t.Fatal("Generation on empty decoder must fail")
	}
	if _, err := dec.Block(0); err == nil {
		t.Fatal("Block on empty decoder must fail")
	}
}

func TestDecoderBlockIndexBounds(t *testing.T) {
	p := testParams()
	data := randomData(7, p.GenerationBytes())
	enc, _ := NewEncoder(p, data, 13)
	dec, _ := NewDecoder(p)
	for !dec.Complete() {
		dec.Add(enc.Coded())
	}
	if _, err := dec.Block(-1); !errors.Is(err, ErrParams) {
		t.Fatal("negative index accepted")
	}
	if _, err := dec.Block(p.GenerationBlocks); !errors.Is(err, ErrParams) {
		t.Fatal("out-of-range index accepted")
	}
	b0, err := dec.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b0, data[:p.BlockSize]) {
		t.Fatal("Block(0) mismatch")
	}
}

func TestRecoderPreservesDecodability(t *testing.T) {
	// source -> recoder -> decoder must still deliver the generation.
	p := testParams()
	data := randomData(8, p.GenerationBytes())
	enc, _ := NewEncoder(p, data, 17)
	rec, _ := NewRecoder(p, 19)
	dec, _ := NewDecoder(p)
	for i := 0; i < p.GenerationBlocks+2; i++ {
		if err := rec.Add(enc.Coded()); err != nil {
			t.Fatal(err)
		}
	}
	for guard := 0; !dec.Complete(); guard++ {
		if guard > 100 {
			t.Fatal("recoded stream did not decode within 100 packets")
		}
		cb, ok := rec.Recode()
		if !ok {
			t.Fatal("Recode returned nothing despite stored blocks")
		}
		dec.Add(cb)
	}
	got, _ := dec.Generation()
	if !bytes.Equal(got, data) {
		t.Fatal("recode path corrupted data")
	}
}

func TestRecoderEmptyReturnsFalse(t *testing.T) {
	rec, _ := NewRecoder(testParams(), 0)
	if _, ok := rec.Recode(); ok {
		t.Fatal("Recode on empty recoder returned a block")
	}
}

func TestRecoderRejectsWrongLengths(t *testing.T) {
	p := testParams()
	rec, _ := NewRecoder(p, 0)
	if err := rec.Add(CodedBlock{Coeffs: []byte{1}, Payload: make([]byte, p.BlockSize)}); !errors.Is(err, ErrParams) {
		t.Fatal("short coeffs accepted")
	}
	if err := rec.Add(CodedBlock{Coeffs: make([]byte, 4), Payload: []byte{1}}); !errors.Is(err, ErrParams) {
		t.Fatal("short payload accepted")
	}
}

func TestRecoderRankLimited(t *testing.T) {
	// If the recoder only ever saw 2 independent blocks, no amount of
	// recoding can raise the decoder past rank 2.
	p := testParams()
	enc, _ := NewEncoder(p, randomData(9, p.GenerationBytes()), 23)
	rec, _ := NewRecoder(p, 29)
	dec, _ := NewDecoder(p)
	rec.Add(enc.Coded())
	rec.Add(enc.Coded())
	for i := 0; i < 50; i++ {
		cb, _ := rec.Recode()
		dec.Add(cb)
	}
	if dec.Rank() > 2 {
		t.Fatalf("decoder rank %d exceeds information received (2)", dec.Rank())
	}
}

func TestMultiHopRecodeChain(t *testing.T) {
	// source -> recoder -> recoder -> decoder, exercising a relay chain.
	p := testParams()
	data := randomData(10, p.GenerationBytes())
	enc, _ := NewEncoder(p, data, 31)
	rec1, _ := NewRecoder(p, 37)
	rec2, _ := NewRecoder(p, 41)
	dec, _ := NewDecoder(p)
	for i := 0; i < p.GenerationBlocks+1; i++ {
		rec1.Add(enc.Coded())
	}
	for i := 0; i < p.GenerationBlocks+2; i++ {
		cb, _ := rec1.Recode()
		rec2.Add(cb)
	}
	for guard := 0; !dec.Complete(); guard++ {
		if guard > 200 {
			t.Fatal("two-hop recode chain did not decode")
		}
		cb, _ := rec2.Recode()
		dec.Add(cb)
	}
	got, _ := dec.Generation()
	if !bytes.Equal(got, data) {
		t.Fatal("two-hop recode mismatch")
	}
}

func TestGF2DecodingEventuallyCompletes(t *testing.T) {
	p := Params{GenerationBlocks: 4, BlockSize: 16, Field: gf.GF2}
	data := randomData(11, p.GenerationBytes())
	enc, err := NewEncoder(p, data, 43)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := NewDecoder(p)
	sent := 0
	for !dec.Complete() {
		if sent > 1000 {
			t.Fatal("GF(2) decoding did not complete in 1000 packets")
		}
		dec.Add(enc.Coded())
		sent++
	}
	got, _ := dec.Generation()
	if !bytes.Equal(got, data) {
		t.Fatal("GF(2) round-trip mismatch")
	}
}

func TestGF2MoreUselessThanGF256(t *testing.T) {
	// Property from Sec. III-B: small fields suffer more linear dependency.
	packetsToComplete := func(field gf.Field, seed int64) int {
		p := Params{GenerationBlocks: 8, BlockSize: 8, Field: field}
		enc, _ := NewEncoder(p, randomData(seed, p.GenerationBytes()), seed)
		dec, _ := NewDecoder(p)
		n := 0
		for !dec.Complete() && n < 1000 {
			dec.Add(enc.Coded())
			n++
		}
		return n
	}
	totGF2, totGF256 := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		totGF2 += packetsToComplete(gf.GF2, seed)
		totGF256 += packetsToComplete(gf.GF256, seed)
	}
	if totGF2 <= totGF256 {
		t.Fatalf("GF(2) needed %d packets total, should exceed GF(2^8)'s %d", totGF2, totGF256)
	}
}

// TestGF2DrawsNeverAllZero: neither the encoder nor the recoder may emit an
// all-zero coefficient vector, even at k = 1 where GF(2) draws go all-zero
// with probability 1/2 per attempt.
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

func TestSplitGenerations(t *testing.T) {
	p := testParams() // 128 bytes per generation
	data := randomData(12, 300)
	gens := SplitGenerations(p, data)
	if len(gens) != 3 {
		t.Fatalf("got %d generations, want 3", len(gens))
	}
	if len(gens[0]) != 128 || len(gens[1]) != 128 || len(gens[2]) != 44 {
		t.Fatalf("generation sizes %d,%d,%d", len(gens[0]), len(gens[1]), len(gens[2]))
	}
	var whole []byte
	for _, g := range gens {
		whole = append(whole, g...)
	}
	if !bytes.Equal(whole, data) {
		t.Fatal("SplitGenerations lost data")
	}
}

func TestSplitGenerationsEmpty(t *testing.T) {
	if gens := SplitGenerations(testParams(), nil); gens != nil {
		t.Fatal("empty input should produce no generations")
	}
}

func TestCodedBlockCloneIndependent(t *testing.T) {
	cb := CodedBlock{Coeffs: []byte{1, 2}, Payload: []byte{3, 4}}
	c := cb.Clone()
	c.Coeffs[0] = 99
	c.Payload[0] = 99
	if cb.Coeffs[0] != 1 || cb.Payload[0] != 3 {
		t.Fatal("Clone shares storage")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	// For random generation shapes and data, coded-only transmission
	// recovers the source exactly.
	f := func(seed int64, kRaw, szRaw uint8) bool {
		k := int(kRaw)%12 + 1
		sz := int(szRaw)%64 + 1
		p := Params{GenerationBlocks: k, BlockSize: sz}
		data := randomData(seed, p.GenerationBytes())
		enc, err := NewEncoder(p, data, seed+1)
		if err != nil {
			return false
		}
		dec, err := NewDecoder(p)
		if err != nil {
			return false
		}
		for i := 0; i < 50*k && !dec.Complete(); i++ {
			dec.Add(enc.Coded())
		}
		if !dec.Complete() {
			return false
		}
		got, err := dec.Generation()
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRankNeverExceedsK(t *testing.T) {
	f := func(seed int64) bool {
		p := testParams()
		enc, _ := NewEncoder(p, randomData(seed, p.GenerationBytes()), seed)
		dec, _ := NewDecoder(p)
		for i := 0; i < 20; i++ {
			dec.Add(enc.Coded())
			if dec.Rank() > p.GenerationBlocks {
				return false
			}
		}
		return dec.Complete()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeCoded(b *testing.B) {
	p := DefaultParams()
	enc, _ := NewEncoder(p, randomData(1, p.GenerationBytes()), 1)
	b.SetBytes(int64(p.BlockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Coded()
	}
}

func BenchmarkDecodeGeneration(b *testing.B) {
	p := DefaultParams()
	enc, _ := NewEncoder(p, randomData(2, p.GenerationBytes()), 2)
	blocks := make([]CodedBlock, p.GenerationBlocks+1)
	for i := range blocks {
		blocks[i] = enc.Coded()
	}
	b.SetBytes(int64(p.GenerationBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, _ := NewDecoder(p)
		for _, cb := range blocks {
			if dec.Complete() {
				break
			}
			dec.Add(cb)
		}
	}
}

func BenchmarkRecode(b *testing.B) {
	p := DefaultParams()
	enc, _ := NewEncoder(p, randomData(3, p.GenerationBytes()), 3)
	rec, _ := NewRecoder(p, 4)
	for i := 0; i < p.GenerationBlocks; i++ {
		rec.Add(enc.Coded())
	}
	b.SetBytes(int64(p.BlockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Recode()
	}
}

func TestRecodeIntoReusesBuffers(t *testing.T) {
	p := DefaultParams()
	data := randomData(11, p.GenerationBytes())
	enc, err := NewEncoder(p, data, 11)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecoder(p, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.GenerationBlocks; i++ {
		if err := rec.Add(enc.Coded()); err != nil {
			t.Fatal(err)
		}
	}
	var cb CodedBlock
	if !rec.RecodeInto(&cb) {
		t.Fatal("RecodeInto returned false with buffered blocks")
	}
	c0, p0 := &cb.Coeffs[0], &cb.Payload[0]
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Complete() {
		if !rec.RecodeInto(&cb) {
			t.Fatal("RecodeInto returned false")
		}
		if &cb.Coeffs[0] != c0 || &cb.Payload[0] != p0 {
			t.Fatal("RecodeInto reallocated caller buffers that had capacity")
		}
		if _, err := dec.Add(cb); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recoded-into stream did not decode to the source data")
	}
}

func TestRecodeIntoEmpty(t *testing.T) {
	rec, err := NewRecoder(DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var cb CodedBlock
	if rec.RecodeInto(&cb) {
		t.Fatal("RecodeInto reported success with nothing buffered")
	}
}

// TestRecoderHotPathZeroAlloc pins the recoder's steady-state behavior, in
// either field: once a generation's basis and the caller's emission block
// exist, neither absorbing a packet (Add) nor emitting one (RecodeInto) may
// allocate.
func TestRecoderHotPathZeroAlloc(t *testing.T) {
	for _, p := range []Params{DefaultParams(), gf2Params(65, 1460)} {
		enc, err := NewEncoder(p, randomData(13, p.GenerationBytes()), 13)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecoder(p, 14)
		if err != nil {
			t.Fatal(err)
		}
		in := enc.Coded()
		var out CodedBlock
		if allocs := testing.AllocsPerRun(100, func() {
			if err := rec.Add(in); err != nil {
				t.Fatal(err)
			}
			if !rec.RecodeInto(&out) {
				t.Fatal("RecodeInto returned false")
			}
		}); allocs != 0 {
			t.Fatalf("%v: recoder hot path allocated %.1f times per packet, want 0", p.field(), allocs)
		}
	}
}

// TestDecoderAddZeroAlloc pins the decoder's steady-state behavior, in either
// field: with the basis arena preallocated, absorbing a packet never
// allocates, innovative or not.
func TestDecoderAddZeroAlloc(t *testing.T) {
	for _, p := range []Params{DefaultParams(), gf2Params(65, 1460)} {
		enc, err := NewEncoder(p, randomData(15, p.GenerationBytes()), 15)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		blocks := make([]CodedBlock, 2*p.GenerationBlocks)
		for i := range blocks {
			blocks[i] = enc.Coded()
		}
		i := 0
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := dec.Add(blocks[i%len(blocks)]); err != nil {
				t.Fatal(err)
			}
			i++
		}); allocs != 0 {
			t.Fatalf("%v: Decoder.Add allocated %.1f times per packet, want 0", p.field(), allocs)
		}
	}
}

// TestRecoderBoundedUnderSustainedTraffic pins the rank-limited property:
// feeding far more packets than the generation size must not grow state or
// degrade emissions (the seed stored every packet and mixed all of them).
func TestRecoderBoundedUnderSustainedTraffic(t *testing.T) {
	p := DefaultParams()
	data := randomData(17, p.GenerationBytes())
	enc, err := NewEncoder(p, data, 17)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecoder(p, 18)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100*p.GenerationBlocks; i++ {
		if err := rec.Add(enc.Coded()); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Stored(); got > p.GenerationBlocks {
		t.Fatalf("Stored() = %d after sustained traffic, want <= %d", got, p.GenerationBlocks)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*p.GenerationBlocks && !dec.Complete(); i++ {
		cb, ok := rec.Recode()
		if !ok {
			t.Fatal("Recode returned false")
		}
		if _, err := dec.Add(cb); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recoded stream did not decode to the source data")
	}
}

// BenchmarkRecodeInto measures a relay's emission over a full span, in both
// fields.
func BenchmarkRecodeInto(b *testing.B) {
	for _, f := range benchFields {
		for _, k := range []int{4, 16, 64} {
			p := Params{GenerationBlocks: k, BlockSize: DefaultBlockSize, Field: f.field}
			enc, _ := NewEncoder(p, randomData(3, p.GenerationBytes()), 3)
			rec, _ := NewRecoder(p, 4)
			for i := 0; i < k; i++ {
				rec.Add(enc.Coded())
			}
			var cb CodedBlock
			b.Run(fmt.Sprintf("%s/k=%d", f.name, k), func(b *testing.B) {
				b.SetBytes(int64(p.BlockSize))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec.RecodeInto(&cb)
				}
			})
		}
	}
}

// TestSeedIndependence pins what seeding owes its callers, who hand out
// consecutive seeds (Seed+gid at a source, nextSeed++ at a relay): over 2^16
// consecutive seeds the first coefficient vectors collide no more often than
// random ones would, a million coefficients drawn 16 per seed are uniform,
// and so is the difference between the vectors of adjacent seeds — which a
// generator that took seed s+1 to be stream s one step on would fail.
func TestSeedIndependence(t *testing.T) {
	const seeds = 1 << 16
	// chi2 returns the chi-squared statistic of counts against a uniform
	// expectation; with d = len(counts)-1 degrees of freedom it has mean d
	// and deviation sqrt(2d), and the bound below is five deviations out.
	chi2OK := func(counts []int) (float64, bool) {
		total := 0
		for _, c := range counts {
			total += c
		}
		want := float64(total) / float64(len(counts))
		var x float64
		for _, c := range counts {
			x += (float64(c) - want) * (float64(c) - want) / want
		}
		d := float64(len(counts) - 1)
		return x, x < d+5*math.Sqrt(2*d)+5
	}
	for _, tc := range []struct {
		field     gf.Field
		k         int // vector length for the collision count: 32 bits of vector in GF(2^8), 64 in GF(2)
		maxRepeat int // expected repeats: 2^16 choose 2 / 2^32 = 0.5, and 2^-33
	}{{gf.GF256, 4, 6}, {gf.GF2, 64, 0}} {
		t.Run(tc.field.String(), func(t *testing.T) {
			vector := func(seed int64, n int) []byte {
				var rng prng
				rng.seed(seed)
				v := make([]byte, n)
				drawCoeffs(&rng, tc.field, v)
				return v
			}
			seen := make(map[string]bool, seeds)
			repeats := 0
			size := 256
			if tc.field == gf.GF2 {
				size = 2
			}
			values := make([]int, size)
			diffs := make([]int, size)
			for s := int64(1000); s < 1000+seeds; s++ {
				here, next := vector(s, 16), vector(s+1, 16)
				for i, c := range here {
					values[c]++
					diffs[c^next[i]]++
				}
				first := string(vector(s, tc.k))
				if seen[first] {
					repeats++
				}
				seen[first] = true
			}
			if repeats > tc.maxRepeat {
				t.Errorf("%d of %d consecutive seeds repeat an earlier first vector, want at most %d", repeats, seeds, tc.maxRepeat)
			}
			if x, ok := chi2OK(values); !ok {
				t.Errorf("coefficients drawn across consecutive seeds are not uniform: chi2 = %.1f on %d values", x, len(values))
			}
			if x, ok := chi2OK(diffs); !ok {
				t.Errorf("vectors of adjacent seeds are correlated: chi2 of their differences = %.1f on %d values", x, len(diffs))
			}
		})
	}
}
