package rlnc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ncfn/internal/gf"
)

func resetParamsSet() []Params {
	return []Params{
		{GenerationBlocks: 4, BlockSize: 64},
		{GenerationBlocks: 8, BlockSize: 32, Field: gf.GF2},
	}
}

func genData(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestDecoderResetEquivalence pins the arena-reuse contract: a Reset decoder
// must decode a generation to exactly the same bytes as a freshly
// constructed one, fed through Add or through AddBatch, in both fields.
func TestDecoderResetEquivalence(t *testing.T) {
	for _, params := range resetParamsSet() {
		for _, batched := range []bool{false, true} {
			name := fmt.Sprintf("field=%v/batched=%v", params.field(), batched)
			t.Run(name, func(t *testing.T) {
				feed := func(d *Decoder, seed int64) []byte {
					enc, err := NewEncoder(params, genData(seed, params.GenerationBytes()), seed)
					if err != nil {
						t.Fatal(err)
					}
					for !d.Complete() {
						cb := enc.Coded()
						if batched {
							if _, err := d.AddBatch([]CodedBlock{cb}); err != nil {
								t.Fatal(err)
							}
						} else {
							if _, err := d.Add(cb); err != nil {
								t.Fatal(err)
							}
						}
					}
					data, err := d.Generation()
					if err != nil {
						t.Fatal(err)
					}
					return append([]byte(nil), data...)
				}

				reused, err := NewDecoder(params)
				if err != nil {
					t.Fatal(err)
				}
				// Warm the arenas with one full generation, then reset and
				// decode a second, different generation through the same
				// engine state.
				feed(reused, 11)
				reused.Reset()
				if reused.Rank() != 0 || reused.Complete() {
					t.Fatalf("reset decoder not empty: rank %d", reused.Rank())
				}
				got := feed(reused, 22)

				fresh, err := NewDecoder(params)
				if err != nil {
					t.Fatal(err)
				}
				want := feed(fresh, 22)
				if !bytes.Equal(got, want) {
					t.Fatal("recycled decoder decoded different bytes than a fresh one")
				}
			})
		}
	}
}

// TestRecoderResetEquivalence pins that Reset(seed) is bit-identical to
// constructing a new recoder with that seed: same stored state, same
// emission stream. This is what lets the dataplane free lists recycle
// recoder arenas without changing a single emitted packet.
func TestRecoderResetEquivalence(t *testing.T) {
	for _, params := range resetParamsSet() {
		t.Run(fmt.Sprintf("field=%v", params.field()), func(t *testing.T) {
			const seed = 17
			emit := func(r *Recoder, encSeed int64) [][]byte {
				enc, err := NewEncoder(params, genData(encSeed, params.GenerationBytes()), encSeed)
				if err != nil {
					t.Fatal(err)
				}
				var out [][]byte
				for i := 0; i < params.GenerationBlocks; i++ {
					if err := r.Add(enc.Coded()); err != nil {
						t.Fatal(err)
					}
					cb, ok := r.Recode()
					if !ok {
						t.Fatal("recoder refused to emit")
					}
					buf := append([]byte(nil), cb.Coeffs...)
					out = append(out, append(buf, cb.Payload...))
				}
				return out
			}

			reused, err := NewRecoder(params, 3)
			if err != nil {
				t.Fatal(err)
			}
			emit(reused, 31) // dirty the arenas and advance the RNG
			reused.Reset(seed)
			if reused.Stored() != 0 {
				t.Fatalf("reset recoder stores %d rows, want 0", reused.Stored())
			}
			got := emit(reused, 32)

			fresh, err := NewRecoder(params, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := emit(fresh, 32)
			if len(got) != len(want) {
				t.Fatalf("emission counts differ: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("emission %d differs between reset and fresh recoders", i)
				}
			}
		})
	}
}

// TestEncoderResetEquivalence pins that Reset(data, seed) is bit-identical to
// NewEncoder(params, data, seed): same systematic blocks, same coded stream —
// after a longer generation dirtied the arena (a short one must come out
// zero-padded), the generator advanced, and part of the systematic phase was
// consumed. This is what lets a source keep one encoder for its session.
func TestEncoderResetEquivalence(t *testing.T) {
	for _, params := range resetParamsSet() {
		t.Run(fmt.Sprintf("field=%v", params.field()), func(t *testing.T) {
			const seed = 19
			emit := func(e *Encoder) [][]byte {
				var out [][]byte
				for i := 0; i < 2*params.GenerationBlocks+3; i++ {
					cb, ok := e.Systematic()
					if !ok {
						cb = e.Coded()
					}
					out = append(out, append(append([]byte(nil), cb.Coeffs...), cb.Payload...))
				}
				return out
			}
			for _, n := range []int{params.GenerationBytes(), params.GenerationBytes() - params.BlockSize - 5, 0} {
				data := genData(41, n)
				reused, err := NewEncoder(params, genData(40, params.GenerationBytes()), 3)
				if err != nil {
					t.Fatal(err)
				}
				emit(reused)
				if err := reused.Reset(data, seed); err != nil {
					t.Fatal(err)
				}
				fresh, err := NewEncoder(params, data, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, want := emit(reused), emit(fresh)
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%d data bytes: emission %d differs between reset and fresh encoders", n, i)
					}
				}
				if got, want := reused.TakeWork(), fresh.TakeWork(); got != want {
					t.Fatalf("%d data bytes: reset encoder metered %d work bytes, fresh %d", n, got, want)
				}
			}
			enc, err := NewEncoder(params, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Reset(make([]byte, params.GenerationBytes()+1), 0); !errors.Is(err, ErrParams) {
				t.Fatalf("Reset with oversized data: err = %v, want ErrParams", err)
			}
		})
	}
}

// TestStateBytesSanity pins the footprint estimator the session store bills
// by: positive, monotone in generation size in both fields, and covering the
// payload a generation retains.
func TestStateBytesSanity(t *testing.T) {
	p4 := Params{GenerationBlocks: 4, BlockSize: 64}
	p16 := Params{GenerationBlocks: 16, BlockSize: 64}
	if got := p4.StateBytes(); got <= 0 {
		t.Fatalf("StateBytes = %d, want > 0", got)
	}
	if p16.StateBytes() <= p4.StateBytes() {
		t.Fatalf("StateBytes not monotone in k: k=16 %d <= k=4 %d", p16.StateBytes(), p4.StateBytes())
	}
	g4 := Params{GenerationBlocks: 4, BlockSize: 64, Field: gf.GF2}
	g16 := Params{GenerationBlocks: 16, BlockSize: 64, Field: gf.GF2}
	if g16.StateBytes() <= g4.StateBytes() {
		t.Fatalf("GF(2) StateBytes not monotone in k: k=16 %d <= k=4 %d", g16.StateBytes(), g4.StateBytes())
	}
	// The estimate should at least cover the retained payload data.
	if p4.StateBytes() < p4.GenerationBytes() {
		t.Fatalf("StateBytes (%d) below one generation of payload (%d)", p4.StateBytes(), p4.GenerationBytes())
	}
}
