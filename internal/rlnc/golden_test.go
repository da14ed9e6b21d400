package rlnc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"ncfn/internal/gf"
)

// goldenDigests pins every byte the codec emits or delivers, in both fields,
// as SHA-256 literals: a change of engine, kernel or draw that moves a single
// coefficient, payload byte or innovation verdict fails here. The sizes
// straddle the 64-coefficient word (k = 64 fills one, k = 65 spills into a
// second) and the block sizes are odd, so no row is a whole number of words
// or vector steps. Each entry is {encoder, recoder, decoder}:
//
//   - encoder: 3k+8 CodedInto emissions, coefficients then payload;
//   - recoder: the innovation verdicts of a seeded lossy, duplicated,
//     reordered stream fed through Add and AddBatch, then 2k+8 RecodeInto
//     emissions;
//   - decoder: the verdicts of the same stream fed through Add and AddBatch,
//     then Generation().
var goldenDigests = map[string][3]string{
	"GF(2^8)/k=1": {
		"71c42c370d0e99c5a183f1cb8dc53d21879d50fdd6e073536ad38b905afdf09c",
		"bf6fb0bd10cbe74c5f0b13def94263ddf9ec5fa847eed8ff5399c681f1b16b51",
		"258316bdb7a43b2a07d9c8ceea14094b9e673ecb1d68220cf44e05ad18101a35",
	},
	"GF(2^8)/k=7": {
		"49d7378e0e51ce3a96a352e84e1d09cb354d559ed98701d399f77679f7409972",
		"e1858db4b13c5fc07f2d616407e7b3c2ffd9cdb30b3a3f443f7bb5fcc2cffbb3",
		"5ef98309e9a9872aa02b2bfbdccea4e1e79f794e09619a72b1da0f694e662fca",
	},
	"GF(2^8)/k=64": {
		"dbc0e796ac9e71b2d99d1f35cec753eaeef1eee9885ecef1deef81d39a64d77f",
		"2f655579c596947cba545af1cc47a701b03df3035db65ea9091e6313f4783796",
		"c3b3859cc9c102148cc8a6b29d89185f99ec8a7d5d091a87a8b712f59644f63f",
	},
	"GF(2^8)/k=65": {
		"2412525ba8af8c9d34e06a01dc5d3547bc08aac98f07d9c96bfff432eb0135fc",
		"ce139ae16ddbfd8c158419e719b9f2f26c59158395508320516fc9868c03f5a7",
		"377cf117718927c5df7c2e51729f898a0aa7bfc44fab0a2e3ecd7c20e379dfb4",
	},
	"GF(2)/k=1": {
		"169ae5c021b6575e5fb4d209d818c0215a80a5fa90a521e401bbd0721d36089a",
		"2c92f701a613e4ca6c47caf0aea9f8a19ac8217a696b5d395d532c06c845b310",
		"258316bdb7a43b2a07d9c8ceea14094b9e673ecb1d68220cf44e05ad18101a35",
	},
	"GF(2)/k=7": {
		"34ac783454c381bf63a7e5b8c1c78f1e09fca6ee482b2e83b12487cff8db07e2",
		"e30e854413c959eb0200a4463f5e430887891965389f8f7323b457ac9d9c0022",
		"da2370a259f8a7ede50c8750d998e148b2460cf7985bb23bbb43ddaa8d05f9c9",
	},
	"GF(2)/k=64": {
		"188a7a46d6acbdddab6b1cb4745fd86a45dd7b77584737528624ffc81bae156f",
		"0b06b0552e1803fbedcd0cf4353ee6069feb72ac874e9b576cc798effd061001",
		"30b73c299d094283fd20be765ca37583a5264d34b4741711556d904bc00e9f0e",
	},
	"GF(2)/k=65": {
		"ef9a15a7c0dc77f4c875235649f66781086ddba55451b27af5a01f4452c0c264",
		"e64ea687769178b495b678f14753831187d70cd2971f3fa0317e008ab951ce52",
		"23f5caa5ddcc885587dec743299f7180f3a67fc93e238db1774179dd85f45a14",
	},
}

func TestGoldenBytes(t *testing.T) {
	for _, f := range []gf.Field{gf.GF256, gf.GF2} {
		for _, k := range []int{1, 7, 64, 65} {
			name := fmt.Sprintf("%v/k=%d", f, k)
			t.Run(name, func(t *testing.T) {
				p := Params{GenerationBlocks: k, BlockSize: 61 + 2*k, Field: f}
				seed := int64(500 + k)
				got := [3]string{goldenEncoder(t, p, seed), goldenRecoder(t, p, seed), goldenDecoder(t, p, seed)}
				for i, role := range []string{"encoder", "recoder", "decoder"} {
					if want := goldenDigests[name][i]; got[i] != want {
						t.Errorf("%s digest %s, want %s", role, got[i], want)
					}
				}
			})
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func goldenEncoder(t *testing.T, p Params, seed int64) string {
	enc, err := NewEncoder(p, randomData(seed, p.GenerationBytes()), seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	var cb CodedBlock
	for i := 0; i < 3*p.GenerationBlocks+8; i++ {
		enc.CodedInto(&cb)
		out = append(append(out, cb.Coeffs...), cb.Payload...)
	}
	return digest(out)
}

// goldenStream is the arrival sequence both the recoder and the decoder
// hear: the systematic blocks, then coded ones, with 20 % loss, 25 %
// duplication and a shuffle.
func goldenStream(t *testing.T, p Params, seed int64) (src []byte, stream []CodedBlock) {
	src = randomData(seed, p.GenerationBytes())
	enc, err := NewEncoder(p, src, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	sent := make([]CodedBlock, 4*p.GenerationBlocks+16)
	for i := range sent {
		cb, ok := enc.Systematic()
		if !ok {
			cb = enc.Coded()
		}
		sent[i] = cb
	}
	return src, corruptStream(rand.New(rand.NewSource(seed+2)), sent, 20, 25)
}

// feedGolden walks the stream in runs of four: the first block of a run
// through add, the other three through addBatch, and returns one verdict
// byte per call (1/0 for add, the innovative count for addBatch).
func feedGolden(stream []CodedBlock, add func(CodedBlock) bool, addBatch func([]CodedBlock) int) []byte {
	var verdicts []byte
	for off := 0; off < len(stream); off += 4 {
		v := byte(0)
		if add(stream[off]) {
			v = 1
		}
		verdicts = append(verdicts, v)
		if run := stream[off+1 : min(off+4, len(stream))]; len(run) > 0 {
			verdicts = append(verdicts, byte(addBatch(run)))
		}
	}
	return verdicts
}

func goldenRecoder(t *testing.T, p Params, seed int64) string {
	_, stream := goldenStream(t, p, seed)
	rec, err := NewRecoder(p, seed+3)
	if err != nil {
		t.Fatal(err)
	}
	out := feedGolden(stream, func(cb CodedBlock) bool {
		before := rec.Stored()
		if err := rec.Add(cb); err != nil {
			t.Fatal(err)
		}
		return rec.Stored() > before
	}, func(run []CodedBlock) int {
		n, err := rec.AddBatch(run)
		if err != nil {
			t.Fatal(err)
		}
		return n
	})
	var cb CodedBlock
	for i := 0; i < 2*p.GenerationBlocks+8; i++ {
		if !rec.RecodeInto(&cb) {
			t.Fatal("RecodeInto returned false with stored rows")
		}
		out = append(append(out, cb.Coeffs...), cb.Payload...)
	}
	return digest(out)
}

func goldenDecoder(t *testing.T, p Params, seed int64) string {
	src, stream := goldenStream(t, p, seed)
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	out := feedGolden(stream, func(cb CodedBlock) bool {
		ok, err := dec.Add(cb)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}, func(run []CodedBlock) int {
		n, err := dec.AddBatch(run)
		if err != nil {
			t.Fatal(err)
		}
		return n
	})
	gen, err := dec.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gen, src) {
		t.Fatal("decoded generation differs from the source")
	}
	return digest(append(out, gen...))
}
