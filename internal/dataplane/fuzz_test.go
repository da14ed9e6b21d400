package dataplane

import (
	"testing"
	"time"

	"ncfn/internal/buffer"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
)

// FuzzHandlePacket feeds arbitrary datagrams to a configured VNF: the
// packet path must never panic regardless of input.
func FuzzHandlePacket(f *testing.F) {
	f.Add([]byte{0x9C, 0, 0, 1, 0, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{})
	f.Add([]byte{0x9C})
	f.Fuzz(func(t *testing.T, pkt []byte) {
		n := emunet.NewNetwork(emunet.AllowDefault())
		defer n.Close()
		v := NewVNF(n.Host("v"))
		if err := v.Configure(SessionConfig{ID: 1, Params: smallParams(), Role: RoleRecoder}); err != nil {
			t.Fatal(err)
		}
		v.Table().Set(1, []HopGroup{{Addrs: []string{"sink"}}})
		n.Host("sink")
		v.handlePacket(pkt, "fuzz")
	})
}

// FuzzPipelineCorruption drives truncated and bit-flipped datagrams through a
// fully started recoder → forwarder → decoder chain over emunet, interleaved
// with a valid generation, then tears the pipeline down. Two invariants: no
// stage may panic on any input, and the packet pool must never see a double
// put — a malformed packet must not confuse buffer ownership anywhere in the
// recode/forward/decode paths.
func FuzzPipelineCorruption(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{ncproto.Magic}, uint8(3), uint8(1))
	f.Add([]byte{ncproto.Magic, 0, 0, 1, 0, 0, 0, 0}, uint8(7), uint8(0x80))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint8(100), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, cut, xor uint8) {
		buffer.SetAccounting(true)
		defer func() {
			// Runs after the VNFs and network below have closed and drained.
			if n := buffer.DoublePuts(); n != 0 {
				t.Fatalf("packet pool saw %d double puts", n)
			}
			buffer.SetAccounting(false)
		}()

		n := emunet.NewNetwork(emunet.AllowDefault())
		defer n.Close()
		params := smallParams()
		k := params.GenerationBlocks

		rec := NewVNF(n.Host("rec"))
		fwd := NewVNF(n.Host("fwd"))
		dec := NewVNF(n.Host("dec"))
		for _, v := range []struct {
			vnf  *VNF
			role Role
		}{{rec, RoleRecoder}, {fwd, RoleForwarder}, {dec, RoleDecoder}} {
			if err := v.vnf.Configure(SessionConfig{ID: 1, Params: params, Role: v.role}); err != nil {
				t.Fatal(err)
			}
		}
		rec.Table().Set(1, []HopGroup{{Addrs: []string{"fwd"}, PerGen: k}})
		fwd.Table().Set(1, []HopGroup{{Addrs: []string{"dec"}}})
		rec.Start()
		fwd.Start()
		dec.Start()
		defer rec.Close()
		defer fwd.Close()
		defer dec.Close()

		src := n.Host("src")
		enc, err := rlnc.NewEncoder(params, randomBytes(9, params.GenerationBytes()), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			cb := enc.Coded()
			wire := (&ncproto.Packet{
				Session: 1, Generation: 0, Coeffs: cb.Coeffs, Payload: cb.Payload,
			}).Encode(nil)

			// Before each valid packet, inject a mutated sibling: one byte
			// flipped and the tail truncated at a fuzz-chosen offset.
			mut := append([]byte(nil), wire...)
			mut[int(xor)%len(mut)] ^= 1 + cut
			mut = mut[:int(cut)%(len(mut)+1)]
			src.Send("rec", mut)
			src.Send("rec", wire)
		}
		// Arbitrary fuzz bytes hit every stage directly, not just the head.
		src.Send("rec", raw)
		src.Send("fwd", raw)
		src.Send("dec", raw)

		// Let the pipeline chew before teardown so the corrupted packets
		// actually traverse the recode/forward/decode paths. Corrupted coded
		// packets with intact headers may legally pollute the decode, so only
		// packet flow — not decode success — is awaited.
		waitFor(t, time.Second, func() bool {
			return dec.Stats().PacketsIn >= uint64(k)
		})
	})
}
