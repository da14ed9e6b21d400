package dataplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ncfn/internal/emunet"
	"ncfn/internal/gf"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/telemetry"
)

func smallParams() rlnc.Params {
	return rlnc.Params{GenerationBlocks: 4, BlockSize: 64}
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestRoleString(t *testing.T) {
	if RoleRecoder.String() != "recoder" || RoleDecoder.String() != "decoder" ||
		RoleForwarder.String() != "forwarder" || Role(0).String() != "unknown" {
		t.Fatal("role names wrong")
	}
}

func TestConfigureValidation(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	v := NewVNF(n.Host("v"))
	if err := v.Configure(SessionConfig{ID: 1, Params: rlnc.Params{}, Role: RoleRecoder}); err == nil {
		t.Fatal("bad params accepted")
	}
	if err := v.Configure(SessionConfig{ID: 1, Params: smallParams(), Role: Role(99)}); err == nil {
		t.Fatal("bad role accepted")
	}
	if err := v.Configure(SessionConfig{ID: 1, Params: smallParams(), Role: RoleRecoder}); err != nil {
		t.Fatal(err)
	}
}

// pipeline builds src -> [relays...] -> receiver over a perfect network and
// transfers data, returning the receiver.
func runPipeline(t *testing.T, relayRole Role, nGenerations int, redundancy int) (*MultiReceiver, []byte, int) {
	t.Helper()
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	params := smallParams()

	relay := NewVNF(n.Host("relay"), WithSeed(5))
	if err := relay.Configure(SessionConfig{ID: 1, Params: params, Role: relayRole, Redundancy: redundancy}); err != nil {
		t.Fatal(err)
	}
	relay.Start()
	t.Cleanup(func() { relay.Close() })

	src, err := NewSource(n.Host("src"), SourceConfig{
		Session: 1, Params: params, Systematic: true, Seed: 3, Redundancy: redundancy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })

	recv, err := newSink(n.Host("recv"), 1, params, "src")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })

	src.SetHops([]HopGroup{{Addrs: []string{"relay"}}})
	relay.Table().Set(1, []HopGroup{{Addrs: []string{"recv"}}})

	data := randomBytes(11, nGenerations*params.GenerationBytes())
	if _, ngen, err := src.SendData(data); err != nil {
		t.Fatal(err)
	} else if ngen != nGenerations {
		t.Fatalf("sent %d generations, want %d", ngen, nGenerations)
	}
	return recv, data, nGenerations
}

func TestForwarderPipeline(t *testing.T) {
	recv, data, ngen := runPipeline(t, RoleForwarder, 5, 0)
	if !waitFor(t, 5*time.Second, func() bool { return recv.Generations(1) == ngen }) {
		t.Fatalf("receiver decoded %d of %d generations", recv.Generations(1), ngen)
	}
	got, ok := recv.Data(1, ngen)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("forwarded data mismatch")
	}
}

func TestRecoderPipeline(t *testing.T) {
	recv, data, ngen := runPipeline(t, RoleRecoder, 5, 1)
	if !waitFor(t, 5*time.Second, func() bool { return recv.Generations(1) == ngen }) {
		t.Fatalf("receiver decoded %d of %d generations", recv.Generations(1), ngen)
	}
	got, ok := recv.Data(1, ngen)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("recoded data mismatch")
	}
}

func TestRecoderEmitsRedundancy(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	relay := NewVNF(n.Host("relay"))
	relay.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder, Redundancy: 2})
	relay.Table().Set(1, []HopGroup{{Addrs: []string{"sink"}}})
	relay.Start()
	defer relay.Close()
	sink := n.Host("sink")

	src, _ := NewSource(n.Host("src"), SourceConfig{Session: 1, Params: params, Systematic: true})
	defer src.Close()
	src.SetHops([]HopGroup{{Addrs: []string{"relay"}}})
	src.SendGeneration(randomBytes(1, params.GenerationBytes()), false)

	// NC2: 4 arrivals must produce 6 emissions.
	got := 0
	deadline := time.After(5 * time.Second)
	for got < 6 {
		select {
		case <-deadline:
			t.Fatalf("only %d packets emitted, want 6 (NC2)", got)
		default:
		}
		done := make(chan struct{})
		go func() {
			sink.Recv()
			close(done)
		}()
		select {
		case <-done:
			got++
		case <-time.After(500 * time.Millisecond):
			if got < 6 {
				t.Fatalf("stalled at %d packets, want 6 (NC2)", got)
			}
		}
	}
	st := relay.Stats()
	if st.PacketsOut != 6 {
		t.Fatalf("PacketsOut = %d, want 6", st.PacketsOut)
	}
}

func TestVNFDropsUnknownSession(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	v := NewVNF(n.Host("v"))
	v.Start()
	defer v.Close()
	src := n.Host("src")
	p := &ncproto.Packet{Session: 42, Coeffs: make([]byte, 4), Payload: make([]byte, 64)}
	src.Send("v", p.Encode(nil))
	if !waitFor(t, 2*time.Second, func() bool { return v.Stats().PacketsDropped == 1 }) {
		t.Fatalf("drop not counted: %+v", v.Stats())
	}
}

func TestVNFDropsGarbage(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	v := NewVNF(n.Host("v"))
	v.Start()
	defer v.Close()
	n.Host("src").Send("v", []byte{1, 2, 3})
	if !waitFor(t, 2*time.Second, func() bool { return v.Stats().PacketsDropped == 1 }) {
		t.Fatalf("garbage not dropped: %+v", v.Stats())
	}
}

func TestVNFDropsWrongPayloadSize(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	v := NewVNF(n.Host("v"))
	v.Configure(SessionConfig{ID: 1, Params: smallParams(), Role: RoleRecoder})
	v.Start()
	defer v.Close()
	p := &ncproto.Packet{Session: 1, Coeffs: make([]byte, 4), Payload: make([]byte, 10)}
	n.Host("src").Send("v", p.Encode(nil))
	if !waitFor(t, 2*time.Second, func() bool { return v.Stats().PacketsDropped == 1 }) {
		t.Fatalf("wrong-size payload not dropped: %+v", v.Stats())
	}
}

func TestEndSessionStopsProcessing(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	v := NewVNF(n.Host("v"))
	v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleForwarder})
	v.Table().Set(1, []HopGroup{{Addrs: []string{"sink"}}})
	v.Start()
	defer v.Close()
	v.EndSession(1)
	p := &ncproto.Packet{Session: 1, Coeffs: make([]byte, 4), Payload: make([]byte, 64)}
	n.Host("src").Send("v", p.Encode(nil))
	if !waitFor(t, 2*time.Second, func() bool { return v.Stats().PacketsDropped == 1 }) {
		t.Fatalf("packet for ended session not dropped: %+v", v.Stats())
	}
	if v.Table().Len() != 0 {
		t.Fatal("EndSession left forwarding entries")
	}
}

func TestAcksSurfaceAtSource(t *testing.T) {
	recv, _, ngen := runPipeline(t, RoleForwarder, 3, 0)
	_ = recv
	// runPipeline's source is closed via cleanup; build a dedicated check:
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	src, _ := NewSource(n.Host("src2"), SourceConfig{Session: 9, Params: params, Systematic: true})
	defer src.Close()
	r2, _ := newSink(n.Host("recv2"), 9, params, "src2")
	defer r2.Close()
	src.SetHops([]HopGroup{{Addrs: []string{"recv2"}}})
	src.SendGeneration(randomBytes(2, params.GenerationBytes()), false)
	select {
	case ack := <-src.acks:
		if ack.Session != 9 || ack.Generation != 0 {
			t.Fatalf("ack = %+v", ack)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ack received")
	}
	_ = ngen
}

func TestUpdateTableSwapsAtomically(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	v := NewVNF(n.Host("v"))
	v.Configure(SessionConfig{ID: 1, Params: smallParams(), Role: RoleForwarder})
	v.Table().Set(1, []HopGroup{{Addrs: []string{"old"}}})
	v.Start()
	defer v.Close()
	v.UpdateTable(map[ncproto.SessionID][]HopGroup{
		1: {{Addrs: []string{"new"}}},
		2: {{Addrs: []string{"extra"}}},
	})
	if v.Table().AppendNextHops(nil, 1, 0)[0] != "new" {
		t.Fatal("entry not replaced")
	}
	if v.Table().AppendNextHops(nil, 2, 0)[0] != "extra" {
		t.Fatal("entry not added")
	}
	// nil hops delete.
	v.UpdateTable(map[ncproto.SessionID][]HopGroup{2: nil})
	if v.Table().Len() != 1 {
		t.Fatal("nil update did not delete")
	}
}

func TestSourceRequiresHops(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	src, _ := NewSource(n.Host("s"), SourceConfig{Session: 1, Params: smallParams()})
	defer src.Close()
	if _, err := src.SendGeneration(make([]byte, 10), false); err == nil {
		t.Fatal("send with no hops succeeded")
	}
}

func TestSourceRejectsBadParams(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	if _, err := NewSource(n.Host("s"), SourceConfig{Session: 1}); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestSourceSendDataEmpty(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	src, _ := NewSource(n.Host("s"), SourceConfig{Session: 1, Params: smallParams()})
	defer src.Close()
	if _, ngen, err := src.SendData(nil); err != nil || ngen != 0 {
		t.Fatalf("empty send: %d, %v", ngen, err)
	}
}

func TestSourceSplitsAcrossHopGroups(t *testing.T) {
	// Two hop groups with quota 2 each: each must receive exactly 2
	// distinct packets per generation.
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	params := smallParams()
	src, _ := NewSource(n.Host("s"), SourceConfig{Session: 1, Params: params, Systematic: true})
	defer src.Close()
	src.SetHops([]HopGroup{
		{Addrs: []string{"a"}, PerGen: 2},
		{Addrs: []string{"b"}, PerGen: 2},
	})
	src.SendGeneration(randomBytes(3, params.GenerationBytes()), false)

	collect := func(h *emunet.Host) []*ncproto.Packet {
		var out []*ncproto.Packet
		for len(out) < 2 {
			pkt, _, err := h.Recv()
			if err != nil {
				t.Fatal(err)
			}
			p, err := ncproto.Decode(append([]byte(nil), pkt...), params.GenerationBlocks)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		return out
	}
	pa := collect(a)
	pb := collect(b)
	// Systematic split: a gets blocks 0,1; b gets blocks 2,3.
	if pa[0].Coeffs[0] != 1 || pa[1].Coeffs[1] != 1 {
		t.Fatalf("group a packets not b0,b1: %v %v", pa[0].Coeffs, pa[1].Coeffs)
	}
	if pb[0].Coeffs[2] != 1 || pb[1].Coeffs[3] != 1 {
		t.Fatalf("group b packets not b2,b3: %v %v", pb[0].Coeffs, pb[1].Coeffs)
	}
}

func TestSourcePacing(t *testing.T) {
	// 10 generations of 256 bytes at 1 Mbps payload rate should take
	// about 10*256*8/1e6 = ~20ms total (9 inter-generation gaps).
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	n.Host("sink")
	params := smallParams() // 256 bytes per generation
	src, _ := NewSource(n.Host("s"), SourceConfig{Session: 1, Params: params, RateMbps: 1, Systematic: true})
	defer src.Close()
	src.SetHops([]HopGroup{{Addrs: []string{"sink"}}})
	start := time.Now()
	if _, _, err := src.SendData(randomBytes(4, 10*params.GenerationBytes())); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 15*time.Millisecond {
		t.Fatalf("pacing too fast: %v", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("pacing too slow: %v", elapsed)
	}
}

func TestResendGeneration(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	src, _ := NewSource(n.Host("s"), SourceConfig{Session: 1, Params: params, Systematic: true})
	defer src.Close()
	recv, _ := newSink(n.Host("r"), 1, params, "")
	defer recv.Close()
	src.SetHops([]HopGroup{{Addrs: []string{"r"}}})
	data := randomBytes(5, params.GenerationBytes())
	gid, err := src.SendGeneration(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ResendGeneration(gid, data, 4); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return recv.Generations(1) == 1 }) {
		t.Fatal("generation not decoded after resend")
	}
}

// TestResendGenerationDrawsFresh sends three resends of k packets for each
// of 2000 generations and ranks what arrives per generation: the resends
// must be independent draws, so over GF(2^8) none stays below full rank
// (copies of one draw leave about 0.4 % of generations short forever).
func TestResendGenerationDrawsFresh(t *testing.T) {
	const gens, calls = 2000, 3
	for _, tc := range []struct {
		field gf.Field
		max   int
	}{{gf.GF256, 0}, {gf.GF2, 20}} {
		n := emunet.NewNetwork(emunet.AllowDefault())
		params := rlnc.Params{GenerationBlocks: 4, BlockSize: 8, Field: tc.field}
		src, err := NewSource(n.Host("s"), SourceConfig{Session: 1, Params: params, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		src.SetHops([]HopGroup{{Addrs: []string{"r"}}})
		r := n.Host("r")
		data := randomBytes(7, params.GenerationBytes())
		short := 0
		for g := 0; g < gens; g++ {
			gid := ncproto.GenerationID(g)
			for c := 0; c < calls; c++ {
				if err := src.ResendGeneration(gid, data, params.GenerationBlocks); err != nil {
					t.Fatal(err)
				}
			}
			dec, err := rlnc.NewDecoder(params)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < calls*params.GenerationBlocks; i++ {
				raw, _, err := r.Recv()
				if err != nil {
					t.Fatal(err)
				}
				p, err := ncproto.Decode(raw, params.GenerationBlocks)
				if err != nil || p.Generation != gid {
					t.Fatalf("generation %d: packet %+v, %v", g, p, err)
				}
				if _, err := dec.Add(rlnc.CodedBlock{Coeffs: p.Coeffs, Payload: p.Payload}); err != nil {
					t.Fatal(err)
				}
			}
			if !dec.Complete() {
				short++
			}
		}
		src.Close()
		n.Close()
		t.Logf("%v: %d of %d generations below full rank after %d resends", tc.field, short, gens, calls)
		if short > tc.max {
			t.Fatalf("%v: %d of %d generations below full rank, want at most %d", tc.field, short, gens, tc.max)
		}
	}
}

func TestReceiverReassemblesInOrder(t *testing.T) {
	recv, data, ngen := runPipeline(t, RoleRecoder, 8, 0)
	if !waitFor(t, 5*time.Second, func() bool { return recv.Generations(1) == ngen }) {
		t.Fatalf("decoded %d of %d", recv.Generations(1), ngen)
	}
	got, ok := recv.Data(1, ngen)
	if !ok {
		t.Fatal("missing generations in Data")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	if _, ok := recv.Data(1, ngen+1); ok {
		t.Fatal("Data claimed a generation that was never sent")
	}
	if recv.Bytes(1) != len(data) {
		t.Fatalf("Bytes = %d, want %d", recv.Bytes(1), len(data))
	}
}

func TestButterflyEndToEnd(t *testing.T) {
	// The full Fig. 6 butterfly on the emulated network with per-hop
	// quotas from the conceptual-flow solution: 2 packets per generation
	// per branch; both receivers must decode everything.
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	mkRelay := func(name string, inPerGen int, hops []HopGroup, seed int64) *VNF {
		v := NewVNF(n.Host(name), WithSeed(seed))
		if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder, InPerGen: inPerGen}); err != nil {
			t.Fatal(err)
		}
		v.Table().Set(1, hops)
		v.Start()
		t.Cleanup(func() { v.Close() })
		return v
	}
	// Topology: V1 -> {O1, C1}; O1 -> {O2, T}; C1 -> {C2, T};
	// T -> V2; V2 -> {O2, C2}.
	mkRelay("O1", 2, []HopGroup{
		{Addrs: []string{"O2"}, PerGen: 2},
		{Addrs: []string{"T"}, PerGen: 2},
	}, 101)
	mkRelay("C1", 2, []HopGroup{
		{Addrs: []string{"C2"}, PerGen: 2},
		{Addrs: []string{"T"}, PerGen: 2},
	}, 102)
	mkRelay("T", 4, []HopGroup{
		{Addrs: []string{"V2"}, PerGen: 2},
	}, 103)
	mkRelay("V2", 2, []HopGroup{
		{Addrs: []string{"O2"}, PerGen: 2},
		{Addrs: []string{"C2"}, PerGen: 2},
	}, 104)

	src, err := NewSource(n.Host("V1"), SourceConfig{Session: 1, Params: params, Systematic: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetHops([]HopGroup{
		{Addrs: []string{"O1"}, PerGen: 2},
		{Addrs: []string{"C1"}, PerGen: 2},
	})
	recvO, err := newSink(n.Host("O2"), 1, params, "")
	if err != nil {
		t.Fatal(err)
	}
	defer recvO.Close()
	recvC, err := newSink(n.Host("C2"), 1, params, "")
	if err != nil {
		t.Fatal(err)
	}
	defer recvC.Close()

	const ngen = 20
	data := randomBytes(21, ngen*params.GenerationBytes())
	if _, sent, err := src.SendData(data); err != nil || sent != ngen {
		t.Fatalf("send: %d, %v", sent, err)
	}
	// With NC0 (no redundancy) each receiver gets exactly 4 packets per
	// generation, so an occasional random linear dependency (~1/256 per
	// packet) can leave a generation undecoded — the same effect that
	// keeps the paper's measured 68 Mbps below the 69.9 theoretical
	// maximum. Require ≥ 90% decoded, and bytewise-correct content for
	// every decoded generation.
	ok := waitFor(t, 10*time.Second, func() bool {
		return recvO.Generations(1) >= ngen-2 && recvC.Generations(1) >= ngen-2
	})
	if !ok {
		t.Fatalf("decoded O2=%d C2=%d of %d", recvO.Generations(1), recvC.Generations(1), ngen)
	}
	genBytes := params.GenerationBytes()
	for _, recv := range []*MultiReceiver{recvO, recvC} {
		for g := 0; g < ngen; g++ {
			got, ok := recv.GenerationData(1, ncproto.GenerationID(g))
			if !ok {
				continue
			}
			if !bytes.Equal(got, data[g*genBytes:(g+1)*genBytes]) {
				t.Fatalf("generation %d content mismatch", g)
			}
		}
	}
}

func TestButterflyBeatsSingleBranchUnderQuota(t *testing.T) {
	// Sanity check of the coding gain argument: each receiver gets only
	// 2 of 4 packets from its side branch, so without the coded V2 feed
	// it could never decode. Kill V2 and confirm decode fails.
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	o1 := NewVNF(n.Host("O1"), WithSeed(31))
	o1.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder, InPerGen: 2})
	o1.Table().Set(1, []HopGroup{{Addrs: []string{"O2"}, PerGen: 2}})
	o1.Start()
	defer o1.Close()

	src, _ := NewSource(n.Host("V1"), SourceConfig{Session: 1, Params: params, Systematic: true, Seed: 7})
	defer src.Close()
	src.SetHops([]HopGroup{
		{Addrs: []string{"O1"}, PerGen: 2},
		{Addrs: []string{"void"}, PerGen: 2},
	})
	n.Host("void")
	recvO, _ := newSink(n.Host("O2"), 1, params, "")
	defer recvO.Close()

	src.SendGeneration(randomBytes(9, params.GenerationBytes()), false)
	time.Sleep(100 * time.Millisecond)
	if recvO.Generations(1) != 0 {
		t.Fatal("receiver decoded with only half the information — quota split broken")
	}
	if recvO.vnf.Stats().PacketsIn != 2 {
		t.Fatalf("O2 received %d packets, want 2", recvO.vnf.Stats().PacketsIn)
	}
}

func TestRecoderFirstPacketForwardedVerbatim(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	relay := NewVNF(n.Host("relay"))
	relay.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder})
	relay.Table().Set(1, []HopGroup{{Addrs: []string{"sink"}}})
	relay.Start()
	defer relay.Close()
	sink := n.Host("sink")

	// Send one systematic packet b0 directly.
	enc, _ := rlnc.NewEncoder(params, randomBytes(6, params.GenerationBytes()), 1)
	cb, _ := enc.Systematic()
	wire := (&ncproto.Packet{
		Flags: ncproto.FlagSystematic, Session: 1, Generation: 0,
		Coeffs: cb.Coeffs, Payload: cb.Payload,
	}).Encode(nil)
	n.Host("src").Send("relay", wire)

	pkt, _, err := sink.Recv()
	if err != nil {
		t.Fatal(err)
	}
	p, err := ncproto.Decode(pkt, params.GenerationBlocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Coeffs, cb.Coeffs) || !bytes.Equal(p.Payload, cb.Payload) {
		t.Fatal("first packet of generation was not forwarded verbatim")
	}
}

func TestStatsAccumulate(t *testing.T) {
	recv, _, ngen := runPipeline(t, RoleRecoder, 4, 0)
	if !waitFor(t, 5*time.Second, func() bool { return recv.Generations(1) == ngen }) {
		t.Fatal("pipeline incomplete")
	}
	st := recv.vnf.Stats()
	if st.PacketsIn == 0 || st.GenerationsDone != uint64(ngen) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestVNFCloseIdempotent(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	v := NewVNF(n.Host("v"))
	v.Start()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecoderPacketProcessing(b *testing.B) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := rlnc.DefaultParams()
	v := NewVNF(n.Host("v"))
	v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder})
	v.Table().Set(1, []HopGroup{{Addrs: []string{"sink"}}})
	n.Host("sink")
	enc, _ := rlnc.NewEncoder(params, randomBytes(1, params.GenerationBytes()), 1)
	packets := make([][]byte, 64)
	for i := range packets {
		cb := enc.Coded()
		packets[i] = (&ncproto.Packet{
			Session: 1, Generation: ncproto.GenerationID(i / 4),
			Coeffs: cb.Coeffs, Payload: cb.Payload,
		}).Encode(nil)
	}
	b.SetBytes(int64(params.BlockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.handlePacket(packets[i%len(packets)], "src")
	}
}

func TestPipelineRobustToReordering(t *testing.T) {
	// Heavy jitter on the relay->receiver link reorders packets across
	// generations; RLNC decoding is order-insensitive ("our system is not
	// concerned with out-of-order packets", Sec. III-B), so everything
	// must still decode.
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	n.SetLink("relay", "recv", emunet.LinkConfig{
		Delay:  2 * time.Millisecond,
		Jitter: 40 * time.Millisecond,
	})
	relay := NewVNF(n.Host("relay"), WithSeed(5))
	if err := relay.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
		t.Fatal(err)
	}
	relay.Table().Set(1, []HopGroup{{Addrs: []string{"recv"}}})
	relay.Start()
	defer relay.Close()

	src, err := NewSource(n.Host("src"), SourceConfig{
		Session: 1, Params: params, Systematic: true, Redundancy: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetHops([]HopGroup{{Addrs: []string{"relay"}}})

	recv, err := newSink(n.Host("recv"), 1, params, "")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	const ngen = 15
	data := randomBytes(33, ngen*params.GenerationBytes())
	if _, sent, err := src.SendData(data); err != nil || sent != ngen {
		t.Fatalf("send: %d %v", sent, err)
	}
	if !waitFor(t, 10*time.Second, func() bool { return recv.Generations(1) == ngen }) {
		t.Fatalf("decoded %d of %d under heavy reordering", recv.Generations(1), ngen)
	}
	got, ok := recv.Data(1, ngen)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("reordered delivery corrupted data")
	}
}

func TestVNFMultipleConcurrentSessions(t *testing.T) {
	// One VNF relays three sessions at once (Sec. IV-A allows each VNF to
	// encode for multiple sessions); streams must not interfere.
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	relay := NewVNF(n.Host("relay"), WithSeed(5))
	relay.Start()
	defer relay.Close()

	type sessEnd struct {
		id   ncproto.SessionID
		src  *Source
		recv *MultiReceiver
		data []byte
	}
	var ends []sessEnd
	const ngen = 6
	for i := 1; i <= 3; i++ {
		id := ncproto.SessionID(i)
		if err := relay.Configure(SessionConfig{ID: id, Params: params, Role: RoleRecoder}); err != nil {
			t.Fatal(err)
		}
		recvName := "recv" + string(rune('0'+i))
		relay.Table().Set(id, []HopGroup{{Addrs: []string{recvName}}})
		src, err := NewSource(n.Host("s"+string(rune('0'+i))), SourceConfig{
			Session: id, Params: params, Systematic: true, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		src.SetHops([]HopGroup{{Addrs: []string{"relay"}}})
		recv, err := newSink(n.Host(recvName), id, params, "")
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		ends = append(ends, sessEnd{id: id, src: src, recv: recv, data: randomBytes(int64(100+i), ngen*params.GenerationBytes())})
	}
	for _, e := range ends {
		if _, _, err := e.src.SendData(e.data); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range ends {
		if !waitFor(t, 10*time.Second, func() bool { return e.recv.Generations(e.id) == ngen }) {
			t.Fatalf("session %d decoded %d of %d", i+1, e.recv.Generations(e.id), ngen)
		}
		got, ok := e.recv.Data(e.id, ngen)
		if !ok || !bytes.Equal(got, e.data) {
			t.Fatalf("session %d data mismatch (cross-session interference?)", i+1)
		}
	}
}

// TestMixedFieldSessionsShareVNFs carries a GF(2) and a GF(2^8) session side
// by side through one relay VNF and one receiving endpoint. The field is
// per-session codec state: both sessions deliver byte-exact, and each
// session's dependent arrivals land on its own field's counter.
func TestMixedFieldSessionsShareVNFs(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	reg := telemetry.NewRegistry()
	relay := NewVNF(n.Host("relay"), WithSeed(5), WithTelemetry(reg))
	relay.Start()
	defer relay.Close()
	sink := NewMultiReceiver(n.Host("sink"))
	defer sink.Close()

	// The generation counts differ so the two fields' counts cannot swap.
	sessions := []struct {
		id     ncproto.SessionID
		field  gf.Field
		ngen   int
		metric string
		data   []byte
	}{
		{id: 1, field: gf.GF2, ngen: 3, metric: MetricDependentGF2},
		{id: 2, field: gf.GF256, ngen: 5, metric: MetricDependentGF256},
	}
	for i := range sessions {
		s := &sessions[i]
		params := smallParams()
		params.Field = s.field
		if err := relay.Configure(SessionConfig{ID: s.id, Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
			t.Fatal(err)
		}
		relay.Table().Set(s.id, []HopGroup{{Addrs: []string{"sink"}}})
		if err := sink.AddSession(s.id, params, ""); err != nil {
			t.Fatal(err)
		}
		// Every source packet reaches the relay twice; the copy is a
		// dependent arrival at the relay's coefficient gate.
		srcName := fmt.Sprintf("src%d", s.id)
		n.SetLink(srcName, "relay", emunet.LinkConfig{DuplicateProb: 1})
		src, err := NewSource(n.Host(srcName), SourceConfig{Session: s.id, Params: params, Systematic: true, Seed: int64(s.id)})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		src.SetHops([]HopGroup{{Addrs: []string{"relay"}}})
		s.data = randomBytes(int64(20+s.id), s.ngen*params.GenerationBytes())
		if _, _, err := src.SendData(s.data); err != nil {
			t.Fatal(err)
		}
	}
	k := smallParams().GenerationBlocks
	for _, s := range sessions {
		if !waitFor(t, 5*time.Second, func() bool { return sink.Generations(s.id) == s.ngen }) {
			t.Fatalf("session %d (field %v) decoded %d of %d", s.id, s.field, sink.Generations(s.id), s.ngen)
		}
		if got, ok := sink.Data(s.id, s.ngen); !ok || !bytes.Equal(got, s.data) {
			t.Fatalf("session %d (field %v) data mismatch", s.id, s.field)
		}
		want := uint64(s.ngen * k)
		dep := reg.Counter(s.metric, 1)
		if !waitFor(t, 5*time.Second, func() bool { return dep.Value() >= want }) || dep.Value() != want {
			t.Fatalf("%s = %d, want %d: one per duplicated packet of session %d", s.metric, dep.Value(), want, s.id)
		}
	}
}

func TestSessionStatsFor(t *testing.T) {
	recv, _, ngen := runPipeline(t, RoleRecoder, 4, 0)
	if !waitFor(t, 5*time.Second, func() bool { return recv.Generations(1) == ngen }) {
		t.Fatal("pipeline incomplete")
	}
	st, ok := recv.vnf.SessionStatsFor(1)
	if !ok {
		t.Fatal("session stats missing")
	}
	if st.Role != RoleDecoder {
		t.Fatalf("role = %v", st.Role)
	}
	if st.GenerationsDone != uint64(ngen) || st.PacketsIn == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := recv.vnf.SessionStatsFor(99); ok {
		t.Fatal("unknown session has stats")
	}
}

// TestAddSessionDuplicateKeepsLiveSession: a refused duplicate AddSession
// must leave the live session's decoders as they were, so a generation one
// packet short before it completes with the next packet.
func TestAddSessionDuplicateKeepsLiveSession(t *testing.T) {
	params := smallParams()
	sink, err := newSink(newCaptureConn("sink"), 1, params, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	k := params.GenerationBlocks
	pkts := codedWire(t, params, 1, 0, 95, k)
	for _, p := range pkts[:k-1] {
		sink.vnf.InjectPacket(p)
	}
	if err := sink.AddSession(1, params, ""); err == nil {
		t.Fatal("duplicate AddSession accepted")
	}
	sink.vnf.InjectPacket(pkts[k-1])
	if !waitFor(t, 5*time.Second, func() bool { return sink.Generations(1) == 1 }) {
		t.Fatalf("decoded %d generations, want 1: the refused duplicate reset the live session", sink.Generations(1))
	}
}

func TestDecoderAbsorbsDuplicates(t *testing.T) {
	// Full duplication on the last hop: every packet arrives twice; the
	// decoder must treat copies as non-innovative and deliver correctly.
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	n.SetLink("src", "recv", emunet.LinkConfig{DuplicateProb: 1.0})
	src, err := NewSource(n.Host("src"), SourceConfig{Session: 1, Params: params, Systematic: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetHops([]HopGroup{{Addrs: []string{"recv"}}})
	recv, err := newSink(n.Host("recv"), 1, params, "")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	const ngen = 8
	data := randomBytes(44, ngen*params.GenerationBytes())
	if _, _, err := src.SendData(data); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return recv.Generations(1) == ngen }) {
		t.Fatalf("decoded %d of %d under duplication", recv.Generations(1), ngen)
	}
	got, ok := recv.Data(1, ngen)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("duplication corrupted delivery")
	}
}
