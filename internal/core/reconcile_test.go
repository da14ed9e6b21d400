package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ncfn/internal/controller"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/topology"
)

// benchButterflyConfig is the deployment behind bench.RunButterfly: the
// butterfly at a fifth of the paper's link rates, relays scaled alike.
func benchButterflyConfig(seed int64) (Config, optimize.Session) {
	const scale = 0.2
	g, src, dsts := topology.Butterfly()
	for _, l := range g.Links() {
		_ = g.SetCapacity(l.From, l.To, l.CapacityMbps*scale)
	}
	var dcs []optimize.DataCenter
	for _, dc := range butterflyDCs {
		dcs = append(dcs, optimize.DataCenter{ID: dc.ID, BinMbps: dc.BinMbps * scale, BoutMbps: dc.BoutMbps * scale, CodeMbps: dc.CodeMbps * scale})
	}
	return Config{Graph: g, DataCenters: dcs, Alpha: 0.1, Params: rlnc.DefaultParams(), Seed: seed},
		optimize.Session{ID: 1, Source: src, Receivers: dsts, MaxDelay: 150 * time.Millisecond}
}

// conferenceConfig is examples/conference's deployment: three participants
// each multicasting to the other two through two data centers.
func conferenceConfig(t *testing.T) (Config, []optimize.Session) {
	t.Helper()
	participants := []topology.NodeID{"alice", "bob", "carol"}
	dcs := []topology.NodeID{"dc-east", "dc-west"}
	g := topology.New()
	for _, dc := range dcs {
		g.AddNode(dc, topology.DataCenter)
	}
	link := func(from, to topology.NodeID, mbps float64, delay time.Duration) {
		if err := g.AddLink(topology.Link{From: from, To: to, CapacityMbps: mbps, Delay: delay}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range participants {
		g.AddNode(p, topology.Source)
		g.AddNode(p+".recv", topology.Destination)
		for _, dc := range dcs {
			link(p, dc, 40, 15*time.Millisecond)
			link(dc, p+".recv", 40, 15*time.Millisecond)
		}
	}
	link("dc-east", "dc-west", 100, 25*time.Millisecond)
	link("dc-west", "dc-east", 100, 25*time.Millisecond)
	var sessions []optimize.Session
	for i, speaker := range participants {
		var receivers []topology.NodeID
		for _, p := range participants {
			if p != speaker {
				receivers = append(receivers, p+".recv")
			}
		}
		sessions = append(sessions, optimize.Session{
			ID: ncproto.SessionID(i + 1), Source: speaker, Receivers: receivers,
			MaxDelay: 120 * time.Millisecond, RateCap: 8,
		})
	}
	cfg := Config{
		Graph: g,
		DataCenters: []optimize.DataCenter{
			{ID: "dc-east", BinMbps: 500, BoutMbps: 500, CodeMbps: 300},
			{ID: "dc-west", BinMbps: 500, BoutMbps: 500, CodeMbps: 300},
		},
		Alpha: 2, Params: rlnc.Params{GenerationBlocks: 4, BlockSize: 1460}, Redundancy: 1, Seed: 5,
	}
	return cfg, sessions
}

// TestAdmissionMatchesSolveOnce is the differential oracle for the single
// control plane: admitting sessions into an empty Service through its
// controller renders the same deploy file, byte for byte, and the same
// rates as one optimize.Solve over those sessions rendered directly. The
// Service's files are unversioned: its mutex orders them, and a retried
// apply re-sends the same content.
func TestAdmissionMatchesSolveOnce(t *testing.T) {
	butterfly, sess := benchButterflyConfig(7)
	conference, sessions := conferenceConfig(t)
	for _, tc := range []struct {
		name     string
		cfg      Config
		sessions []optimize.Session
	}{
		{"butterfly", butterfly, []optimize.Session{sess}},
		{"conference", conference, sessions},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := optimize.Solve(optimize.Config{
				Graph: tc.cfg.Graph, DataCenters: tc.cfg.DataCenters, Alpha: tc.cfg.Alpha, MaxPathHops: maxPathHops,
			}, tc.sessions)
			if err != nil {
				t.Fatal(err)
			}
			want, err := controller.BuildDeployFile(tc.cfg.Params, tc.cfg.Redundancy, tc.sessions, plan, func(dc topology.NodeID) []string {
				return []string{string(dc)}
			})
			if err != nil {
				t.Fatal(err)
			}

			svc, err := NewService(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if err := svc.AddSession(tc.sessions...); err != nil {
				t.Fatal(err)
			}
			wantJSON, _ := json.Marshal(want)
			gotJSON, _ := json.Marshal(svc.file)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("deploy file differs from solve-once render:\ngot  %s\nwant %s", gotJSON, wantJSON)
			}
			if got := svc.Plan().Rates; !reflect.DeepEqual(got, plan.Rates) {
				t.Fatalf("rates = %v, solve once gives %v", got, plan.Rates)
			}
		})
	}
}

// recoderEmissions configures a throwaway recoder session on vnf, routes it
// to a fresh host of net, injects one generation of unit-vector
// packets and returns what the recoder sent. Recoded mixes draw their
// coefficients from the VNF's seed, so two VNFs emit the same bytes for the
// same input only when they were seeded alike.
func recoderEmissions(t *testing.T, net *emunet.Network, node string, vnf *dataplane.VNF) [][]byte {
	t.Helper()
	const id, k = 99, 4
	params := rlnc.Params{GenerationBlocks: k, BlockSize: 16}
	net.SetLink(node, node+".probe", emunet.LinkConfig{})
	probe := net.Host(node + ".probe")
	if err := vnf.Configure(dataplane.SessionConfig{ID: id, Params: params, Role: dataplane.RoleRecoder, InPerGen: k}); err != nil {
		t.Fatal(err)
	}
	vnf.UpdateTable(map[ncproto.SessionID][]dataplane.HopGroup{id: {{Addrs: []string{node + ".probe"}, PerGen: k + 2}}})
	for i := 0; i < k; i++ {
		coeffs := make([]byte, k)
		coeffs[i] = 1
		vnf.InjectPacket((&ncproto.Packet{Session: id, Coeffs: coeffs, Payload: bytes.Repeat([]byte{byte(i + 1)}, params.BlockSize)}).Encode(nil))
	}
	probe.Close() // what was sent stays readable
	var out [][]byte
	for {
		pkt, _, err := probe.Recv()
		if err != nil {
			return out
		}
		out = append(out, append([]byte(nil), pkt...))
	}
}

// TestDaemonSeedsFollowCreationOrder pins the daemons' coding seeds: every
// data center that gains a role is given Seed+100+(daemons before it), in
// the order Config.DataCenters lists them — at Seed 7 the butterfly's
// relays are O1 107, C1 108, T 109, V2 110.
func TestDaemonSeedsFollowCreationOrder(t *testing.T) {
	cfg, sess := benchButterflyConfig(7)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.AddSession(sess); err != nil {
		t.Fatal(err)
	}
	for i, dc := range []topology.NodeID{"O1", "C1", "T", "V2"} {
		t.Run(fmt.Sprintf("%s=%d", dc, 107+i), func(t *testing.T) {
			d, ok := svc.daemons[dc]
			if !ok {
				t.Fatalf("no daemon at %s", dc)
			}
			got := recoderEmissions(t, svc.Network(), string(dc), d.VNF())

			ref := emunet.NewNetwork()
			defer ref.Close()
			vnf := dataplane.NewVNF(ref.Host(string(dc)), dataplane.WithSeed(int64(107+i)))
			defer vnf.Close()
			want := recoderEmissions(t, ref, string(dc), vnf)
			if len(want) < 2 {
				t.Fatalf("reference recoder emitted %d packets; the probe needs mixes", len(want))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s emits differently from a VNF seeded %d", dc, 107+i)
			}
		})
	}
}

// twoSourceGraph is the butterfly with a second source, W1, feeding the
// two first-level relays.
func twoSourceGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g, _, _ := topology.Butterfly()
	g.AddNode("W1", topology.Source)
	for _, dc := range []topology.NodeID{"O1", "C1"} {
		if err := g.AddLink(topology.Link{From: "W1", To: dc, CapacityMbps: 35, Delay: 18 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// twoSourceButterfly runs session 1 (V1 → O2, C2) on twoSourceGraph, capped
// so the relays have room for a second session (W1 → O2, later also C2).
func twoSourceButterfly(t *testing.T) *Service {
	t.Helper()
	svc, err := NewService(Config{
		Graph: twoSourceGraph(t), DataCenters: butterflyDCs, Alpha: 0.1,
		Params: rlnc.Params{GenerationBlocks: 4, BlockSize: 512}, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	if err := svc.AddSession(optimize.Session{ID: 1, Source: "V1", Receivers: []topology.NodeID{"O2", "C2"}, MaxDelay: 150 * time.Millisecond, RateCap: 12}); err != nil {
		t.Fatal(err)
	}
	return svc
}

// relayView is one session's configuration and table entry at every relay
// that has either.
func relayView(svc *Service, id ncproto.SessionID) map[topology.NodeID]any {
	view := make(map[topology.NodeID]any)
	for dc, d := range svc.daemons {
		cfg, ok := d.VNF().SessionConfigFor(id)
		hops := d.VNF().Table().Snapshot()[id]
		if ok || hops != nil {
			view[dc] = []any{cfg, hops}
		}
	}
	return view
}

// checkDelivered reports whether every listener decoded data as the
// session's generations [first, first+n).
func checkDelivered(t *testing.T, svc *Service, id ncproto.SessionID, first, n int, data []byte, listeners ...topology.NodeID) {
	t.Helper()
	for _, l := range listeners {
		ep, err := svc.Receiver(l)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		for g := first; g < first+n; g++ {
			d, ok := ep.GenerationData(id, ncproto.GenerationID(g))
			if !ok {
				t.Fatalf("session %d: %s is missing generation %d", id, l, g)
			}
			got = append(got, d...)
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("session %d: %s decoded different bytes", id, l)
		}
	}
}

// TestLiveSessionChurn runs Algorithm 3's joins and quits against one
// running Service: session 2 joins while session 1 is mid-transfer, gains
// and loses a receiver, and leaves. Every byte each live receiver decodes
// is checked, and session 2's admission leaves session 1's configuration
// and table entry at every relay untouched.
func TestLiveSessionChurn(t *testing.T) {
	svc := twoSourceButterfly(t)
	rng := rand.New(rand.NewSource(3))
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	before := relayView(svc, 1)
	big := payload(512 * 1024)
	done := make(chan error, 1)
	var sent1 int // written before done is sent, read after it is received
	go func() {
		st, err := svc.Send(1, big, 300*time.Millisecond)
		sent1 = st.Generations
		done <- err
	}()
	ep, err := svc.Receiver("O2")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ep.Generations(1) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("session 1 decoded nothing in 5 s")
		}
	}
	if err := svc.AddSession(optimize.Session{ID: 2, Source: "W1", Receivers: []topology.NodeID{"O2"}, MaxDelay: 150 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("session 1's transfer finished before session 2 joined; grow its payload")
	default:
	}
	if after := relayView(svc, 1); !reflect.DeepEqual(before, after) {
		t.Fatalf("session 2's admission touched session 1 at the relays:\nbefore %v\nafter  %v", before, after)
	}
	if svc.Plan().Rates[2] <= 0 {
		t.Fatalf("session 2 admitted without a rate: %v", svc.Plan().Rates)
	}

	sent2 := 0
	send2 := func(listeners ...topology.NodeID) {
		t.Helper()
		data := payload(48 * 1024)
		st, err := svc.Send(2, data, 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		checkDelivered(t, svc, 2, sent2, st.Generations, data, listeners...)
		sent2 += st.Generations
	}
	send2("O2")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkDelivered(t, svc, 1, 0, sent1, big, "O2", "C2")

	if err := svc.AddReceiver(2, "C2"); err != nil {
		t.Fatal(err)
	}
	send2("O2", "C2")
	if err := svc.RemoveReceiver(2, "C2"); err != nil {
		t.Fatal(err)
	}
	send2("O2")
	c2, err := svc.Receiver("C2")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Generations(2) != 0 {
		t.Fatal("C2 still holds session 2 after leaving it")
	}

	if err := svc.RemoveSession(2); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Send(2, []byte{1}, 0); err == nil {
		t.Fatal("send on a removed session")
	}
	for dc, d := range svc.daemons {
		if _, ok := d.VNF().SessionConfigFor(2); ok {
			t.Fatalf("%s still configures session 2", dc)
		}
	}
	data := payload(48 * 1024)
	st, err := svc.Send(1, data, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	checkDelivered(t, svc, 1, sent1, st.Generations, data, "O2", "C2")
}
