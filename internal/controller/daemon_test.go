package controller

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
	"ncfn/internal/topology"
)

func testDaemon(t *testing.T) (*Daemon, *simclock.Virtual, *emunet.Network) {
	t.Helper()
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	clk := simclock.NewVirtual(epoch)
	d := NewDaemon(n.Host("node"), clk)
	t.Cleanup(func() { d.Close() })
	return d, clk, n
}

// mustApply fails the test if a setup signal the scenario depends on is
// rejected by the daemon.
func mustApply(t *testing.T, d *Daemon, m *Message) {
	t.Helper()
	if err := d.Apply(m); err != nil {
		t.Fatalf("Apply(%v): %v", m.Signal, err)
	}
}

func smallParams() rlnc.Params {
	return rlnc.Params{GenerationBlocks: 4, BlockSize: 64}
}

// applied counts the control messages the daemon has applied: one
// apply-latency observation each.
func applied(d *Daemon) uint64 {
	return d.VNF().Telemetry().Histogram(MetricApplyNs).Count()
}

// tableSwaps counts the forwarding-table swaps the daemon's VNF has made.
func tableSwaps(d *Daemon) uint64 {
	return d.VNF().Telemetry().Counter(dataplane.MetricTableSwaps, 1).Value()
}

func TestDaemonSettingsAndStart(t *testing.T) {
	d, _, _ := testDaemon(t)
	cfg := dataplane.SessionConfig{ID: 1, Params: smallParams(), Role: dataplane.RoleRecoder}
	if err := d.Apply(&Message{Signal: NCSettings, Settings: &cfg}); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(&Message{Signal: NCStart}); err != nil {
		t.Fatal(err)
	}
	if n := applied(d); n != 2 || !d.started {
		t.Fatalf("applied=%d started=%v", n, d.started)
	}
}

func TestDaemonSettingsRequired(t *testing.T) {
	d, _, _ := testDaemon(t)
	if err := d.Apply(&Message{Signal: NCSettings}); err == nil {
		t.Fatal("NC_SETTINGS without payload accepted")
	}
	if err := d.Apply(&Message{Signal: Signal(42)}); err == nil {
		t.Fatal("unknown signal accepted")
	}
}

func TestDaemonForwardTab(t *testing.T) {
	d, _, _ := testDaemon(t)
	mustApply(t, d, &Message{Signal: NCStart})
	err := d.Apply(&Message{
		Signal: NCForwardTab,
		Table:  map[ncproto.SessionID][]dataplane.HopGroup{1: {{Addrs: []string{"next"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := tableSwaps(d); n != 1 {
		t.Fatalf("table swaps = %d", n)
	}
	if d.VNF().Table().AppendNextHops(nil, 1, 0)[0] != "next" {
		t.Fatal("table not applied")
	}
}

func TestDaemonTauShutdown(t *testing.T) {
	d, clk, _ := testDaemon(t)
	mustApply(t, d, &Message{Signal: NCStart})
	if err := d.Apply(&Message{Signal: NCVNFEnd, ShutdownAfter: 10 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	if d.Closed() {
		t.Fatal("daemon closed before tau")
	}
	clk.Advance(11 * time.Minute)
	deadline := time.Now().Add(5 * time.Second)
	for !d.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("daemon did not shut down after tau")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDaemonReuseCancelsShutdown(t *testing.T) {
	d, clk, _ := testDaemon(t)
	mustApply(t, d, &Message{Signal: NCStart})
	mustApply(t, d, &Message{Signal: NCVNFEnd, ShutdownAfter: 10 * time.Minute})
	// Demand returns within τ: NC_START cancels the pending shutdown.
	clk.Advance(5 * time.Minute)
	if err := d.Apply(&Message{Signal: NCStart}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Minute)
	time.Sleep(20 * time.Millisecond)
	if d.Closed() {
		t.Fatal("reused daemon shut down anyway")
	}
}

func TestDaemonApplyAfterClose(t *testing.T) {
	d, _, _ := testDaemon(t)
	d.Close()
	if err := d.Apply(&Message{Signal: NCStart}); err == nil {
		t.Fatal("apply after close accepted")
	}
	if err := d.Close(); err != nil {
		t.Fatal("second close errored")
	}
}

func TestDaemonVNFStartNoop(t *testing.T) {
	d, _, _ := testDaemon(t)
	if err := d.Apply(&Message{Signal: NCVNFStart, NumVNFs: 3}); err != nil {
		t.Fatal(err)
	}
}

// solveButterfly solves the paper's butterfly with every relay a candidate
// data center.
func solveButterfly(t *testing.T) ([]optimize.Session, *optimize.Plan) {
	t.Helper()
	g, src, dsts := topology.Butterfly()
	cfg := optimize.Config{
		Graph: g,
		DataCenters: []optimize.DataCenter{
			{ID: "O1", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
			{ID: "C1", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
			{ID: "T", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
			{ID: "V2", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
		},
		Alpha:       0.1,
		MaxPathHops: 4,
	}
	sessions := []optimize.Session{{
		ID: 1, Source: src, Receivers: dsts, MaxDelay: 150 * time.Millisecond,
	}}
	plan, err := optimize.Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	return sessions, plan
}

// requireDocument checks that a planner output is a deploy file ncctl
// accepts: it validates, and it survives a JSON round trip unchanged.
func requireDocument(t *testing.T, f *DeployFile) {
	t.Helper()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDeployFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, f) {
		t.Fatalf("JSON round trip changed the file:\n%+v\n%+v", f, back)
	}
}

func TestBuildDeployFileButterfly(t *testing.T) {
	sessions, plan := solveButterfly(t)
	f, err := BuildDeployFile(smallParams(), 0, sessions, plan, func(dc topology.NodeID) []string {
		return []string{string(dc) + "/vnf0"}
	})
	if err != nil {
		t.Fatal(err)
	}
	requireDocument(t, f)
	if len(f.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(f.Sessions))
	}
	s := f.Sessions[0]
	if s.ID != 1 || s.Blocks != 4 || s.BlockSize != 64 || s.Field != 256 || s.Redundancy != 0 {
		t.Fatalf("session header = %+v", s)
	}
	// Sec. IV-A: the single-flow relays forward; only T, which merges two
	// branches into one, codes. The source plays no VNF role.
	wantRoles := map[string]string{
		"O1": "forwarder", "C1": "forwarder", "V2": "forwarder",
		"T":  "recoder",
		"O2": "decoder", "C2": "decoder",
	}
	if !reflect.DeepEqual(s.Roles, wantRoles) {
		t.Fatalf("roles = %v, want %v", s.Roles, wantRoles)
	}
	if s.InPerGen["T"] != 4 {
		t.Fatalf("T InPerGen = %d, want 4", s.InPerGen["T"])
	}
	if tg := s.Tables["T"]; len(tg) != 1 || tg[0].PerGen != 2 || len(tg[0].Addrs) != 1 || tg[0].Addrs[0] != "V2/vnf0" {
		t.Fatalf("T table = %+v, want one group of 2 to V2/vnf0", tg)
	}
	// The source's entry: two groups (O1, C1) of 2 each (35/70 of 4 blocks).
	hops := f.NodeTable("V1")[1]
	if len(hops) != 2 {
		t.Fatalf("source hop groups = %d, want 2", len(hops))
	}
	for _, h := range hops {
		if h.PerGen != 2 {
			t.Fatalf("source quota = %d, want 2", h.PerGen)
		}
	}
}

func TestBuildDeployFileMissingInstances(t *testing.T) {
	sessions, plan := solveButterfly(t)
	if _, err := BuildDeployFile(smallParams(), 0, sessions, plan, func(topology.NodeID) []string {
		return nil
	}); err == nil {
		t.Fatal("missing instances accepted")
	}
}

func TestDeployFileUnknownNode(t *testing.T) {
	sessions, plan := solveButterfly(t)
	f, err := BuildDeployFile(smallParams(), 0, sessions, plan, func(dc topology.NodeID) []string {
		return []string{string(dc)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hops := f.NodeTable("x")[1]; hops != nil {
		t.Fatal("unknown node returned hops")
	}
	if msgs, err := f.ColdStart("x"); err != nil || msgs != nil {
		t.Fatalf("unknown node messages = %v, %v", msgs, err)
	}
}

func TestBuildDeployFileSkipsZeroRate(t *testing.T) {
	plan := &optimize.Plan{
		Rates:     map[ncproto.SessionID]float64{1: 0},
		LinkFlows: map[ncproto.SessionID]map[[2]topology.NodeID]float64{},
	}
	f, err := BuildDeployFile(smallParams(), 0, []optimize.Session{{ID: 1, Source: "s"}}, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sessions) != 0 {
		t.Fatal("zero-rate session produced a session entry")
	}
}

// TestBuildDeployFileSharedReceiver plans two sessions that terminate at the
// same receiver through one data center: each gets its own entry, and the
// file is one ncctl accepts.
func TestBuildDeployFileSharedReceiver(t *testing.T) {
	g := topology.New()
	g.AddNode("s1", topology.Source)
	g.AddNode("s2", topology.Source)
	g.AddNode("dc", topology.DataCenter)
	g.AddNode("sink", topology.Destination)
	for _, l := range []topology.Link{
		{From: "s1", To: "dc", CapacityMbps: 100, Delay: time.Millisecond},
		{From: "s2", To: "dc", CapacityMbps: 100, Delay: time.Millisecond},
		{From: "dc", To: "sink", CapacityMbps: 100, Delay: time.Millisecond},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	var sessions []optimize.Session
	for i, src := range []topology.NodeID{"s1", "s2"} {
		sessions = append(sessions, optimize.Session{
			ID:        ncproto.SessionID(i + 1),
			Source:    src,
			Receivers: []topology.NodeID{"sink"},
			MaxDelay:  100 * time.Millisecond,
			RateCap:   30,
		})
	}
	plan, err := optimize.Solve(optimize.Config{
		Graph:       g,
		DataCenters: []optimize.DataCenter{{ID: "dc", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500}},
		Alpha:       1,
		MaxPathHops: 4,
	}, sessions)
	if err != nil {
		t.Fatal(err)
	}
	f, err := BuildDeployFile(rlnc.Params{GenerationBlocks: 4, BlockSize: 128}, 0, sessions, plan, func(dc topology.NodeID) []string {
		return []string{string(dc)}
	})
	if err != nil {
		t.Fatal(err)
	}
	requireDocument(t, f)
	if len(f.Sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(f.Sessions))
	}
	for _, s := range f.Sessions {
		if s.Roles["dc"] != "forwarder" || s.Roles["sink"] != "decoder" {
			t.Fatalf("session %d roles = %v", s.ID, s.Roles)
		}
	}
	msgs, err := f.ColdStart("dc")
	if err != nil {
		t.Fatal(err)
	}
	// Per session NC_SETTINGS, one NC_FORWARD_TAB for both, then NC_START.
	if len(msgs) != 4 || len(msgs[2].Table) != 2 || msgs[3].Signal != NCStart {
		t.Fatalf("dc cold start = %d messages", len(msgs))
	}
}
