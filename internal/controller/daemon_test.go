package controller

import (
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

func TestBuildNodePlansButterfly(t *testing.T) {
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
	params := smallParams()
	plans, err := BuildNodePlans(params, 0, sessions, plan, func(dc topology.NodeID) []string {
		return []string{string(dc) + "/vnf0"}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Source plan: two hop groups (O1, C1) with quota 2 each.
	srcPlan := plans[src]
	if srcPlan == nil {
		t.Fatal("no plan for source")
	}
	hops := SourceHops(plans, src, 1)
	if len(hops) != 2 {
		t.Fatalf("source hop groups = %d, want 2", len(hops))
	}
	for _, h := range hops {
		if h.PerGen != 2 {
			t.Fatalf("source quota = %d, want 2 (35/70 of 4 blocks)", h.PerGen)
		}
	}
	// T merges two branches: recoder with InPerGen 4 and outbound quota 2.
	tp := plans["T"]
	if tp == nil {
		t.Fatal("no plan for T")
	}
	tc := tp.Sessions[1]
	if tc.Role != dataplane.RoleRecoder {
		t.Fatalf("T role = %v, want recoder", tc.Role)
	}
	if tc.InPerGen != 4 {
		t.Fatalf("T InPerGen = %d, want 4", tc.InPerGen)
	}
	if tg := tp.Table[1]; len(tg) != 1 || tg[0].PerGen != 2 {
		t.Fatalf("T out = %+v", tg)
	}
	if tg := tp.Table[1]; tg[0].Addrs[0] != "V2/vnf0" {
		t.Fatalf("T next hop = %v", tg[0].Addrs)
	}
	// Receivers decode.
	for _, r := range dsts {
		rp := plans[r]
		if rp == nil || rp.Sessions[1].Role != dataplane.RoleDecoder {
			t.Fatalf("receiver %s not a decoder", r)
		}
	}
}

func TestBuildNodePlansMissingInstances(t *testing.T) {
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
	if _, err := BuildNodePlans(smallParams(), 0, sessions, plan, func(topology.NodeID) []string {
		return nil
	}); err == nil {
		t.Fatal("missing instances accepted")
	}
}

func TestSourceHopsUnknown(t *testing.T) {
	if hops := SourceHops(nil, "x", 1); hops != nil {
		t.Fatal("unknown source returned hops")
	}
}

func TestBuildNodePlansSkipsZeroRate(t *testing.T) {
	plan := &optimize.Plan{
		Rates:     map[ncproto.SessionID]float64{1: 0},
		LinkFlows: map[ncproto.SessionID]map[[2]topology.NodeID]float64{},
	}
	plans, err := BuildNodePlans(smallParams(), 0, []optimize.Session{{ID: 1, Source: "s"}}, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 0 {
		t.Fatal("zero-rate session produced plans")
	}
}
