package controller

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/simclock"
	"ncfn/internal/topology"
)

var epoch = time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)

// testEnv builds a controller over the butterfly with a virtual clock.
func testEnv(alpha float64) (*Controller, *simclock.Virtual, *cloud.Cloud) {
	g, _, _ := topology.Butterfly()
	clk := simclock.NewVirtual(epoch)
	regions := []cloud.Region{
		{ID: "O1", Provider: "ec2", BaseInMbps: 1000, BaseOutMbps: 1000, LaunchDelay: time.Second},
		{ID: "C1", Provider: "ec2", BaseInMbps: 1000, BaseOutMbps: 1000, LaunchDelay: time.Second},
		{ID: "T", Provider: "ec2", BaseInMbps: 1000, BaseOutMbps: 1000, LaunchDelay: time.Second},
		{ID: "V2", Provider: "ec2", BaseInMbps: 1000, BaseOutMbps: 1000, LaunchDelay: time.Second},
	}
	cl := cloud.New(clk, 7, regions...)
	cfg := Config{
		Optimize: optimize.Config{
			Graph: g,
			DataCenters: []optimize.DataCenter{
				{ID: "O1", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
				{ID: "C1", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
				{ID: "T", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
				{ID: "V2", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
			},
			Alpha:       alpha,
			MaxPathHops: 4,
		},
		Cloud: cl,
		Clock: clk,
		Tau:   10 * time.Minute,
		Tau1:  10 * time.Minute,
		Rho1:  0.05,
	}
	return New(cfg), clk, cl
}

func butterflySession(id int) optimize.Session {
	return optimize.Session{
		ID:        ncSessionID(id),
		Source:    "V1",
		Receivers: []topology.NodeID{"O2", "C2"},
		MaxDelay:  150 * time.Millisecond,
	}
}

// The must* helpers keep test setup terse while failing fast if a call the
// scenario depends on errors out.
func mustAddSession(t *testing.T, c *Controller, s optimize.Session) {
	t.Helper()
	if err := c.AddSession(s); err != nil {
		t.Fatalf("AddSession(%v): %v", s.ID, err)
	}
}

func mustRemoveSession(t *testing.T, c *Controller, id ncproto.SessionID) {
	t.Helper()
	if err := c.RemoveSession(id); err != nil {
		t.Fatalf("RemoveSession(%v): %v", id, err)
	}
}

func mustObserveBandwidth(t *testing.T, c *Controller, dc topology.NodeID, inMbps, outMbps float64) {
	t.Helper()
	if err := c.ObserveBandwidth(dc, inMbps, outMbps); err != nil {
		t.Fatalf("ObserveBandwidth(%v): %v", dc, err)
	}
}

// sessionRate returns λ_m of one adopted session.
func sessionRate(c *Controller, id ncproto.SessionID) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.flows[id]
	if !ok {
		return 0, false
	}
	return f.rate, true
}

func TestAddSessionDeploysAndRates(t *testing.T) {
	c, _, _ := testEnv(1)
	if err := c.AddSession(butterflySession(1)); err != nil {
		t.Fatal(err)
	}
	rate, ok := sessionRate(c, 1)
	if !ok || rate < 69 {
		t.Fatalf("rate = %v, %v; want ~70", rate, ok)
	}
	active, idle := c.VNFCounts()
	if active != 4 || idle != 0 {
		t.Fatalf("VNFs = %d active, %d idle; want 4, 0", active, idle)
	}
}

func TestAddSessionDuplicate(t *testing.T) {
	c, _, _ := testEnv(1)
	if err := c.AddSession(butterflySession(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSession(butterflySession(1)); err == nil {
		t.Fatal("duplicate session accepted")
	}
}

// TestAddSessionBatchIsOneSolve pins joint admission: a batch is admitted
// by one solve, and Plan reports it; an empty batch changes nothing, and a
// batch repeating an ID or naming an admitted session is refused whole.
func TestAddSessionBatchIsOneSolve(t *testing.T) {
	c, _, _ := testEnv(1)
	if err := c.AddSession(); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := c.AddSession(butterflySession(1), butterflySession(1)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("batch repeating an ID: %v", err)
	}
	if err := c.AddSession(butterflySession(2), butterflySession(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSession(butterflySession(4), butterflySession(3)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("batch naming an admitted session: %v", err)
	}
	sessions, plan := c.Plan()
	if len(sessions) != 2 || sessions[0].ID != 2 || sessions[1].ID != 3 {
		t.Fatalf("sessions = %v, want 2 and 3 in ID order", sessions)
	}
	if _, ok := plan.Rates[3]; !ok || plan.Rates[2]+plan.Rates[3] < 69 {
		t.Fatalf("joint admission rates = %v; want both sessions within the 70 Mbps min-cut", plan.Rates)
	}
	if active, _ := c.VNFCounts(); plan.TotalVNFs() != active {
		t.Fatalf("plan VNFs %v, pools hold %d active", plan.VNFs, active)
	}
	for _, id := range []ncproto.SessionID{2, 3} {
		r, _ := sessionRate(c, id)
		if r != plan.Rates[id] || (r > 0 && len(plan.LinkFlows[id]) == 0) {
			t.Fatalf("session %d: plan says %v over %v, controller holds %v", id, plan.Rates[id], plan.LinkFlows[id], r)
		}
	}
}

func TestRemoveSessionScalesIn(t *testing.T) {
	c, clk, cl := testEnv(1)
	if err := c.AddSession(butterflySession(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveSession(1); err != nil {
		t.Fatal(err)
	}
	active, idle := c.VNFCounts()
	if active != 0 {
		t.Fatalf("active = %d after last session removed", active)
	}
	if idle != 4 {
		t.Fatalf("idle = %d, want 4 (waiting out tau)", idle)
	}
	var idleIDs []string
	for _, p := range c.pools {
		for id := range p.idle {
			idleIDs = append(idleIDs, id)
		}
	}
	// After τ the idle VNFs are terminated.
	clk.Advance(11 * time.Minute)
	c.Tick()
	if _, idle := c.VNFCounts(); idle != 0 {
		t.Fatalf("idle = %d after tau", idle)
	}
	for _, id := range idleIDs {
		if st, err := cl.InstanceState(id); err != nil || st == cloud.StateRunning {
			t.Fatalf("%s still running after tau (%v, %v)", id, st, err)
		}
	}
}

func TestRemoveUnknownSession(t *testing.T) {
	c, _, _ := testEnv(1)
	if err := c.RemoveSession(99); err == nil {
		t.Fatal("unknown session removed")
	}
}

func TestTauReuseAvoidsRelaunch(t *testing.T) {
	c, clk, cl := testEnv(1)
	mustAddSession(t, c, butterflySession(1))
	launchesBefore := totalLaunches(c, cl)
	mustRemoveSession(t, c, 1)
	// Demand returns within τ: the idle VNFs must be reused, not
	// relaunched.
	clk.Advance(5 * time.Minute)
	if err := c.AddSession(butterflySession(2)); err != nil {
		t.Fatal(err)
	}
	if got := totalLaunches(c, cl); got != launchesBefore {
		t.Fatalf("launches grew %d -> %d despite idle VNFs within tau", launchesBefore, got)
	}
	active, _ := c.VNFCounts()
	if active != 4 {
		t.Fatalf("active = %d, want 4", active)
	}
}

func totalLaunches(c *Controller, cl *cloud.Cloud) int {
	n := 0
	for dc := range c.pools {
		n += cl.Launches(dc)
	}
	return n
}

func TestSecondSessionSharesCapacity(t *testing.T) {
	c, _, _ := testEnv(1)
	mustAddSession(t, c, butterflySession(1))
	if err := c.AddSession(butterflySession(2)); err != nil {
		t.Fatal(err)
	}
	r1, _ := sessionRate(c, 1)
	r2, _ := sessionRate(c, 2)
	// Session 1's flows are pinned, so session 2 gets leftovers (~0 on
	// the saturated butterfly).
	if r1 < 69 {
		t.Fatalf("pinned session rate dropped to %v", r1)
	}
	if r1+r2 > 71 {
		t.Fatalf("combined rate %v exceeds capacity", r1+r2)
	}
}

func TestAddRemoveReceiver(t *testing.T) {
	c, _, _ := testEnv(1)
	s := optimize.Session{
		ID:        1,
		Source:    "V1",
		Receivers: []topology.NodeID{"O2"},
		MaxDelay:  150 * time.Millisecond,
	}
	if err := c.AddSession(s); err != nil {
		t.Fatal(err)
	}
	r1, _ := sessionRate(c, 1)
	if err := c.AddReceiver(1, "C2"); err != nil {
		t.Fatal(err)
	}
	r2, _ := sessionRate(c, 1)
	if r2 <= 0 || r2 > r1+1e-3 {
		t.Fatalf("rate after receiver join = %v (was %v)", r2, r1)
	}
	if err := c.RemoveReceiver(1, "C2"); err != nil {
		t.Fatal(err)
	}
	r3, _ := sessionRate(c, 1)
	if r3 < r2-1e-3 {
		t.Fatalf("rate after receiver leave = %v (was %v)", r3, r2)
	}
	if err := c.RemoveReceiver(1, "nope"); err == nil {
		t.Fatal("unknown receiver removed")
	}
	if err := c.AddReceiver(9, "C2"); err == nil {
		t.Fatal("receiver added to unknown session")
	}
}

func TestRemoveLastReceiverEndsSession(t *testing.T) {
	c, _, _ := testEnv(1)
	s := optimize.Session{
		ID: 1, Source: "V1",
		Receivers: []topology.NodeID{"O2"},
		MaxDelay:  150 * time.Millisecond,
	}
	mustAddSession(t, c, s)
	if err := c.RemoveReceiver(1, "O2"); err != nil {
		t.Fatal(err)
	}
	if _, ok := sessionRate(c, 1); ok {
		t.Fatal("session survived losing its only receiver")
	}
}

func TestBandwidthDropConfirmedAfterTau1(t *testing.T) {
	c, clk, _ := testEnv(1)
	mustAddSession(t, c, butterflySession(1))
	before, _ := sessionRate(c, 1)

	// A 50% inbound cut at T. First observation: pending only.
	if err := c.ObserveBandwidth("T", 17, 1000); err != nil {
		t.Fatal(err)
	}
	mid, _ := sessionRate(c, 1)
	if mid != before {
		t.Fatal("controller reacted before tau1")
	}
	// Confirmed after τ1.
	clk.Advance(11 * time.Minute)
	if err := c.ObserveBandwidth("T", 17, 1000); err != nil {
		t.Fatal(err)
	}
	after, _ := sessionRate(c, 1)
	// One VNF at T now carries only 17 Mbps inbound; the T->V2 branch is
	// throttled, so either more VNFs are deployed or the rate drops.
	if after > before+1e-3 {
		t.Fatalf("rate rose after bandwidth cut: %v -> %v", before, after)
	}
	c.mu.Lock()
	vnfs := c.baseVNFsLocked()
	c.mu.Unlock()
	if after >= before-1e-3 && vnfs["T"] < 2 {
		t.Fatalf("rate kept at %v but T has only %d VNFs", after, vnfs["T"])
	}
}

func TestBandwidthSpikeIgnored(t *testing.T) {
	c, clk, _ := testEnv(1)
	mustAddSession(t, c, butterflySession(1))
	// Spike: large change observed once, then back to normal.
	mustObserveBandwidth(t, c, "T", 17, 1000)
	clk.Advance(2 * time.Minute)
	mustObserveBandwidth(t, c, "T", 1000, 1000) // back within ρ of nominal
	clk.Advance(20 * time.Minute)
	mustObserveBandwidth(t, c, "T", 17, 1000) // new change, pending restarts
	rate, _ := sessionRate(c, 1)
	if rate < 69 {
		t.Fatalf("spike caused a reaction: rate %v", rate)
	}
}

func TestBandwidthSmallChangeClearsPending(t *testing.T) {
	c, clk, _ := testEnv(1)
	mustAddSession(t, c, butterflySession(1))
	mustObserveBandwidth(t, c, "T", 900, 1000) // >5% change, pending
	clk.Advance(11 * time.Minute)
	mustObserveBandwidth(t, c, "T", 990, 1000) // back within 5%: pending cleared
	clk.Advance(11 * time.Minute)
	mustObserveBandwidth(t, c, "T", 900, 1000) // pending restarts; not confirmed
	rate, _ := sessionRate(c, 1)
	if rate < 69 {
		t.Fatalf("unconfirmed change caused reaction: %v", rate)
	}
}

func TestObserveBandwidthUnknownDC(t *testing.T) {
	c, _, _ := testEnv(1)
	if err := c.ObserveBandwidth("mars", 1, 1); err == nil {
		t.Fatal("unknown DC accepted")
	}
}

func TestEventsRecorded(t *testing.T) {
	c, _, _ := testEnv(1)
	mustAddSession(t, c, butterflySession(1))
	events := c.Events()
	var sawStart, sawVNFStart bool
	for _, e := range events {
		if e.Signal == NCStart {
			sawStart = true
		}
		if e.Signal == NCVNFStart {
			sawVNFStart = true
		}
	}
	if !sawStart || !sawVNFStart {
		t.Fatalf("missing signals in event log: %+v", events)
	}
}

func TestSignalStrings(t *testing.T) {
	names := map[Signal]string{
		NCStart:      "NC_START",
		NCVNFStart:   "NC_VNF_START",
		NCVNFEnd:     "NC_VNF_END",
		NCForwardTab: "NC_FORWARD_TAB",
		NCSettings:   "NC_SETTINGS",
		Signal(0):    "NC_UNKNOWN",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %s, want %s", int(s), s, want)
		}
	}
}

func TestMessageEncodeDecode(t *testing.T) {
	m := &Message{
		Signal:  NCForwardTab,
		Session: 4,
		NumVNFs: 2,
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Signal != m.Signal || got.Session != m.Session || got.NumVNFs != m.NumVNFs {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestDecodeMessageTruncated(t *testing.T) {
	if _, err := DecodeMessage(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := DecodeMessage(bytes.NewReader([]byte{0, 0, 0, 10, 1})); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestDecodeMessageOversized(t *testing.T) {
	if _, err := DecodeMessage(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// ncSessionID keeps session ID literals readable in table construction.
func ncSessionID(id int) ncproto.SessionID { return ncproto.SessionID(id) }

func TestAccessorsAndEffectiveThroughput(t *testing.T) {
	c, _, _ := testEnv(1)
	if err := c.AddSession(butterflySession(1)); err != nil {
		t.Fatal(err)
	}
	if len(c.flows) != 1 || c.flows[1] == nil {
		t.Fatalf("sessions = %v", c.flows)
	}
	if _, plan := c.Plan(); plan.TotalRate() < 69 {
		t.Fatalf("total rate = %v", plan.TotalRate())
	}
	if inst := c.pools["T"].active; len(inst) != 1 {
		t.Fatalf("instances at T = %v", inst)
	}
	in, out := c.LoadPerDC()
	if in["T"] < 30 || out["T"] < 30 {
		t.Fatalf("LoadPerDC T = %v in / %v out, want ~35", in["T"], out["T"])
	}

	// With nominal bandwidth the effective rate equals the planned rate.
	full := c.EffectiveThroughput(func(topology.NodeID) (float64, float64) { return 1000, 1000 })
	if full < 69 {
		t.Fatalf("effective at nominal = %v", full)
	}
	// Halving T's actual bandwidth below its ~35 Mbps load throttles the
	// session through it.
	cut := c.EffectiveThroughput(func(dc topology.NodeID) (float64, float64) {
		if dc == "T" {
			return 17, 17
		}
		return 1000, 1000
	})
	if cut >= full {
		t.Fatalf("effective with cut %v not below nominal %v", cut, full)
	}
	// Zero capacity everywhere floors the estimate at zero.
	if z := c.EffectiveThroughput(func(topology.NodeID) (float64, float64) { return 0, 0 }); z != 0 {
		t.Fatalf("effective at zero capacity = %v", z)
	}
}

func TestConfigDefaults(t *testing.T) {
	// New must fill every zero threshold with the evaluation defaults.
	c := New(Config{})
	if c.cfg.Tau != DefaultTau || c.cfg.Tau1 != DefaultTau {
		t.Fatalf("tau defaults: %+v", c.cfg)
	}
	if c.cfg.Rho1 != 0.05 {
		t.Fatalf("rho defaults: %+v", c.cfg)
	}
	if c.cfg.Clock == nil {
		t.Fatal("clock default missing")
	}
}

func TestRelChange(t *testing.T) {
	if relChange(0, 0) != 0 {
		t.Fatal("0->0 should be no change")
	}
	if relChange(0, 5) != 1 {
		t.Fatal("0->x should be a full change")
	}
	if got := relChange(100, 90); got < 0.099 || got > 0.101 {
		t.Fatalf("relChange(100,90) = %v", got)
	}
	if got := relChange(100, 110); got < 0.099 || got > 0.101 {
		t.Fatalf("relChange(100,110) = %v", got)
	}
}

func TestDepartureKeepsRatesWhenRaisingIsWorthless(t *testing.T) {
	// Two sessions saturate the butterfly; session 2 holds ~0 rate. When
	// session 2 leaves, raising session 1 is impossible (it already has
	// the full 70), so the controller takes the g2 branch: retain rates,
	// keep the minimum deployment.
	c, _, _ := testEnv(5)
	mustAddSession(t, c, butterflySession(1))
	mustAddSession(t, c, butterflySession(2))
	before, _ := sessionRate(c, 1)
	if before < 69 {
		t.Fatalf("session 1 rate = %v, want ~70", before)
	}
	if err := c.RemoveSession(2); err != nil {
		t.Fatal(err)
	}
	after, _ := sessionRate(c, 1)
	if after < before-1 {
		t.Fatalf("survivor's rate dropped: %v -> %v", before, after)
	}
	active, _ := c.VNFCounts()
	if active != 4 {
		t.Fatalf("active VNFs = %d after departure, want 4", active)
	}
}
