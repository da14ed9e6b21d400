package controller

import (
	"errors"
	"testing"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/gf"
	"ncfn/internal/telemetry"
)

// markDraining flips the daemon's drain flag without arming the background
// closer, so drain-refusal paths can be asserted without racing the
// quiescence waiter (an idle VNF quiesces within a poll interval).
func markDraining(d *Daemon) {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
}

// deployV1 is the baseline deployment for the reload tests: two routed
// sessions plus one the next version retires.
func deployV1() *DeployFile {
	return &DeployFile{
		Version: 1,
		Sessions: []DeploySession{
			{
				ID: 1, Blocks: 4, BlockSize: 64,
				Roles:  map[string]string{"node": "recoder"},
				Tables: map[string][]DeployHopGroup{"node": {{Addrs: []string{"a"}}}},
			},
			{
				ID: 2, Blocks: 4, BlockSize: 64,
				Roles:  map[string]string{"node": "forwarder"},
				Tables: map[string][]DeployHopGroup{"node": {{Addrs: []string{"x"}}}},
			},
			{
				ID: 4, Blocks: 4, BlockSize: 64,
				Roles: map[string]string{"node": "forwarder"},
			},
		},
	}
}

// deployV2 evolves deployV1: session 1 keeps its settings but repoints its
// table, session 2 changes redundancy and loses its table entry, session 3
// appears, session 4 disappears.
func deployV2() *DeployFile {
	return &DeployFile{
		Version: 2,
		Sessions: []DeploySession{
			{
				ID: 1, Blocks: 4, BlockSize: 64,
				Roles:  map[string]string{"node": "recoder"},
				Tables: map[string][]DeployHopGroup{"node": {{Addrs: []string{"b"}, PerGen: 2}}},
			},
			{
				ID: 2, Blocks: 4, BlockSize: 64, Redundancy: 1,
				Roles: map[string]string{"node": "forwarder"},
			},
			{
				ID: 3, Blocks: 4, BlockSize: 64,
				Roles: map[string]string{"node": "decoder"},
			},
		},
	}
}

// applyDeploy cold-starts a blank daemon from a deploy file: a Reload of
// an unversioned copy, so the daemon's version stays where it was.
func applyDeploy(t *testing.T, d *Daemon, f *DeployFile, node string) {
	t.Helper()
	unversioned := *f
	unversioned.Version = 0
	if _, err := d.Reload(&unversioned, node); err != nil {
		t.Fatal(err)
	}
}

func TestStartDrainClosesWhenQuiesced(t *testing.T) {
	d, _, _ := testDaemon(t)
	mustApply(t, d, &Message{Signal: NCStart})
	if d.Draining() {
		t.Fatal("fresh daemon reports draining")
	}
	if err := d.StartDrain(time.Second); err != nil {
		t.Fatal(err)
	}
	if !d.Draining() || d.VNF().DrainState() == dataplane.DrainStateRunning {
		t.Fatal("drain did not propagate to daemon and VNF")
	}
	// An idle VNF quiesces immediately; the background waiter then closes
	// the daemon.
	deadline := time.Now().Add(5 * time.Second)
	for !d.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("drained daemon never closed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStartDrainRunsOnClosedHook(t *testing.T) {
	d, _, _ := testDaemon(t)
	mustApply(t, d, &Message{Signal: NCStart})
	done := make(chan struct{})
	if err := d.startDrain(time.Second, func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("onClosed hook never ran")
	}
	if !d.Closed() {
		t.Fatal("hook ran before the daemon closed")
	}
}

// TestClosedWaitsForCloseHook pins what keeps ncd alive under its own exec
// handoff: ncd exits once Closed reports true, so after a drain with a
// post-close hook has closed the daemon, Closed must not answer until the
// hook returns. Without it, a handoff delayed between close and exec lost
// the process to its own exit.
func TestClosedWaitsForCloseHook(t *testing.T) {
	d, _, _ := testDaemon(t)
	entered, release := make(chan struct{}), make(chan struct{})
	if err := d.startDrain(time.Second, func() { close(entered); <-release }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("onClosed hook never ran")
	}
	answered := make(chan bool, 1)
	go func() { answered <- d.Closed() }()
	select {
	case <-answered:
		t.Fatal("Closed answered while the post-close hook was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case closed := <-answered:
		if !closed {
			t.Fatal("Closed = false after the drain closed the daemon")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Closed never answered after the hook returned")
	}
}

func TestStartDrainConflicts(t *testing.T) {
	d, _, _ := testDaemon(t)
	markDraining(d)
	if err := d.StartDrain(time.Second); !errors.Is(err, ErrAlreadyDraining) {
		t.Fatalf("double drain: %v", err)
	}

	closed, _, _ := testDaemon(t)
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closed.StartDrain(time.Second); !errors.Is(err, ErrDaemonClosed) {
		t.Fatalf("drain after close: %v", err)
	}
}

func TestApplyGateWhileDraining(t *testing.T) {
	d, _, _ := testDaemon(t)
	cfg := dataplane.SessionConfig{ID: 1, Params: smallParams(), Role: dataplane.RoleForwarder}
	mustApply(t, d, &Message{Signal: NCSettings, Settings: &cfg})
	mustApply(t, d, &Message{Signal: NCStart})
	markDraining(d)

	if err := d.Apply(&Message{Signal: NCSettings, Settings: &cfg}); !errors.Is(err, ErrAlreadyDraining) {
		t.Fatalf("NC_SETTINGS while draining: %v", err)
	}
	if err := d.Apply(&Message{Signal: NCStart}); !errors.Is(err, ErrAlreadyDraining) {
		t.Fatalf("NC_START while draining: %v", err)
	}
	// Table updates and session teardown stay allowed: upstreams repoint
	// traffic away from a draining node, and the controller may still
	// retire sessions on it.
	mustApply(t, d, &Message{Signal: NCForwardTab, Table: nil})
	mustApply(t, d, &Message{Signal: NCSessionEnd, Session: 1})
	if ids := d.VNF().SessionIDs(); len(ids) != 0 {
		t.Fatalf("session survived NC_SESSION_END: %v", ids)
	}
}

func TestReloadDiff(t *testing.T) {
	d, _, _ := testDaemon(t)
	applyDeploy(t, d, deployV1(), "node")
	swapsBefore := tableSwaps(d)

	sum, err := d.Reload(deployV2(), "node")
	if err != nil {
		t.Fatal(err)
	}
	if sum.SessionsAdded != 1 || sum.SessionsUpdated != 1 || sum.SessionsRemoved != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	// Two table entries changed (session 1 repointed, session 2's entry
	// dropped) in ONE forwarding-table batch: one RCU swap.
	if sum.TableEntriesChanged != 2 {
		t.Fatalf("TableEntriesChanged = %d, want 2", sum.TableEntriesChanged)
	}
	if got := tableSwaps(d) - swapsBefore; got != 1 {
		t.Fatalf("reload used %d table swaps, want 1", got)
	}
	if d.DeployVersion() != 2 {
		t.Fatalf("DeployVersion = %d", d.DeployVersion())
	}

	vnf := d.VNF()
	ids := vnf.SessionIDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("sessions after reload = %v", ids)
	}
	if hops := vnf.Table().AppendNextHops(nil, 1, 0); len(hops) != 1 || hops[0] != "b" {
		t.Fatalf("session 1 next hops = %v", hops)
	}
	if hops := vnf.Table().AppendNextHops(nil, 2, 0); hops != nil {
		t.Fatalf("session 2 kept a table entry: %v", hops)
	}
	if cfg, ok := vnf.SessionConfigFor(2); !ok || cfg.Redundancy != 1 {
		t.Fatalf("session 2 config = %+v ok=%v", cfg, ok)
	}

	// The cold start was the first reload; this one is the second.
	rec := vnf.Telemetry().Recorder(dataplane.FlightRecorderName, telemetry.DefaultRecorderCapacity)
	evs := eventsOf(rec, telemetry.EventReload)
	if len(evs) != 2 {
		t.Fatalf("EventReload count = %d, want the cold start's and this one", len(evs))
	}
	if evs[1].Value != int64(sum.changes()) || evs[1].Value != 5 {
		t.Fatalf("EventReload value = %d, want 5", evs[1].Value)
	}
}

func TestReloadUnchangedIsNoop(t *testing.T) {
	d, _, _ := testDaemon(t)
	f := deployV1()
	f.Version = 0 // unversioned files reload freely
	applyDeploy(t, d, f, "node")
	appliedBefore := applied(d)
	swapsBefore := tableSwaps(d)

	sum, err := d.Reload(f, "node")
	if err != nil {
		t.Fatal(err)
	}
	if sum.changes() != 0 {
		t.Fatalf("no-op reload reported changes: %+v", sum)
	}
	if applied(d) != appliedBefore || tableSwaps(d) != swapsBefore {
		t.Fatal("no-op reload pushed control messages")
	}
}

func TestReloadRefusals(t *testing.T) {
	d, _, _ := testDaemon(t)
	if _, err := d.Reload(deployV2(), "node"); err != nil {
		t.Fatal(err)
	}
	// Same version again, then an older one: both stale.
	if _, err := d.Reload(deployV2(), "node"); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("same-version reload: %v", err)
	}
	if _, err := d.Reload(deployV1(), "node"); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("older-version reload: %v", err)
	}
	// Unversioned files bypass the monotonicity check.
	f := deployV1()
	f.Version = 0
	if _, err := d.Reload(f, "node"); err != nil {
		t.Fatalf("unversioned reload: %v", err)
	}

	markDraining(d)
	if _, err := d.Reload(&DeployFile{Version: 9}, "node"); !errors.Is(err, ErrAlreadyDraining) {
		t.Fatalf("reload while draining: %v", err)
	}
	if d.DeployVersion() != 2 {
		t.Fatalf("refused reloads moved the version: %d", d.DeployVersion())
	}

	closed, _, _ := testDaemon(t)
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := closed.Reload(&DeployFile{}, "node"); !errors.Is(err, ErrDaemonClosed) {
		t.Fatalf("reload after close: %v", err)
	}

	// Invalid files are rejected before any lifecycle bookkeeping.
	bad := &DeployFile{Version: 9, Sessions: []DeploySession{{ID: 1}, {ID: 1}}}
	fresh, _, _ := testDaemon(t)
	if _, err := fresh.Reload(bad, "node"); err == nil {
		t.Fatal("duplicate-session file accepted")
	}
	if fresh.DeployVersion() != 0 {
		t.Fatal("invalid reload claimed a version")
	}
}

func TestParseDeployFile(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		ok   bool
	}{
		{"malformed", `{`, false},
		{"duplicate session", `{"sessions":[{"id":1},{"id":1}]}`, false},
		{"bad role", `{"sessions":[{"id":1,"roles":{"n":"oracle"}}]}`, false},
		{"bad field", `{"sessions":[{"id":1,"field":17}]}`, false},
		{"bad params", `{"sessions":[{"id":1,"blocks":-3}]}`, false},
		// 65537 would be session 1 on the wire.
		{"id past 16 bits", `{"sessions":[{"id":1},{"id":65537}]}`, false},
		{"negative id", `{"sessions":[{"id":-1}]}`, false},
		{"minimal", `{"sessions":[{"id":1,"roles":{"n":"decoder"}}]}`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDeployFile([]byte(tc.raw))
			if (err == nil) != tc.ok {
				t.Fatalf("ParseDeployFile(%s): err=%v want ok=%v", tc.raw, err, tc.ok)
			}
		})
	}
}

// TestReloadBlankDaemon pins what a blank daemon applies when a file first
// reaches it: one NC_SETTINGS per session, one NC_FORWARD_TAB with both
// routed sessions, then NC_START.
func TestReloadBlankDaemon(t *testing.T) {
	f := deployV1()
	d, _, _ := testDaemon(t)
	sum, err := d.Reload(f, "node")
	if err != nil {
		t.Fatal(err)
	}
	if sum.SessionsAdded != 3 || sum.TableEntriesChanged != 2 || sum.changes() != 5 {
		t.Fatalf("cold start summary = %+v", sum)
	}
	if applied(d) != 5 || tableSwaps(d) != 1 || !started(d) {
		t.Fatalf("cold start: %d messages, %d table swaps, started %v", applied(d), tableSwaps(d), started(d))
	}
	if ids := d.VNF().SessionIDs(); len(ids) != 3 {
		t.Fatalf("sessions = %v", ids)
	}

	// A node with no role gets nothing, not even NC_START, even where the
	// file gives it a table entry (a source's).
	f.Sessions[0].Tables["stranger"] = []DeployHopGroup{{Addrs: []string{"node"}}}
	f.Version = 0
	stranger, _, _ := testDaemon(t)
	if _, err := stranger.Reload(f, "stranger"); err != nil {
		t.Fatal(err)
	}
	if applied(stranger) != 0 || started(stranger) {
		t.Fatalf("stranger: %d messages applied, started %v", applied(stranger), started(stranger))
	}

	f.Admin = map[string]string{"node": "127.0.0.1:1"}
	if nodes := f.Nodes(); len(nodes) != 1 || nodes[0] != "node" {
		t.Fatalf("Nodes = %v", nodes)
	}
	tbl := f.NodeTable("node")
	if len(tbl) != 2 || tbl[1][0].Addrs[0] != "a" {
		t.Fatalf("NodeTable = %v", tbl)
	}
}

func TestParseRoleAndField(t *testing.T) {
	if r, err := ParseRole("recoder"); err != nil || r != dataplane.RoleRecoder {
		t.Fatalf("recoder: %v %v", r, err)
	}
	if _, err := ParseRole("custom"); err == nil {
		t.Fatal("unknown role accepted")
	}
	if fld, err := ParseFieldOrder(0); err != nil || fld != gf.GF256 {
		t.Fatalf("default field: %v %v", fld, err)
	}
	if fld, err := ParseFieldOrder(2); err != nil || fld != gf.GF2 {
		t.Fatalf("GF(2): %v %v", fld, err)
	}
	if _, err := ParseFieldOrder(64); err == nil {
		t.Fatal("field order 64 accepted")
	}
}
