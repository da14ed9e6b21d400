package procnet

import (
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildOnce compiles the real binaries once per test run (the go build
// cache makes repeats cheap).
func buildOnce(t *testing.T) Binaries {
	t.Helper()
	bins, err := Build(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bins
}

func startOne(t *testing.T, bins Binaries, name string) *Daemon {
	t.Helper()
	d, err := StartDaemon(bins.Ncd, name, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

// TestDrainExitsProcess drives a real ncd through the admin drain path:
// POST /drain, observe the drain-state gauge, and watch the process exit
// cleanly once quiesced.
func TestDrainExitsProcess(t *testing.T) {
	bins := buildOnce(t)
	d := startOne(t, bins, "drainee")

	if err := admin.WaitHealthy(d.Admin, time.Now()); err != nil {
		t.Fatalf("fresh daemon: %v", err)
	}
	if err := d.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitExit(10 * time.Second); err != nil {
		t.Fatalf("drained ncd exit: %v", err)
	}
}

// TestSigtermDrainsProcess sends a real SIGTERM: the daemon must drain and
// exit zero rather than dying on the default signal handler.
func TestSigtermDrainsProcess(t *testing.T) {
	bins := buildOnce(t)
	d := startOne(t, bins, "terminated")
	if err := d.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitExit(10 * time.Second); err != nil {
		t.Fatalf("SIGTERM exit: %v\n%s", err, d.Output())
	}
	if !strings.Contains(d.Output(), "draining") {
		t.Fatalf("no drain logged on SIGTERM:\n%s", d.Output())
	}
}

// TestRestartHandoff exercises the exec-handoff restart: the replacement
// process must come back healthy on the same data and admin addresses
// without the harness's Wait firing.
func TestRestartHandoff(t *testing.T) {
	bins := buildOnce(t)
	d := startOne(t, bins, "phoenix")
	data, adminAddr := d.Data, d.Admin

	if err := d.Restart(5*time.Second, 30*time.Second); err != nil {
		t.Fatalf("%v\n%s", err, d.Output())
	}
	if d.exited() {
		t.Fatal("exec handoff reaped the process")
	}
	if d.Data != data || d.Admin != adminAddr {
		t.Fatal("restart changed addresses")
	}
	// The replacement serves stats on the same admin address and reports a
	// fresh (running) lifecycle.
	snap, err := Stats(d.Admin)
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if len(snap.Counters) == 0 && len(snap.Gauges) == 0 {
		t.Fatal("replacement serves an empty registry")
	}
	if err := admin.WaitHealthy(d.Admin, time.Now()); err != nil {
		t.Fatalf("replacement: %v", err)
	}
	// A second restart proves the handoff rearms itself.
	if err := d.Restart(5*time.Second, 30*time.Second); err != nil {
		t.Fatalf("second restart: %v\n%s", err, d.Output())
	}
	// Graceful teardown still works on the twice-restarted process.
	if err := d.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitExit(10 * time.Second); err != nil {
		t.Fatalf("final exit: %v\n%s", err, d.Output())
	}
}
