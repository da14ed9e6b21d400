package chaostest

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ncfn/internal/buffer"
	"ncfn/internal/controller"
	"ncfn/internal/dataplane"
	"ncfn/internal/leakcheck"
	"ncfn/internal/telemetry"
)

// TestRollingRestartUnderTraffic is the in-process simclock twin of the
// multi-process rolling-restart tier: with generations in flight, every
// relay of the butterfly is drained to quiescence, closed, and redeployed in
// turn — with a network partition injected and healed mid-walk — and both
// sinks must still decode every generation byte-identically. Runs under
// -race with leak checking and pool double-put accounting.
func TestRollingRestartUnderTraffic(t *testing.T) {
	defer leakcheck.Check(t)
	buffer.SetAccounting(true)
	defer buffer.SetAccounting(false)

	c, err := NewButterfly(41)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var want []byte
	sent, err := c.SendGenerations(4)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, sent...)

	relays := RelayNodes()
	for i, node := range relays {
		// Fault injection mid-walk: while one relay restarts, another is
		// partitioned and healed — the walker must not depend on a quiet
		// network.
		victim := relays[(i+1)%len(relays)]
		if i == 1 {
			c.PartitionNode(victim)
		}
		if err := c.RollingRestart(node, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			c.HealNode(victim)
		}
		sent, err := c.SendGenerations(2)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sent...)
	}

	if err := c.WaitAllDecoded(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, sink := range sinkNodes {
		got, ok := c.SinkData(sink)
		if !ok {
			t.Fatalf("%s missing generations after rolling restart", sink)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s delivered bytes differ after rolling restart", sink)
		}
	}

	// Every restart really drained: one drain-start and one drain-quiesced
	// flight event per relay walked (none timed out to a forced close).
	rec := c.Reg.Recorder(dataplane.FlightRecorderName, telemetry.DefaultRecorderCapacity)
	if evs := eventsOf(rec, telemetry.EventDrainStart); len(evs) != len(relays) {
		t.Fatalf("drain-start events = %d, want %d", len(evs), len(relays))
	}
	if evs := eventsOf(rec, telemetry.EventDrainQuiesced); len(evs) != len(relays) {
		t.Fatalf("drain-quiesced events = %d, want %d", len(evs), len(relays))
	}
}

// TestReloadChurnSoak hot-reloads every relay over and over while traffic
// flows: no-op reloads leave live state untouched, alternating versions add
// and remove an inert extra session (settings churn), stale versions are
// refused, and the whole soak never pauses a shard — every table diff rides
// one RCU swap. Both sinks must decode everything sent across the churn.
func TestReloadChurnSoak(t *testing.T) {
	defer leakcheck.Check(t)
	buffer.SetAccounting(true)
	defer buffer.SetAccounting(false)

	rounds := 6
	if testing.Short() {
		rounds = 3
	}

	c, err := NewButterfly(43)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var want []byte
	sent, err := c.SendGenerations(3)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, sent...)

	// Every deploy is a reload too; count only the soak's own.
	rec := c.Reg.Recorder(dataplane.FlightRecorderName, telemetry.DefaultRecorderCapacity)
	deployReloads := len(eventsOf(rec, telemetry.EventReload))
	relays := RelayNodes()
	reloads := 0
	for r := 0; r < rounds; r++ {
		extra := r%2 == 1
		for _, node := range relays {
			f := c.DeployFileFor(node, r+1, extra)
			sum, err := c.Daemon(node).Reload(f, node)
			if err != nil {
				t.Fatalf("round %d reload %s: %v", r, node, err)
			}
			reloads++
			if sum.SessionsUpdated != 0 {
				t.Fatalf("round %d reload %s rewrote the live session: %+v", r, node, sum)
			}
			switch {
			case r == 0:
				// First reload describes exactly the live state: a no-op.
				if sum != (controller.ReloadSummary{Version: 1}) {
					t.Fatalf("round 0 reload %s not a no-op: %+v", node, sum)
				}
			case extra:
				if sum.SessionsAdded != 1 || sum.SessionsRemoved != 0 {
					t.Fatalf("round %d reload %s: extra session not added: %+v", r, node, sum)
				}
			default:
				if sum.SessionsRemoved != 1 || sum.SessionsAdded != 0 {
					t.Fatalf("round %d reload %s: extra session not removed: %+v", r, node, sum)
				}
			}
			// Replaying the same version must be refused, and must not
			// disturb the applied version.
			if _, err := c.Daemon(node).Reload(f, node); !errors.Is(err, controller.ErrStaleVersion) {
				t.Fatalf("round %d stale reload %s = %v, want ErrStaleVersion", r, node, err)
			}
			if got := c.Daemon(node).DeployVersion(); got != r+1 {
				t.Fatalf("round %d %s deploy version = %d, want %d", r, node, got, r+1)
			}
		}
		sent, err := c.SendGenerations(1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sent...)
	}

	if err := c.WaitAllDecoded(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, sink := range sinkNodes {
		got, ok := c.SinkData(sink)
		if !ok {
			t.Fatalf("%s missing generations after reload churn", sink)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s delivered bytes differ after reload churn", sink)
		}
	}

	// One reload flight event per applied reload.
	if evs := eventsOf(rec, telemetry.EventReload); len(evs)-deployReloads != reloads {
		t.Fatalf("reload flight events = %d after %d at deploy, want %d more", len(evs), deployReloads, reloads)
	}
}
