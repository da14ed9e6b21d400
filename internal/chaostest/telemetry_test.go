package chaostest

import (
	"testing"

	"ncfn/internal/cloud"
	"ncfn/internal/controller"
	"ncfn/internal/leakcheck"
	"ncfn/internal/telemetry"
)

// TestFlightRecorderMatchesFailoverLog is the determinism pin of the
// observability tier: the failover durations captured in the supervisor's
// flight recorder must equal the Supervisor's own FailoverEvent log
// tick-for-tick — same nodes, in the same order, with nanosecond-identical
// durations and recovery timestamps under the virtual clock.
func TestFlightRecorderMatchesFailoverLog(t *testing.T) {
	leakcheck.Check(t)
	c, err := NewButterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.SendGenerations(2); err != nil {
		t.Fatal(err)
	}

	// Two sequential crashes, each fully recovered before the next.
	for i, node := range []string{"T", "C1"} {
		if err := c.CrashVNF(node); err != nil {
			t.Fatal(err)
		}
		if c.RunTicksUntilRecovered(i+1, 200) < 0 {
			t.Fatalf("supervisor never recovered %s", node)
		}
	}

	logEvents := c.Sup.Events()
	if len(logEvents) != 2 {
		t.Fatalf("failover log has %d events, want 2", len(logEvents))
	}

	rec := c.Reg.Recorder(controller.SupervisorFlightName, telemetry.DefaultRecorderCapacity)
	var completed []telemetry.Event
	for _, e := range eventsOf(rec, telemetry.EventFailover) {
		// Abandoned failovers are traced with a negative value; completed
		// recoveries carry the duration in nanoseconds.
		if e.Value >= 0 {
			completed = append(completed, e)
		}
	}
	if len(completed) != len(logEvents) {
		t.Fatalf("recorder has %d completed failovers, log has %d", len(completed), len(logEvents))
	}

	for i, ev := range logEvents {
		re := completed[i]
		if re.Node != string(ev.Node) {
			t.Fatalf("event %d: recorder node %q, log node %q", i, re.Node, ev.Node)
		}
		wantDur := ev.RecoveredAt.Sub(ev.DetectedAt).Nanoseconds()
		if re.Value != wantDur {
			t.Fatalf("event %d: recorder duration %d ns, log duration %d ns", i, re.Value, wantDur)
		}
		if re.Time != ev.RecoveredAt.UnixNano() {
			t.Fatalf("event %d: recorder stamp %d, log RecoveredAt %d", i, re.Time, ev.RecoveredAt.UnixNano())
		}
		if wantDur < cloud.DefaultLaunchDelay.Nanoseconds() {
			t.Fatalf("event %d: duration %d ns shorter than the launch latency — clock wiring broken", i, wantDur)
		}
	}

	// The snapshot view agrees: two completed failovers counted, both
	// durations observed by the histogram.
	snap := c.Reg.Snapshot()
	if got := snap.Counters[controller.MetricFailoversDone]; got != 2 {
		t.Fatalf("failovers-done counter = %d, want 2", got)
	}
	if got := snap.Histograms[controller.MetricFailoverNs].Count; got != 2 {
		t.Fatalf("failover histogram count = %d, want 2", got)
	}
}

// TestClusterTelemetrySeesEveryLayer pins the shared-registry architecture:
// one butterfly registry carries dataplane counters, cloud launch/crash
// accounting, and emunet fault traces after a crash-and-recover cycle.
func TestClusterTelemetrySeesEveryLayer(t *testing.T) {
	leakcheck.Check(t)
	c, err := NewButterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.SendGenerations(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitAllDecoded(decodeTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashVNF("T"); err != nil {
		t.Fatal(err)
	}
	c.PartitionNode("O1")
	c.HealNode("O1")
	if c.RunTicksUntilRecovered(1, 200) < 0 {
		t.Fatal("supervisor never recovered T")
	}

	snap := c.Reg.Snapshot()
	// Dataplane: relays moved packets through the shared registry.
	if snap.Counters["dataplane_rx_packets"] == 0 || snap.Counters["dataplane_tx_packets"] == 0 {
		t.Fatalf("dataplane counters empty: %v", snap.Counters)
	}
	// Cloud: the initial fleet plus the replacement launched, one crash.
	if got := snap.Counters[cloud.MetricLaunches]; got < uint64(len(RelayNodes())+1) {
		t.Fatalf("cloud launches = %d, want >= %d", got, len(RelayNodes())+1)
	}
	if snap.Counters[cloud.MetricCrashes] != 1 {
		t.Fatalf("cloud crashes = %d, want 1", snap.Counters[cloud.MetricCrashes])
	}
	// Emunet: traffic flowed and the partition round-trip left fault traces.
	if snap.Counters["emunet_tx_packets"] == 0 {
		t.Fatal("emunet tx counter empty")
	}
	if snap.Counters["emunet_fault_injections"] == 0 {
		t.Fatal("emunet fault counter empty")
	}
	// Cloud flight recorder saw the injected crash.
	crashRec := c.Reg.Recorder(cloud.CloudFlightName, telemetry.DefaultRecorderCapacity)
	if len(eventsOf(crashRec, telemetry.EventFault)) == 0 {
		t.Fatal("cloud flight recorder has no fault events")
	}
}

// eventsOf returns r's retained events of one type, in sequence order.
func eventsOf(r *telemetry.Recorder, typ telemetry.EventType) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range r.Snapshot() {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}
