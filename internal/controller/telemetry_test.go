package controller

import (
	"context"
	"testing"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
)

// TestSupervisorTelemetryCompletedFailover pins the recovery accounting: a
// crash-and-recover cycle must count one completed failover, observe its
// duration, and trace one completed failover event whose value equals the
// logged DetectedAt→RecoveredAt span.
func TestSupervisorTelemetryCompletedFailover(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	cl := cloud.New(clk, 1, cloud.Region{ID: "oregon", BaseInMbps: 900, BaseOutMbps: 900})
	inst, err := cl.LaunchInstance("oregon")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(cloud.DefaultLaunchDelay)
	reg := telemetry.NewRegistry()
	sup := NewSupervisor(SupervisorConfig{Cloud: cl, Clock: clk, FailThreshold: 2, Telemetry: reg})
	sup.Manage("T", "oregon", inst.ID, InstanceCheck(cl), func(context.Context, string) error { return nil })

	if err := cl.CrashInstance(inst.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 45 && len(sup.Events()) == 0; i++ {
		sup.Tick()
		clk.Advance(time.Second)
	}
	events := sup.Events()
	if len(events) != 1 || events[0].Err != nil {
		t.Fatalf("events = %+v, want one clean failover", events)
	}

	snap := reg.Snapshot()
	if snap.Counters[MetricFailoversDone] != 1 {
		t.Fatalf("done counter = %d, want 1", snap.Counters[MetricFailoversDone])
	}
	if snap.Counters[MetricFailoversAbandoned] != 0 {
		t.Fatal("abandoned counter advanced on a clean recovery")
	}
	wantDur := events[0].RecoveredAt.Sub(events[0].DetectedAt).Nanoseconds()
	h := snap.Histograms[MetricFailoverNs]
	if h.Count != 1 || h.Sum != wantDur {
		t.Fatalf("duration histogram count=%d sum=%d, want 1/%d", h.Count, h.Sum, wantDur)
	}
	rec := reg.Recorder(SupervisorFlightName, telemetry.DefaultRecorderCapacity)
	evs := eventsOf(rec, telemetry.EventFailover)
	if len(evs) != 1 || evs[0].Value != wantDur || evs[0].Node != "T" {
		t.Fatalf("recorder failover events = %+v, want value %d at node T", evs, wantDur)
	}
}

// TestSupervisorTelemetryRetriesAndAbandon pins the retry path: with the
// region out of capacity, every scheduled relaunch traces a retry event and
// the final abandonment is counted and marked with a negative value so it
// never masquerades as a completed recovery.
func TestSupervisorTelemetryRetriesAndAbandon(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	cl := cloud.New(clk, 1, cloud.Region{ID: "oregon", BaseInMbps: 900, BaseOutMbps: 900})
	inst, err := cl.LaunchInstance("oregon")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(cloud.DefaultLaunchDelay)
	reg := telemetry.NewRegistry()
	retry := RetryPolicy{MaxAttempts: 3, BaseDelay: 2 * time.Second, MaxDelay: 8 * time.Second}
	sup := NewSupervisor(SupervisorConfig{Cloud: cl, Clock: clk, Retry: retry, FailThreshold: 2, Telemetry: reg})
	sup.Manage("T", "oregon", inst.ID, InstanceCheck(cl), func(context.Context, string) error { return nil })

	cl.FailLaunches("oregon", 100)
	if err := cl.CrashInstance(inst.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60 && len(sup.Events()) == 0; i++ {
		sup.Tick()
		clk.Advance(time.Second)
	}
	if len(sup.Events()) != 1 || sup.Events()[0].Err == nil {
		t.Fatalf("events = %+v, want one abandoned failover", sup.Events())
	}

	snap := reg.Snapshot()
	if snap.Counters[MetricFailoversAbandoned] != 1 {
		t.Fatalf("abandoned counter = %d, want 1", snap.Counters[MetricFailoversAbandoned])
	}
	if snap.Counters[MetricFailoversDone] != 0 {
		t.Fatal("done counter advanced on an abandoned failover")
	}
	// Attempts 2 and 3 are scheduled retries (attempt 1 fires immediately
	// on detection).
	if got := snap.Counters[MetricRetryAttempts]; got != 2 {
		t.Fatalf("retry counter = %d, want 2", got)
	}
	rec := reg.Recorder(SupervisorFlightName, telemetry.DefaultRecorderCapacity)
	retries := eventsOf(rec, telemetry.EventRetry)
	if len(retries) != 2 {
		t.Fatalf("retry events = %d, want 2", len(retries))
	}
	failovers := eventsOf(rec, telemetry.EventFailover)
	if len(failovers) != 1 || failovers[0].Value >= 0 {
		t.Fatalf("abandoned failover events = %+v, want one with negative value", failovers)
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
