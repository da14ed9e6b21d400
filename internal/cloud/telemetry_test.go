package cloud

import (
	"testing"
	"time"

	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
)

// TestCloudTelemetryAccounting pins the provider's instrument set: launches,
// injected launch failures, and crashes all land in the attached registry,
// and injected faults are traced in the flight recorder with virtual-clock
// timestamps.
func TestCloudTelemetryAccounting(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	c := New(clk, 1, Region{ID: "oregon", BaseInMbps: 900, BaseOutMbps: 900})
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(reg)

	inst, err := c.LaunchInstance("oregon")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(DefaultLaunchDelay)

	c.FailLaunches("oregon", 1)
	if _, err := c.LaunchInstance("oregon"); err == nil {
		t.Fatal("injected launch failure did not fail")
	}
	if err := c.CrashInstance(inst.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartInstance(inst.ID); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	// One initial launch plus the restart; the injected failure is counted
	// separately.
	if got := snap.Counters[MetricLaunches]; got != 2 {
		t.Fatalf("launches = %d, want 2", got)
	}
	if got := snap.Counters[MetricLaunchFailures]; got != 1 {
		t.Fatalf("launch failures = %d, want 1", got)
	}
	if got := snap.Counters[MetricCrashes]; got != 1 {
		t.Fatalf("crashes = %d, want 1", got)
	}

	rec := reg.Recorder(CloudFlightName, telemetry.DefaultRecorderCapacity)
	evs := eventsOf(rec, telemetry.EventFault)
	if len(evs) != 2 {
		t.Fatalf("fault events = %d, want 2 (failed launch + crash)", len(evs))
	}
	for _, e := range evs {
		if e.Time < 0 || e.Node == "" {
			t.Fatalf("malformed fault event: %+v", e)
		}
	}

	// Nil registry detaches nothing and panics nowhere.
	c.AttachTelemetry(nil)
	if _, err := c.LaunchInstance("oregon"); err != nil {
		t.Fatal(err)
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
