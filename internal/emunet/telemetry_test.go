package emunet

import (
	"testing"

	"ncfn/internal/telemetry"
)

// TestLinkTelemetryCountsTraffic pins per-link utilization accounting: every
// admitted packet bumps the directed link's counter and the network-wide
// aggregate, and the queue-depth gauge is published.
func TestLinkTelemetryCountsTraffic(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := NewNetwork(WithTelemetry(reg))
	defer n.Close()
	a := n.Host("a")
	n.Host("b")
	n.SetLink("a", "b", LinkConfig{})

	const sends = 7
	for i := 0; i < sends; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[MetricNetTxPackets]; got != sends {
		t.Fatalf("net tx = %d, want %d", got, sends)
	}
	if got := snap.Counters[MetricLinkTxPrefix+"a->b"]; got != sends {
		t.Fatalf("link tx = %d, want %d", got, sends)
	}
	if _, ok := snap.Gauges[MetricLinkQueuedPrefix+"a->b"]; !ok {
		t.Fatal("queue-depth gauge missing")
	}
	if snap.Counters[MetricNetDroppedPackets] != 0 {
		t.Fatal("perfect link counted drops")
	}
}

// TestLinkTelemetryCountsDrops pins drop accounting: queue overflow on a
// slow link lands in both the per-link and network-wide drop counters, and
// the link's own LinkStats agree with the telemetry view.
func TestLinkTelemetryCountsDrops(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := NewNetwork(WithTelemetry(reg))
	defer n.Close()
	a := n.Host("a")
	n.Host("b")
	n.SetLink("a", "b", LinkConfig{RateBps: 1e3, QueuePackets: 4})

	pkt := make([]byte, 1000)
	for i := 0; i < 50; i++ {
		if err := a.Send("b", pkt); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := n.LinkStats("a", "b")
	if !ok || st.Dropped == 0 {
		t.Fatalf("link stats = %+v", st)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[MetricLinkDropPrefix+"a->b"]; got != uint64(st.Dropped) {
		t.Fatalf("telemetry link drops = %d, LinkStats = %d", got, st.Dropped)
	}
	if got := snap.Counters[MetricNetDroppedPackets]; got != uint64(st.Dropped) {
		t.Fatalf("net drops = %d, LinkStats = %d", got, st.Dropped)
	}
	if got := snap.Counters[MetricLinkTxPrefix+"a->b"]; got != uint64(st.Sent) {
		t.Fatalf("telemetry link tx = %d, LinkStats sent = %d", got, st.Sent)
	}
}

// TestFaultInjectionTraced pins the fault flight recorder: partitions count
// as injections (value 1), heals are traced with value 0 and do not bump
// the injection counter.
func TestFaultInjectionTraced(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := NewNetwork(WithTelemetry(reg), AllowDefault())
	defer n.Close()
	n.Host("a")
	n.Host("b")

	n.PartitionLink("a", "b")
	n.HealLink("a", "b")
	n.PartitionHost("b")
	n.HealAll()

	snap := reg.Snapshot()
	if got := snap.Counters[MetricNetFaults]; got != 2 {
		t.Fatalf("fault injections = %d, want 2 (one link, one host)", got)
	}
	rec := reg.Recorder(NetFlightName, telemetry.DefaultRecorderCapacity)
	evs := eventsOf(rec, telemetry.EventFault)
	if len(evs) != 4 {
		t.Fatalf("fault events = %d, want 4 (2 injections + 2 heals)", len(evs))
	}
	var injected, healed int
	for _, e := range evs {
		switch e.Value {
		case 1:
			injected++
		case 0:
			healed++
		default:
			t.Fatalf("fault event value = %d", e.Value)
		}
		if e.Node == "" {
			t.Fatal("fault event missing victim label")
		}
	}
	if injected != 2 || healed != 2 {
		t.Fatalf("injected/healed = %d/%d, want 2/2", injected, healed)
	}
}

// TestTelemetryOptionalByDefault pins the zero-cost default: a network
// without WithTelemetry moves packets without touching any registry.
func TestTelemetryOptionalByDefault(t *testing.T) {
	n := NewNetwork(AllowDefault())
	defer n.Close()
	a := n.Host("a")
	n.Host("b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.PartitionHost("b")
	n.HealAll()
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
