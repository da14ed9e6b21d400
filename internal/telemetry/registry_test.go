package telemetry

import (
	"encoding/json"
	"expvar"
	"strings"
	"testing"
)

func TestRegistryIdempotentConstructors(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("rx", 4)
	c2 := r.Counter("rx", 16) // cells ignored on the second ask
	if c1 != c2 {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("depth", 2) != r.Gauge("depth", 2) {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("lat") != r.Histogram("lat") {
		t.Fatal("Histogram not idempotent")
	}
	if r.Recorder("flight", 64) != r.Recorder("flight", 128) {
		t.Fatal("Recorder not idempotent")
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("rx_packets", 4).Add(0, 42)
	r.Counter("rx_packets", 4).Add(3, 8)
	r.Gauge("queue_depth", 2).Set(0, 7)
	r.GaugeFunc("goroutines", func() int64 { return 11 })
	h := r.Histogram("decode_ns")
	h.Observe(1000)
	h.Observe(2000)
	rec := r.Recorder("flight", 16)
	rec.Record(5, EventFailover, "T", 0, 0, 35_000_000_000)

	s := r.Snapshot()
	if s.Counters["rx_packets"] != 50 {
		t.Fatalf("counter = %d", s.Counters["rx_packets"])
	}
	if s.Gauges["queue_depth"] != 7 || s.Gauges["goroutines"] != 11 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if s.Histograms["decode_ns"].Count != 2 || s.Histograms["decode_ns"].Sum != 3000 {
		t.Fatalf("histogram = %+v", s.Histograms["decode_ns"])
	}
	if len(s.Events) != 1 || s.Events[0].Type != EventFailover || s.Events[0].Node != "T" {
		t.Fatalf("events = %+v", s.Events)
	}

	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if !strings.Contains(string(raw), `"failover"`) {
		t.Fatalf("event type not rendered by name: %s", raw)
	}
}

func TestRegistryMultipleRecordersMergeOrdered(t *testing.T) {
	r := NewRegistry()
	a := r.Recorder("a", 8)
	b := r.Recorder("b", 8)
	a.Record(1, EventPause, "x", 0, 0, 0)
	b.Record(2, EventResume, "x", 0, 0, 0)
	a.Record(3, EventPause, "y", 0, 0, 0)
	evs := r.Snapshot().Events
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	// Sequences are per-recorder, so the merged view orders by Seq with
	// ties broken by recorder name order; what matters is determinism.
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Seq > evs[i].Seq {
			t.Fatalf("merged events unsorted: %+v", evs)
		}
	}
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits", 1).Add(0, 3)
	r.PublishExpvar("telemetry_test_registry")
	// Publishing the same name again must be a no-op, not a panic.
	r.PublishExpvar("telemetry_test_registry")
	v := expvar.Get("telemetry_test_registry")
	if v == nil {
		t.Fatal("expvar not published")
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar payload not a snapshot: %v", err)
	}
	if s.Counters["hits"] != 3 {
		t.Fatalf("expvar snapshot = %+v", s)
	}
}
