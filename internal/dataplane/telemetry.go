package dataplane

import (
	"ncfn/internal/gf"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
)

// Telemetry instrument names. Every VNF owns one set of instruments in its
// registry (private by default, shared when the daemon passes one in via
// WithTelemetry); `ncctl stats` and the admin endpoint read them by these
// names.
const (
	MetricRxPackets       = "dataplane_rx_packets"
	MetricTxPackets       = "dataplane_tx_packets"
	MetricDroppedPackets  = "dataplane_dropped_packets"
	MetricGenerationsDone = "dataplane_generations_decoded"
	MetricRecoded         = "dataplane_recoded_emissions"
	MetricForwarded       = "dataplane_forwarded_packets"
	MetricBatchPackets    = "dataplane_batch_packets"
	MetricDecodeLatencyNs = "dataplane_decode_latency_ns"
	MetricShardQueueDepth = "dataplane_shard_queue_depth"
	FlightRecorderName    = "dataplane_flight"

	// Dependent (non-innovative) received packets, split by coefficient
	// field: a dependent arrival consumed link capacity but advanced no
	// decoder or recoder rank. Small fields trade exactly this overhead for
	// cheaper coding (Sec. III-B); the field-sweep experiment reads these
	// counters to measure the trade.
	MetricDependentGF2   = "dataplane_dependent_gf2_packets"
	MetricDependentGF256 = "dataplane_dependent_gf256_packets"

	// MetricDeliveryOverflow counts decoded generations whose bytes were
	// thrown away because the application was not draining Deliveries().
	// They are also counted in MetricGenerationsDone: the decode happened.
	MetricDeliveryOverflow = "dataplane_delivery_overflow"

	// Generation-index accounting (always on). SessionBytes gauges the
	// estimated coding-state bytes retained across live generations and
	// pooled spare records; LiveGenerations gauges tracked (session,
	// generation) states; GenerationsEvicted counts LRU/TTL/byte-cap
	// evictions (WithSessionStore; FIFO retirement at the buffer capacity is
	// not an eviction); EvictedDrops counts late packets that arrived for an
	// already-evicted generation (dropped, never resurrected).
	MetricSessionBytes       = "dataplane_session_bytes"
	MetricLiveGenerations    = "dataplane_live_generations"
	MetricGenerationsEvicted = "dataplane_generations_evicted"
	MetricEvictedDrops       = "dataplane_evicted_packet_drops"

	// GenerationsRetired counts records a relay released as the session's
	// watermark rose past them (FIFO retirement and eviction count elsewhere);
	// LateForwarded counts arrivals below it, forwarded without coding state.
	MetricGenerationsRetired = "dataplane_generations_retired"
	MetricLateForwarded      = "dataplane_late_forwarded_packets"

	// MetricTableSwaps counts forwarding-table updates (RCU publishes; no
	// shard stops for one).
	MetricTableSwaps = "dataplane_table_swaps"

	// Drain lifecycle (see drain.go). DrainState gauges the state machine
	// position (0 running, 1 draining, 2 quiesced) — operators and the
	// rolling-restart walker poll it over /stats. DrainPending gauges the
	// residual in-flight work observed by the last quiescence sweep (queued
	// datagrams plus unflushed coalescer packets). DrainRefused counts
	// packets refused because they would have created new coding state
	// while draining.
	MetricDrainState   = "dataplane_drain_state"
	MetricDrainPending = "dataplane_drain_pending"
	MetricDrainRefused = "dataplane_drain_refused_packets"
)

// vnfTelemetry is a VNF's instrument set. Counters are sharded with one
// cell per pipeline worker plus cell 0 for the receive goroutine (and for
// synchronous handlePacket callers), so the steady-state data plane never
// contends on a counter line: each writer pays exactly one relaxed atomic
// add.
type vnfTelemetry struct {
	rx        *telemetry.Counter
	tx        *telemetry.Counter
	drops     *telemetry.Counter
	gens      *telemetry.Counter
	recoded   *telemetry.Counter
	forwarded *telemetry.Counter
	depGF2    *telemetry.Counter
	depGF256  *telemetry.Counter
	overflow  *telemetry.Counter // decoded generations dropped at a full Deliveries channel

	// batch observes the run length of each shard drain; decode observes
	// per-generation decode latency (decoder creation to delivery) in
	// nanoseconds.
	batch    *telemetry.Histogram
	decodeNs *telemetry.Histogram

	// queueDepth holds each shard's residual channel depth, sampled by the
	// shard worker after every drain; Value() sums to the total backlog.
	queueDepth *telemetry.Gauge

	// Generation-index instruments. The gauges are single-cell: the index
	// moves them once per accounting change, so striping would buy nothing.
	sessBytes    *telemetry.Gauge
	liveGens     *telemetry.Gauge
	evicted      *telemetry.Counter
	evictedDrops *telemetry.Counter
	tableSwaps   *telemetry.Counter
	retired      *telemetry.Counter // released by the watermark
	lateForwards *telemetry.Counter // arrivals below it

	// Drain instruments. The gauges are single-cell: drainState is written
	// only on state transitions and drainPending only by the quiescence
	// sweep. drainRefused is striped like the other packet counters.
	drainState   *telemetry.Gauge
	drainPending *telemetry.Gauge
	drainRefused *telemetry.Counter

	rec *telemetry.Recorder
}

// newVNFTelemetry builds the instrument set in reg with cells for workers
// shards (+1 for the receive side).
func newVNFTelemetry(reg *telemetry.Registry, workers int) vnfTelemetry {
	cells := workers + 1
	return vnfTelemetry{
		rx:         reg.Counter(MetricRxPackets, cells),
		tx:         reg.Counter(MetricTxPackets, cells),
		drops:      reg.Counter(MetricDroppedPackets, cells),
		gens:       reg.Counter(MetricGenerationsDone, cells),
		recoded:    reg.Counter(MetricRecoded, cells),
		forwarded:  reg.Counter(MetricForwarded, cells),
		depGF2:     reg.Counter(MetricDependentGF2, cells),
		depGF256:   reg.Counter(MetricDependentGF256, cells),
		overflow:   reg.Counter(MetricDeliveryOverflow, cells),
		batch:      reg.Histogram(MetricBatchPackets),
		decodeNs:   reg.Histogram(MetricDecodeLatencyNs),
		queueDepth: reg.Gauge(MetricShardQueueDepth, workers),

		sessBytes:    reg.Gauge(MetricSessionBytes, 1),
		liveGens:     reg.Gauge(MetricLiveGenerations, 1),
		evicted:      reg.Counter(MetricGenerationsEvicted, 1),
		evictedDrops: reg.Counter(MetricEvictedDrops, cells),
		tableSwaps:   reg.Counter(MetricTableSwaps, 1),
		retired:      reg.Counter(MetricGenerationsRetired, cells),
		lateForwards: reg.Counter(MetricLateForwarded, cells),

		drainState:   reg.Gauge(MetricDrainState, 1),
		drainPending: reg.Gauge(MetricDrainPending, 1),
		drainRefused: reg.Counter(MetricDrainRefused, cells),

		rec: reg.Recorder(FlightRecorderName, telemetry.DefaultRecorderCapacity),
	}
}

// dependent returns the dependent-packet counter for a session's field.
func (t *vnfTelemetry) dependent(f gf.Field) *telemetry.Counter {
	if f == gf.GF2 {
		return t.depGF2
	}
	return t.depGF256
}

// WithTelemetry attaches the VNF's instruments to the given registry
// instead of a private one, so a daemon can serve one merged snapshot for
// everything it hosts. Nil leaves the default (private registry).
func WithTelemetry(reg *telemetry.Registry) VNFOption {
	return func(v *VNF) {
		if reg != nil {
			v.reg = reg
		}
	}
}

// WithClock sets the clock used for telemetry timestamps and latency
// measurements (decode latency, table-swap pauses). The default is the real
// clock; the chaos harness passes its simclock.Virtual so flight-recorder
// events replay tick-for-tick.
func WithClock(clk simclock.Clock) VNFOption {
	return func(v *VNF) {
		if clk != nil {
			v.clock = clk
		}
	}
}

// Telemetry returns the registry holding the VNF's instruments.
func (v *VNF) Telemetry() *telemetry.Registry { return v.reg }
