package main

import (
	"encoding/json"
	"os"
	"path/filepath"

	"ncfn/internal/telemetry"
)

// Span names. A generation's root span runs from the SendGeneration call to
// the second sink's ACK on Source.Acks(); its four children tile it.
const (
	spanGeneration = "generation"
	spanSourceSend = "source_send" // SendGeneration call to its return
	spanTransit    = "transit"     // SendGeneration return to the first sink delivery
	spanSinkSkew   = "sink_skew"   // first to second sink delivery
	spanAckReturn  = "ack_return"  // second sink delivery to the last ACK on Source.Acks()
)

// childSpans lists the children of a generation span in time order.
var childSpans = []string{spanSourceSend, spanTransit, spanSinkSkew, spanAckReturn}

// span is one recorded interval. ID is the generation's identifier (session
// in the high half, generation id in the low), shared by the root and its
// children; times are nanoseconds since the driver started.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
}

// maxSpans bounds the spans kept for the trace file; durations of every
// generation still feed the per-span medians.
const maxSpans = 50000

// tracer keeps spans in memory during a traced run and writes them out when
// the run ends.
type tracer struct {
	spans []span
	// durUs holds every generation's duration per child span, in µs.
	durUs map[string][]float64
	// boundaries are the telemetry snapshots taken at phase boundaries.
	boundaries []boundary
}

type boundary struct {
	Phase string                        `json:"phase"`
	AtNs  int64                         `json:"at_ns"`
	Nodes map[string]telemetry.Snapshot `json:"nodes"`
}

func newTracer() *tracer {
	return &tracer{durUs: make(map[string][]float64, len(childSpans))}
}

// generation records the span set of one completed generation. The driver
// took every timestamp around its own calls into Source, Deliveries() and
// Acks(); a child that ended before it began (the first sink can deliver
// before the sending goroutine is scheduled to read the clock) is recorded
// empty.
func (t *tracer) generation(f *flight) {
	first, second := f.deliv[0], f.deliv[1]
	if second < first {
		first, second = second, first
	}
	lastAck := f.acked[0]
	if f.acked[1] > lastAck {
		lastAck = f.acked[1]
	}
	id := flightKey(sessionID(f.sess), f.gen)
	edges := [...]int64{f.sendStart, f.sendEnd, first, second, lastAck}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: spanGeneration, ID: id, StartNs: f.sendStart, EndNs: lastAck})
	}
	for i, name := range childSpans {
		start, end := edges[i], edges[i+1]
		if end < start {
			end = start
		}
		t.durUs[name] = append(t.durUs[name], float64(end-start)/1e3)
		if len(t.spans) < maxSpans {
			t.spans = append(t.spans, span{Name: name, ID: id, StartNs: start, EndNs: end, Parent: spanGeneration})
		}
	}
}

// snapshot records the deployment's telemetry at a phase boundary.
func (t *tracer) snapshot(phase string, at int64, nodes map[string]telemetry.Snapshot) {
	t.boundaries = append(t.boundaries, boundary{Phase: phase, AtNs: at, Nodes: nodes})
}

// write stores the trace as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload   string     `json:"workload"`
		Spans      []span     `json:"spans"`
		Boundaries []boundary `json:"boundaries"`
	}{workload, t.spans, t.boundaries})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}
