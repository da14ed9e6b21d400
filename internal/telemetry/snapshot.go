package telemetry

// Snapshot is the aggregated, serializable view of a Registry — the payload
// of the ncd admin endpoint's /stats and of `ncctl stats`. Counter and gauge
// values are cell sums; events are the union of every recorder's retained
// ring, in sequence order.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Events     []Event                      `json:"events,omitempty"`
}
