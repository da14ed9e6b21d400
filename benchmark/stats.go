package main

import (
	"math"
	"sort"

	"ncfn/internal/telemetry"
)

// nodeStats is one telemetry snapshot per node of a deployment.
type nodeStats map[string]telemetry.Snapshot

// since returns the activity between an earlier set of snapshots and this
// one: counters and histogram buckets are differences, gauges the later
// reading. Flight-recorder events are dropped.
func (after nodeStats) since(before nodeStats) nodeStats {
	out := make(nodeStats, len(after))
	for node, a := range after {
		b := before[node]
		d := telemetry.Snapshot{
			Counters:   make(map[string]uint64, len(a.Counters)),
			Gauges:     a.Gauges,
			Histograms: make(map[string]telemetry.HistogramSnapshot, len(a.Histograms)),
		}
		for name, v := range a.Counters {
			d.Counters[name] = v - b.Counters[name]
		}
		for name, h := range a.Histograms {
			earlier := make(map[int64]uint64, len(b.Histograms[name].Buckets))
			for _, bc := range b.Histograms[name].Buckets {
				earlier[bc.Lo] = bc.Count
			}
			dh := telemetry.HistogramSnapshot{Count: h.Count - b.Histograms[name].Count}
			for _, bc := range h.Buckets {
				if n := bc.Count - earlier[bc.Lo]; n > 0 {
					dh.Buckets = append(dh.Buckets, telemetry.BucketCount{Lo: bc.Lo, Hi: bc.Hi, Count: n})
				}
			}
			d.Histograms[name] = dh
		}
		out[node] = d
	}
	return out
}

// counter sums a counter over the named nodes (all nodes when none named).
func (s nodeStats) counter(name string, nodes ...string) float64 {
	total := uint64(0)
	if len(nodes) == 0 {
		for _, snap := range s {
			total += snap.Counters[name]
		}
		return float64(total)
	}
	for _, n := range nodes {
		total += s[n].Counters[name]
	}
	return float64(total)
}

// gauge sums a gauge over every node.
func (s nodeStats) gauge(name string) float64 {
	total := int64(0)
	for _, snap := range s {
		total += snap.Gauges[name]
	}
	return float64(total)
}

// quantile estimates the q-th quantile of a histogram merged over every
// node, interpolating by rank inside the power-of-two bucket that holds the
// order statistic, as telemetry.Histogram.Quantile does for one histogram.
func (s nodeStats) quantile(name string, q float64) float64 {
	merged := map[int64]telemetry.BucketCount{}
	total := uint64(0)
	for _, snap := range s {
		for _, bc := range snap.Histograms[name].Buckets {
			m := merged[bc.Lo]
			m.Lo, m.Hi = bc.Lo, bc.Hi
			m.Count += bc.Count
			merged[bc.Lo] = m
			total += bc.Count
		}
	}
	if total == 0 {
		return 0
	}
	buckets := make([]telemetry.BucketCount, 0, len(merged))
	for _, bc := range merged {
		buckets = append(buckets, bc)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Lo < buckets[j].Lo })
	rank := uint64(math.Max(1, math.Ceil(q*float64(total))))
	cum := uint64(0)
	for _, bc := range buckets {
		if cum+bc.Count < rank {
			cum += bc.Count
			continue
		}
		if bc.Count == 1 || bc.Hi <= bc.Lo {
			return float64(bc.Lo)
		}
		pos := float64(rank-cum-1) / float64(bc.Count-1)
		return float64(bc.Lo) + pos*float64(bc.Hi-bc.Lo)
	}
	return float64(buckets[len(buckets)-1].Hi)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
