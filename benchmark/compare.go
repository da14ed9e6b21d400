package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRecords reads a runs file: one JSON record per line, as appendRecord
// writes them.
func loadRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so the
// spread printed here is the one the acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	const n = 4
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// endToEndValues collects one end-to-end metric over the untraced runs of
// one workload.
func endToEndValues(recs []result, workload, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.EndToEnd[name]; ok && r.Workload == workload && !r.Trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareFiles prints, per workload and end-to-end metric, the medians of
// the two runs files, the change of b relative to a, each side's spread, and
// whether b is within the metric's regression bound. It reports whether
// every comparison was within bounds.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	bench, err := loadBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := loadRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(bPath)
	if err != nil {
		return false, err
	}
	if len(a) > 0 && len(b) > 0 && a[0].Host != b[0].Host {
		fmt.Fprintf(w, "WARNING: host fingerprints differ; the comparison says nothing about the code\n  a: %+v\n  b: %+v\n", a[0].Host, b[0].Host)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn a/b\tmedian a\tmedian b\tchange (base a)\tspread a\tspread b\tbound\tverdict")
	allOK := true
	for _, wl := range bench.Workloads {
		for _, spec := range bench.EndToEnd {
			xa, xb := endToEndValues(a, wl.Name, spec.Name), endToEndValues(b, wl.Name, spec.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t-\t-\t-\t-\t-\t%.0f%%\tmissing\n", wl.Name, spec.Name, spec.Unit, len(xa), len(xb), spec.Bound*100)
				allOK = false
				continue
			}
			ma, mb := median(xa), median(xb)
			change := ratio(mb-ma, ma)
			worse := change
			if spec.Better == "higher" {
				worse = -change
			}
			verdict := "within"
			if worse > spec.Bound {
				verdict = "OUTSIDE"
				allOK = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, spec.Name, spec.Unit, len(xa), len(xb), ma, mb, change*100, spread(xa)*100, spread(xb)*100, spec.Bound*100, verdict)
		}
	}
	return allOK, tw.Flush()
}
