// Command benchmark is the repository's one benchmark: it runs the paper's
// butterfly under a closed-loop, byte-verified load on one of four workloads
// and prints end-to-end metrics (goodput, delay, CPU and memory cost, set-up
// time) or, traced, the per-layer metrics and the outside-in time budget.
// BENCHMARK.json at the repository root describes it; README.md in this
// directory defines every workload and metric.
//
//	bash benchmark/run.sh --workload inproc-k4 --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -compare benchmark/out/a.jsonl benchmark/out/b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: inproc-k4 | inproc-k64 | inproc-tenants512 | procs-k16")
	seed := fs.Int64("seed", 1, "derives the payload corpus, the coding seeds and the session pick table")
	seconds := fs.Float64("seconds", 20, "how long the timed phases measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join("benchmark", "out", "runs.jsonl"), "file the full record of this run is appended to")
	compare := fs.Bool("compare", false, "compare two record files (arguments: a.jsonl b.jsonl) against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two record files")
			return 2
		}
		ok, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil || fs.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: need --workload (one of %v) and a positive --seconds\n", workloadNames())
		return 2
	}
	cfg := &runConfig{
		w: w, seed: *seed, seconds: *seconds, trace: *trace != 0,
		warm: warmGenerations, setups: 5, micro: 200 * time.Millisecond,
		outDir:  filepath.Dir(*out),
		scratch: ".bench_build",
		corrupt: -1,
	}
	res, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := appendRecord(*out, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := printResult(stdout, res, cfg.trace); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %d of %d generations failed (%d byte mismatches)\n", res.Failed, res.Attempted, res.Mismatched)
		return 1
	}
	return 0
}

// printResult writes the contract's result line: exactly the keys correct,
// attempted, failed and metrics — the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func printResult(w io.Writer, res *result, trace bool) error {
	metrics := res.EndToEnd
	if trace {
		metrics = res.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// appendRecord appends the run's full record to path as one JSON line.
func appendRecord(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
