package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"ncfn/internal/leakcheck"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeConfig shrinks a run to well under a second of timed phases: a short
// warm-up, one set-up, millisecond micro-timings.
func smokeConfig(t *testing.T, w *workload, trace bool) *runConfig {
	tmp := t.TempDir()
	return &runConfig{
		w: w, seed: 7, seconds: 0.5, trace: trace,
		warm: 48, setups: 1, micro: time.Millisecond,
		outDir: filepath.Join(tmp, "out"), scratch: filepath.Join(tmp, "build"),
		corrupt: -1,
	}
}

func loadContract(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics asserts that got holds exactly the metrics specs names, each
// with a valid name, the declared unit and a finite value.
func checkMetrics(t *testing.T, kind string, got map[string]metric, specs []metricSpec) {
	t.Helper()
	for _, spec := range specs {
		m, ok := got[spec.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not emitted", kind, spec.Name)
		case m.Unit != spec.Unit:
			t.Errorf("%s metric %s: unit %q, BENCHMARK.json says %q", kind, spec.Name, m.Unit, spec.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s metric %s is not finite", kind, spec.Name)
		}
	}
	if len(got) != len(specs) {
		t.Errorf("%d %s metrics emitted, BENCHMARK.json names %d", len(got), kind, len(specs))
	}
	for name := range got {
		if !metricName.MatchString(name) {
			t.Errorf("invalid metric name %q", name)
		}
	}
}

// TestSmokeEveryWorkload runs every workload traced, which measures both
// metric sets, and checks them against BENCHMARK.json.
func TestSmokeEveryWorkload(t *testing.T) {
	contract := loadContract(t)
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(contract.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		if contract.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, contract.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			if raceDetector && w.params.GenerationBlocks >= 64 {
				// The detector slows GF arithmetic so much that a 64-block
				// generation outlasts the load generator's resend timeouts;
				// the harness code it would race-check is the same on the
				// other three workloads.
				t.Skip("64-block generations are too slow under the race detector")
			}
			leakcheck.Check(t)
			// Daemon stats fetches leave idle keep-alive connections behind.
			defer http.DefaultClient.CloseIdleConnections()
			cfg := smokeConfig(t, w, true)
			res, err := runBenchmark(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Mismatched != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d mismatched=%d", res.Correct, res.Attempted, res.Failed, res.Mismatched)
			}
			if runtime.GOOS == "linux" {
				checkMetrics(t, "end-to-end", res.EndToEnd, contract.EndToEnd)
			}
			checkMetrics(t, "per-layer", res.PerLayer, contract.PerLayer)
			sum := 0.0
			for name, m := range res.PerLayer {
				if strings.HasPrefix(name, "budget.") {
					sum += m.Value
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("budget shares sum to %v, want 1", sum)
			}
			if res.Host.GoVersion == "" || res.Host.NumCPU == 0 || res.Transport == "" {
				t.Errorf("record lacks the host fingerprint or transport: %+v %q", res.Host, res.Transport)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}

			// The contract line carries exactly the four keys and the set
			// of metrics the trace flag selects.
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				if err := printResult(&out, res, trace); err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(out.Bytes(), &line); err != nil {
					t.Fatalf("%v: %s", err, out.String())
				}
				var metrics map[string]metric
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil || len(line) != 4 {
					t.Fatalf("contract line has %d keys (%v): %s", len(line), err, out.String())
				}
				want := len(res.EndToEnd)
				if trace {
					want = len(res.PerLayer)
				}
				if len(metrics) != want {
					t.Errorf("trace=%v: %d metrics printed, want %d", trace, len(metrics), want)
				}
			}
		})
	}
}

// TestUntracedRun covers the path the end-to-end metrics take when tracing
// is off: repeated set-up, the delay phase, plain throughput slices.
func TestUntracedRun(t *testing.T) {
	leakcheck.Check(t)
	cfg := smokeConfig(t, findWorkload("inproc-tenants512"), false)
	cfg.setups, cfg.seconds = 2, 2
	res, err := runBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.PerLayer != nil || len(res.SliceMbps) < 2 || res.LatencySamples == 0 {
		t.Fatalf("correct=%v per-layer=%d slices=%d latency samples=%d", res.Correct, len(res.PerLayer), len(res.SliceMbps), res.LatencySamples)
	}
	if runtime.GOOS == "linux" {
		checkMetrics(t, "end-to-end", res.EndToEnd, loadContract(t).EndToEnd)
	}
}

// TestCorruptCorpusIsReported sends one corpus entry altered: the sinks
// decode exactly what was sent, which is not what the corpus expects, and
// the run must say so rather than count the bytes as goodput.
func TestCorruptCorpusIsReported(t *testing.T) {
	leakcheck.Check(t)
	w := findWorkload("inproc-k4")
	cfg := smokeConfig(t, w, false)
	// The warm-up (8 generations, at most a window more in flight) stays
	// clear of generation 40, so the mismatch lands in a timed phase.
	cfg.warm = 8
	c := newCorpus(cfg.seed, w.params.GenerationBytes())
	cfg.corrupt = c.index(sessionID(0), 40)
	res, err := runBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Mismatched == 0 || res.Failed < res.Mismatched {
		t.Fatalf("corrupted entry not reported: correct=%v failed=%d mismatched=%d", res.Correct, res.Failed, res.Mismatched)
	}
	var out bytes.Buffer
	if err := printResult(&out, res, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("contract line hides the failure: %s", out.String())
	}
}

// TestContractSchema checks BENCHMARK.json against the limits the driver
// enforces before it makes a single run.
func TestContractSchema(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("missing key %q", key)
		}
	}
	if len(doc) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(doc))
	}
	var whys []struct{ Name, Why string }
	if err := json.Unmarshal(doc["workloads"], &whys); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !metricName.MatchString(n) || seen[n] {
			t.Errorf("name %q is invalid or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range whys {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	contract := loadContract(t)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, m := range contract.EndToEnd {
		name(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range contract.PerLayer {
		name(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if n := len(contract.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spread = %v, want 1", s)
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("single value: %v, %v", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, goodput, latency float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 4; seed++ {
			r := &result{Workload: "inproc-k4", Seed: seed, Host: hostInfo{CPUModel: name}, EndToEnd: map[string]metric{
				"goodput_mbps":   {goodput + float64(seed), "Mbit/s"},
				"latency_p50_ms": {latency, "ms"},
			}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, better, worse := write("a.jsonl", 100, 1), write("b.jsonl", 120, 1.1), write("c.jsonl", 60, 1)
	bench := filepath.Join(dir, "BENCHMARK.json")
	contract := `{"workloads":[{"name":"inproc-k4"}],"end_to_end":[
		{"name":"goodput_mbps","unit":"Mbit/s","better":"higher","bound":0.25},
		{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.25}]}`
	if err := os.WriteFile(bench, []byte(contract), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ok, err := compareFiles(&out, bench, a, better)
	if err != nil || !ok || strings.Contains(out.String(), "OUTSIDE") {
		t.Errorf("faster goodput, latency 10%% up: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "host fingerprints differ") || !strings.Contains(out.String(), "+10.0%") {
		t.Errorf("missing fingerprint warning or change column:\n%s", out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, bench, a, worse)
	if err != nil || ok || !strings.Contains(out.String(), "OUTSIDE") {
		t.Errorf("goodput down 39%%: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if _, err := compareFiles(&out, bench, a, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing runs file accepted")
	}

	// The same through the command line.
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-compare", a, worse}, &stdout, &stderr); code != 1 {
		t.Errorf("-compare with a regression exited %d\n%s", code, stderr.String())
	}
	if code := realMain([]string{"-compare", a}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with one file exited %d", code)
	}
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload exited %d", code)
	}
}

// TestRunScriptRefusesBareDirectory is the contract's last clause: in a
// directory holding only BENCHMARK.json and this directory the command must
// fail without printing a result.
func TestRunScriptRefusesBareDirectory(t *testing.T) {
	bash, err := exec.LookPath("bash")
	if err != nil {
		t.Skip("no bash")
	}
	dir := t.TempDir()
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "benchmark"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "benchmark", "run.sh"), script, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bash, "benchmark/run.sh", "--workload", "inproc-k4", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil || stdout.Len() != 0 {
		t.Errorf("bare directory: err=%v stdout=%q", err, stdout.String())
	}
}

func TestPickTableAndCorpusFollowTheSeed(t *testing.T) {
	a, b, c := newPickTable(1, 512), newPickTable(1, 512), newPickTable(2, 512)
	if !bytes.Equal(u16bytes(a), u16bytes(b)) || bytes.Equal(u16bytes(a), u16bytes(c)) {
		t.Error("pick table is not a function of the seed")
	}
	counts := make([]int, 512)
	for _, s := range a {
		counts[s]++
	}
	top := 0
	for _, n := range counts {
		top = max(top, n)
	}
	if top < 3*pickTableLen/512 {
		t.Errorf("heaviest session has %d of %d picks: shares are not skewed", top, pickTableLen)
	}
	if !bytes.Equal(newCorpus(1, 64).sent[5], newCorpus(1, 64).sent[5]) || bytes.Equal(newCorpus(1, 64).sent[5], newCorpus(2, 64).sent[5]) {
		t.Error("corpus is not a function of the seed")
	}
}

func u16bytes(xs []uint16) []byte {
	out := make([]byte, 0, 2*len(xs))
	for _, x := range xs {
		out = append(out, byte(x>>8), byte(x))
	}
	return out
}
