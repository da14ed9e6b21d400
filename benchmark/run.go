package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ncfn/internal/buffer"
	"ncfn/internal/gf"
	"ncfn/internal/procnet"
)

// warmGenerations is how many generations pass every relay before anything
// is timed. Relays keep a generation's recoder until FIFO eviction at
// buffer.DefaultCapacity live generations, and a relay that has not reached
// that steady state is several times faster than one that has; the margin
// makes sure eviction has started.
const warmGenerations = buffer.DefaultCapacity + 76

// Shares of --seconds given to the two timed phases: the delay phase keeps
// one generation in flight, the throughput phase the workload's window. An
// untraced run splits each into rounds parts, alternates them, and reports
// every metric from its best round: the hosts this runs on slow down for
// seconds at a time, which only ever makes a round worse, so the best of
// four moves far less between runs than their mean does.
const (
	delayShare      = 0.3
	throughputShare = 0.7
	rounds          = 4
)

// setupBudget caps the time spent repeating set-up: once the repeats so far
// have taken this long, the next one is skipped.
const setupBudget = 8 * time.Second

// runConfig is one invocation of the benchmark.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// warm, setups and micro are the knobs the smoke test shrinks: warm-up
	// generations, deployments timed for setup_s, and the length of each
	// layer micro-timing.
	warm   int
	setups int
	micro  time.Duration
	// outDir receives the trace file; scratch holds built binaries and
	// daemon scratch directories. Both live inside the checkout.
	outDir  string
	scratch string
	// corrupt, when non-negative, alters that corpus entry as sent, so the
	// sinks deliver bytes the check must reject (tests only).
	corrupt int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one invocation measured. The contract line printed
// on stdout carries Correct, Attempted, Failed and one of the two metric
// sets; the record appended to the runs file carries all of it.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      hostInfo `json:"host"`
	Transport string   `json:"transport"`

	Correct    bool `json:"correct"`
	Attempted  int  `json:"attempted"`
	Failed     int  `json:"failed"`
	Mismatched int  `json:"mismatched"`
	// LatencySamples is the number of generations behind the latency
	// percentiles; CoresBusy is CPU time over wall time in the throughput
	// phase, which must be near the core count for a fall in goodput to
	// count as cost rather than idleness.
	// LatencyP95Ms is the tail of the delay phase. It is recorded, and a
	// traced run reports it as a per-layer metric, but it is not a bounded
	// end-to-end metric: between runs on a shared two-vCPU host it moves by
	// more than the widest bound the benchmark contract allows.
	LatencyP95Ms   float64   `json:"latency_p95_ms"`
	LatencySamples int       `json:"latency_samples"`
	CoresBusy      float64   `json:"cores_busy"`
	SliceMbps      []float64 `json:"goodput_slices_mbps"`
	WideKernel     bool      `json:"gf_wide_kernel"`
	// Unavailable names metrics this platform cannot measure.
	Unavailable []string `json:"unavailable,omitempty"`

	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
}

// failedBound is the share of attempted generations that may fail before the
// run itself counts as failed.
const failedBound = 0.001

func (r *result) failedShare() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// session is one deployment with its driver, warmed up.
type session struct {
	dep *deployment
	dr  *driver
}

func (s *session) close() {
	s.dr.close()
	s.dep.close()
}

// setUp deploys the workload and drives it through the warm-up.
func setUp(cfg *runConfig, c *corpus, picks []uint16, bins procnet.Binaries) (*session, error) {
	dep, err := deploy(cfg.w, cfg.seed, cfg.scratch, bins)
	if err != nil {
		return nil, err
	}
	s := &session{dep: dep, dr: newDriver(dep, c, picks)}
	warm, err := s.dr.run(cfg.w.window, 0, cfg.warm)
	if err == nil && warm.failed > 0 {
		err = fmt.Errorf("warm-up: %d of %d generations failed (%d byte mismatches)", warm.failed, warm.attempted, warm.mismatched)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// runBenchmark executes one invocation.
func runBenchmark(cfg *runConfig) (*result, error) {
	w := cfg.w
	res := &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host:      fingerprint(),
		Transport: "in-process Go channels (emunet.Network, unconstrained zero-delay links); no real link",
		EndToEnd:  map[string]metric{},
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	var bins procnet.Binaries
	if w.procs {
		res.Transport = "host loopback interface (UDP between the harness and four ncd processes); no real link"
		// Compiling ncd and ncctl is not part of set-up: it happens before
		// the clock starts.
		var err error
		if bins, err = procnet.Build(filepath.Join(cfg.scratch, "bin")); err != nil {
			return nil, err
		}
	}

	// gf picks its GF(2^8) kernel by timing two of them on first use. Asking
	// now runs that race while the process is idle; left to the first coded
	// packet it would run on contended cores, and a run that drew the other
	// kernel would differ by a third on inproc-k64.
	res.WideKernel = gf.WideKernelSelected()

	c := newCorpus(cfg.seed, w.params.GenerationBytes())
	if cfg.corrupt >= 0 {
		bad := append([]byte(nil), c.sent[cfg.corrupt]...)
		bad[len(bad)/2] ^= 0xff
		c.sent[cfg.corrupt] = bad
	}
	picks := newPickTable(cfg.seed, w.sessions)

	// Set-up is timed on several fresh deployments and the median reported;
	// the timed phases then run on the last one. A workload whose set-up is
	// slow gets fewer repeats, and a traced run, which reports no end-to-end
	// metrics, sets up once.
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var s *session
	var setupS []float64
	for spent := 0.0; len(setupS) < setups && (s == nil || spent < setupBudget.Seconds()); {
		if s != nil {
			// Collect the previous deployment before building the next, so
			// peak RSS reflects one deployment, not their sum. The memory
			// stays mapped: the next deployment and the timed phases reuse
			// pages this process has already touched, where first touches
			// of a gigabyte (inproc-k64) stall for seconds on a busy host.
			s.close()
			s = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if s, err = setUp(cfg, c, picks, bins); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		spent += setupS[len(setupS)-1]
	}
	defer s.close()
	res.EndToEnd["setup_s"] = metric{median(setupS), "s"}

	// Off Linux there is no /proc: the run goes on without the two cost
	// metrics and says so.
	var pids []int
	if _, err := cpuMs(nil); err != nil {
		res.Unavailable = []string{"cpu_ms_per_mb", "rss_mb"}
	} else if w.procs {
		var err error
		if pids, err = childPids("ncd"); err != nil {
			return nil, err
		}
	}
	phase := func(share float64) time.Duration {
		return time.Duration(share * cfg.seconds * float64(time.Second))
	}

	var delay phaseStats
	var tput throughput
	p50, p95 := math.Inf(1), math.Inf(1)
	if !cfg.trace {
		for r := 0; r < rounds; r++ {
			d, err := s.dr.run(1, phase(delayShare/rounds), 0)
			if err != nil {
				return nil, err
			}
			if len(d.latencyMs) > 0 {
				p50 = min(p50, percentile(d.latencyMs, 50))
				p95 = min(p95, percentile(d.latencyMs, 95))
			}
			delay.add(d)
			if err := tput.measure(s, pids, phase(throughputShare/rounds), false); err != nil {
				return nil, err
			}
		}
	} else {
		layers, err := tracedRun(cfg, s, pids, phase(delayShare), phase(throughputShare))
		if err != nil {
			return nil, err
		}
		res.PerLayer, delay, tput = layers.metrics, layers.delay, layers.tput
		p50, p95 = percentile(delay.latencyMs, 50), percentile(delay.latencyMs, 95)
	}

	if len(delay.latencyMs) == 0 {
		return nil, fmt.Errorf("no generation completed in the delay phase: --seconds %v is too short", cfg.seconds)
	}
	res.Attempted = delay.attempted + tput.attempted
	res.Failed = delay.failed + tput.failed
	res.Mismatched = delay.mismatched + tput.mismatched
	res.LatencySamples = len(delay.latencyMs)
	res.Correct = res.Mismatched == 0 && res.failedShare() <= failedBound && res.Attempted > 0

	res.SliceMbps = tput.sliceMbps
	res.EndToEnd["goodput_mbps"] = metric{tput.mbps, "Mbit/s"}
	res.EndToEnd["latency_p50_ms"] = metric{p50, "ms"}
	res.LatencyP95Ms = p95
	if res.Unavailable == nil {
		rss, err := peakRSSMB(pids)
		if err != nil {
			return nil, err
		}
		res.EndToEnd["cpu_ms_per_mb"] = metric{tput.cpuMsPerMB, "CPU-ms/MB"}
		res.EndToEnd["rss_mb"] = metric{rss, "MB"}
		res.CoresBusy = ratio(tput.cpuMs, float64(tput.wall.Milliseconds()))
	}
	return res, nil
}

// sliceLength is the length of the slices a throughput phase is cut into.
// Goodput and CPU cost are reported as the median over the slices, so a
// transient stall (a GC cycle, a neighbour on the host) moves one slice and
// not the result.
const sliceLength = 500 * time.Millisecond

// throughput accumulates the throughput phases (rounds) of a run.
type throughput struct {
	phaseStats
	// cpuMs totals the CPU time of the harness and its children over the
	// rounds (zero where /proc is not readable).
	cpuMs float64
	// mbps and cpuMsPerMB are those of the best round so far, a round's
	// figure being the median over its untraced slices; tracedMbps is the
	// last round's median over its traced slices.
	mbps, cpuMsPerMB, tracedMbps float64
	// sliceMbps is every whole slice's goodput, in time order.
	sliceMbps []float64
}

// measure runs one throughput phase and adds it to tp, sampling delivered
// bytes and the CPU time of the harness and its children at every slice
// boundary. With alternate set, span recording is switched at every
// boundary, so traced and untraced slices interleave and their medians
// differ by the tracing overhead rather than by drift.
func (tp *throughput) measure(s *session, pids []int, dur time.Duration, alternate bool) error {
	type sample struct {
		at    time.Time
		bytes int64
		cpu   int64
	}
	take := func() sample {
		cpu, _ := cpuMs(pids)
		return sample{time.Now(), s.dr.delivered.Load(), cpu}
	}
	s.dr.traceOn.Store(alternate)
	samples := []sample{take()}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(sliceLength)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				samples = append(samples, take())
				if alternate {
					s.dr.traceOn.Store(len(samples)%2 == 1)
				}
			}
		}
	}()
	st, err := s.dr.run(s.dep.w.window, dur, 0)
	close(stop)
	<-done
	if err != nil {
		return err
	}
	last := take()
	tp.phaseStats.add(st)
	tp.cpuMs += float64(last.cpu - samples[0].cpu)
	if len(samples) < 2 {
		// Shorter than one slice: the phase is its own slice.
		samples = append(samples, last)
	}
	var plain, traced, cost []float64
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		mb := float64(b.bytes-a.bytes) / 1e6
		mbps := ratio(mb*8, b.at.Sub(a.at).Seconds())
		tp.sliceMbps = append(tp.sliceMbps, mbps)
		cost = append(cost, ratio(float64(b.cpu-a.cpu), mb))
		if alternate && i%2 == 1 {
			traced = append(traced, mbps)
		} else {
			plain = append(plain, mbps)
		}
	}
	tp.tracedMbps = median(traced)
	if m := median(plain); m > tp.mbps {
		tp.mbps = m
	}
	if c := median(cost); tp.cpuMsPerMB == 0 || c < tp.cpuMsPerMB {
		tp.cpuMsPerMB = c
	}
	return nil
}
