package bench

import (
	"fmt"
	"io"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/emunet"
	"ncfn/internal/flowsim"
	"ncfn/internal/metrics"
	"ncfn/internal/optimize"
	"ncfn/internal/probe"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
	"ncfn/internal/topology"
)

// Options tunes experiment runs.
type Options struct {
	// Quick reduces sweep points and durations (used by testing.B wrappers
	// and CI); the full runs match the paper's parameter grids.
	Quick bool
	// Seed fixes all randomness.
	Seed int64
}

// pointDuration returns the per-point streaming time.
func (o Options) pointDuration() time.Duration {
	if o.Quick {
		return 400 * time.Millisecond
	}
	return 1200 * time.Millisecond
}

var epoch = time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)

// Table1 reproduces Table I: time-varying inbound and outbound bandwidth
// for one hour in the Oregon and California EC2 data centers, sampled every
// 10 minutes.
func Table1(w io.Writer, o Options) error {
	clk := simclock.NewVirtual(epoch)
	cl := cloud.New(clk, o.Seed, cloud.PaperRegions()...)
	s := metrics.NewSeries(
		"Table I: time-varying per-VM bandwidth (Mbps), sampled every 10 min",
		"minute", "oregon_in", "oregon_out", "california_in", "california_out")
	for minute := 0; minute <= 50; minute += 10 {
		row := make(map[string]float64, 4)
		for _, region := range []topology.NodeID{"oregon", "california"} {
			sample, err := cl.MeasureBandwidth(region)
			if err != nil {
				return err
			}
			row[string(region)+"_in"] = sample.InMbps
			row[string(region)+"_out"] = sample.OutMbps
		}
		s.Add(float64(minute), row)
		clk.Advance(10 * time.Minute)
	}
	if err := s.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: Oregon 893-926 in / 881-938 out; California 876-938 in / 901-928 out")
	return nil
}

// Fig4 reproduces Fig. 4: multicast throughput on the butterfly versus the
// number of blocks per generation. The paper's curve peaks at 4 blocks and
// plunges past 16.
func Fig4(w io.Writer, o Options) error {
	blocks := []int{1, 2, 4, 8, 16, 32, 64}
	if o.Quick {
		blocks = []int{1, 4, 32}
	}
	s := metrics.NewSeries("Fig 4: throughput vs blocks per generation (block = 1460 B)",
		"blocks", "throughput_mbps")
	for _, k := range blocks {
		res, err := RunButterfly(ButterflyOpts{
			Params:   rlnc.Params{GenerationBlocks: k, BlockSize: rlnc.DefaultBlockSize},
			Duration: o.pointDuration(),
			Seed:     o.Seed,
		})
		if err != nil {
			return fmt.Errorf("fig4 k=%d: %w", k, err)
		}
		s.Add(float64(k), map[string]float64{"throughput_mbps": res.GoodputMbps})
	}
	if err := s.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: peak ~68 Mbps at 4 blocks, ~45 Mbps past 64 blocks")
	fmt.Fprintln(w, "# measured: wall clock on this data plane with no CPU model; the paper's fall past 16")
	fmt.Fprintln(w, "# blocks came from its VMs' coding cost, so it is not expected here")
	return nil
}

// Fig5 reproduces Fig. 5: throughput versus VNF buffer size (in
// generations) under loss, where small buffers evict generations that
// retransmissions still need. The paper's curve saturates by 1024.
func Fig5(w io.Writer, o Options) error {
	sizes := []int{2, 4, 16, 64, 256, 1024, 1536}
	if o.Quick {
		sizes = []int{2, 64, 1024}
	}
	s := metrics.NewSeries("Fig 5: throughput vs buffer size (generations)",
		"buffer_generations", "throughput_mbps")
	for _, size := range sizes {
		res, err := RunButterfly(ButterflyOpts{
			BufferGenerations: size,
			Duration:          o.pointDuration(),
			Reliable:          true,
			LossTV2:           emunet.NewUniformLoss(0.1, o.Seed+int64(size)),
			ExtraSkew:         25 * time.Millisecond,
			Redundancy:        0,
			Seed:              o.Seed,
		})
		if err != nil {
			return fmt.Errorf("fig5 size=%d: %w", size, err)
		}
		s.Add(float64(size), map[string]float64{"throughput_mbps": res.GoodputMbps})
	}
	if err := s.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: rises from ~25 Mbps at tiny buffers, saturates ~70 Mbps by 1024 generations")
	return nil
}

// Fig7 reproduces Fig. 7: throughput over time for NC, routing-only
// (Non-NC), and Direct TCP on the butterfly.
func Fig7(w io.Writer, o Options) error {
	dur := o.pointDuration() * 2
	s := metrics.NewSeries("Fig 7: butterfly multicast throughput by scheme",
		"scheme_index", "throughput_mbps")
	type scheme struct {
		name string
		run  func() (float64, error)
	}
	schemes := []scheme{
		{"NC", func() (float64, error) {
			res, err := RunButterfly(ButterflyOpts{Duration: dur, Seed: o.Seed})
			return res.GoodputMbps, err
		}},
		{"Non-NC", func() (float64, error) {
			res, err := RunButterfly(ButterflyOpts{Duration: dur, ForceForwarding: true, Seed: o.Seed})
			return res.GoodputMbps, err
		}},
		{"DirectTCP", func() (float64, error) {
			return DirectTCPButterfly(dur)
		}},
	}
	g, src, dsts := topology.Butterfly()
	routingBound, _, err := g.RoutingMulticastCapacity(src, dsts, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Fig 7: butterfly throughput by scheme (coding bound = %.1f Mbps, routing-only bound = %.1f Mbps)\n",
		g.MulticastCapacity(src, dsts), routingBound)
	fmt.Fprintln(w, "scheme\tthroughput_mbps")
	values := make(map[string]float64, len(schemes))
	for i, sc := range schemes {
		v, err := sc.run()
		if err != nil {
			return fmt.Errorf("fig7 %s: %w", sc.name, err)
		}
		values[sc.name] = v
		fmt.Fprintf(w, "%s\t%.2f\n", sc.name, v)
		s.Add(float64(i), map[string]float64{"throughput_mbps": v})
	}
	// Invariant check the harness itself enforces: NC > Non-NC > Direct.
	if !(values["NC"] > values["Non-NC"] && values["Non-NC"] > values["DirectTCP"]) {
		fmt.Fprintf(w, "# WARNING: ordering NC > Non-NC > DirectTCP not reproduced this run\n")
	}
	fmt.Fprintln(w, "# paper: NC ~68, Non-NC ~55-60, Direct TCP ~15-25 (Mbps); max 69.9")
	return nil
}

// Table2 reproduces Table II: round-trip delay of the direct path versus
// the relayed path with and without coding, to each butterfly receiver.
func Table2(w io.Writer, o Options) error {
	pings := 5
	if o.Quick {
		pings = 2
	}
	fmt.Fprintln(w, "# Table II: delay comparison (ms, RTT)")
	fmt.Fprintln(w, "path\treceiver\tmin\tmax\tavg")

	// Direct paths: standard ping over the direct links.
	n := emunet.NewNetwork()
	n.SetDuplexLink("V1", "O2", emunet.LinkConfig{Delay: 45434 * time.Microsecond})
	n.SetDuplexLink("V1", "C2", emunet.LinkConfig{Delay: 38515 * time.Microsecond})
	for _, dst := range []string{"O2", "C2"} {
		resp := probe.NewResponder(n.Host(dst))
		p := probe.NewProber(n.Host("V1-probe-"+dst), nil)
		n.SetDuplexLink("V1-probe-"+dst, dst, mustLinkConfig(n, "V1", dst))
		res, err := p.Ping(dst, pings, 1460, 5*time.Second)
		p.Close()
		resp.Close()
		if err != nil {
			n.Close()
			return fmt.Errorf("table2 direct ping %s: %w", dst, err)
		}
		fmt.Fprintf(w, "direct\t%s\t%.2f\t%.2f\t%.2f\n",
			dst, ms(res.Min), ms(res.Max), ms(res.Avg))
	}
	n.Close()

	// Relayed paths: time from first generation sent to its ACK, with and
	// without coding at the relays.
	for _, coding := range []bool{true, false} {
		label := "relayed+coding"
		if !coding {
			label = "relayed"
		}
		mins, maxs, avgs, err := relayedRTT(o, coding, pings)
		if err != nil {
			return fmt.Errorf("table2 %s: %w", label, err)
		}
		for _, dst := range []string{"O2", "C2"} {
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f\t%.2f\n",
				label, dst, mins[dst], maxs[dst], avgs[dst])
		}
	}
	fmt.Fprintln(w, "# paper: direct 77.0/90.9 avg; relayed 166.5-168.8; coding adds 0.9-1.5%")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Fig8 reproduces Fig. 8: throughput under i.i.d. uniform loss on the
// T→V2 bottleneck for NC0/NC1/NC2 and the routing-only baseline.
func Fig8(w io.Writer, o Options) error {
	rates := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	if o.Quick {
		rates = []float64{0, 0.25, 0.5}
	}
	return lossSweep(w, o, "Fig 8: throughput vs uniform loss on T->V2", "loss_pct", rates,
		func(p float64, seed int64) emunet.LossModel {
			if p == 0 {
				return nil
			}
			return emunet.NewUniformLoss(p, seed)
		}, 100)
}

// Fig9 reproduces Fig. 9: throughput under the bursty loss process
// P_n = 25%·P_{n-1} + P on T→V2.
func Fig9(w io.Writer, o Options) error {
	rates := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
	if o.Quick {
		rates = []float64{0, 0.025, 0.05}
	}
	return lossSweep(w, o, "Fig 9: throughput vs burst loss P on T->V2", "P_pct", rates,
		func(p float64, seed int64) emunet.LossModel {
			if p == 0 {
				return nil
			}
			return emunet.NewBurstLoss(p, seed)
		}, 100)
}

// lossSweep runs the NC0/NC1/NC2/Non-NC grid over a loss parameter.
func lossSweep(w io.Writer, o Options, title, xlabel string, rates []float64,
	model func(p float64, seed int64) emunet.LossModel, xScale float64) error {
	s := metrics.NewSeries(title, xlabel, "NC0", "NC1", "NC2", "Non-NC")
	for i, p := range rates {
		row := make(map[string]float64, 4)
		for r := 0; r <= 2; r++ {
			res, err := RunButterfly(ButterflyOpts{
				Redundancy: r,
				Duration:   o.pointDuration(),
				LossTV2:    model(p, o.Seed+int64(i*10+r)),
				Seed:       o.Seed,
			})
			if err != nil {
				return fmt.Errorf("%s NC%d p=%v: %w", title, r, p, err)
			}
			row[fmt.Sprintf("NC%d", r)] = res.GoodputMbps
		}
		res, err := RunButterfly(ButterflyOpts{
			ForceForwarding: true,
			Duration:        o.pointDuration(),
			LossTV2:         model(p, o.Seed+int64(i*10+7)),
			Seed:            o.Seed,
		})
		if err != nil {
			return fmt.Errorf("%s Non-NC p=%v: %w", title, p, err)
		}
		row["Non-NC"] = res.GoodputMbps
		s.Add(p*xScale, row)
	}
	if err := s.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: NC0 collapses with loss; NC1/NC2 retain high throughput; redundancy wastes bandwidth at low loss")
	return nil
}

// Fig10 reproduces Fig. 10: total multicast throughput and number of VNFs
// over 120 minutes of session and receiver churn.
func Fig10(w io.Writer, o Options) error {
	d, err := flowsim.NewDeployment(flowsim.ScenarioConfig{Seed: o.Seed})
	if err != nil {
		return err
	}
	samples, err := flowsim.Run(d.Controller, d.Clock, d.Fig10Events(), flowsim.RunConfig{
		Duration: 120 * time.Minute,
		Interval: 10 * time.Minute,
	})
	if err != nil {
		return err
	}
	if err := flowsim.Series("Fig 10: total throughput and #VNFs under session/receiver churn", samples).WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: throughput and VNFs rise for 30 min (3->6 sessions), fall for the next 30 (6->3), stable through receiver churn")
	return nil
}

// Fig11 reproduces Fig. 11: throughput and VNF count under bandwidth cuts.
func Fig11(w io.Writer, o Options) error {
	d, err := flowsim.NewDeployment(flowsim.ScenarioConfig{Seed: o.Seed})
	if err != nil {
		return err
	}
	samples, err := flowsim.Run(d.Controller, d.Clock, d.Fig11Events(), flowsim.RunConfig{
		Duration:   70 * time.Minute,
		Interval:   10 * time.Minute,
		Throughput: d.EffectiveThroughput(),
	})
	if err != nil {
		return err
	}
	if err := flowsim.Series("Fig 11: throughput and #VNFs under 50% bandwidth cuts every 20 min", samples).WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: throughput dips at each cut and recovers within ~10 min as the scaling algorithm launches VNFs; a cut may be left unmitigated when scaling out lowers the objective")
	return nil
}

// Fig12 reproduces Fig. 12: total throughput versus the maximum tolerable
// delay L^max (scaling disabled; one static solve per point).
func Fig12(w io.Writer, o Options) error {
	lmaxes := []time.Duration{75, 100, 125, 150, 175, 200}
	if o.Quick {
		lmaxes = []time.Duration{75, 150, 200}
	}
	d, err := flowsim.NewDeployment(flowsim.ScenarioConfig{Seed: o.Seed})
	if err != nil {
		return err
	}
	// Stretch the overlay's propagation delays so the 75-200 ms Lmax axis
	// actually gates path choice (the paper's measured source→receiver
	// paths span up to ~170 ms RTT; our compact delay matrix tops out
	// lower, so without stretching every path fits under 75 ms).
	stretched := d.Graph.Clone()
	for _, l := range stretched.Links() {
		if err := stretched.SetDelay(l.From, l.To, time.Duration(2.8*float64(l.Delay))); err != nil {
			return err
		}
	}
	s := metrics.NewSeries("Fig 12: total throughput vs max tolerable delay", "lmax_ms", "throughput_mbps")
	for _, lm := range lmaxes {
		lmax := lm * time.Millisecond
		// Sessions whose receivers have no path at all within Lmax carry
		// zero rate; they rejoin the optimization as Lmax grows.
		var sessions []optimize.Session
		for _, sess := range d.Sessions {
			sess.MaxDelay = lmax
			feasible := true
			for _, r := range sess.Receivers {
				if len(stretched.FeasiblePathsMaxHops(sess.Source, r, lmax, 3)) == 0 {
					feasible = false
					break
				}
			}
			if feasible {
				sessions = append(sessions, sess)
			}
		}
		// "Disabling the scaling algorithm": the deployment is pinned to
		// one VNF per data center; only the feasible path set varies with
		// Lmax. Larger Lmax lets flows detour around the bandwidth-scarce
		// VNFs, raising throughput until new paths stop contributing.
		cfg := staticConfig(d)
		cfg.Graph = stretched
		cfg.BaseVNFs = map[topology.NodeID]int{}
		for i := range cfg.DataCenters {
			cfg.DataCenters[i].MaxVNFs = 1
			cfg.BaseVNFs[cfg.DataCenters[i].ID] = 1
		}
		plan, err := optimize.Solve(cfg, sessions)
		if err != nil {
			return fmt.Errorf("fig12 lmax=%v: %w", lmax, err)
		}
		s.Add(float64(lm), map[string]float64{"throughput_mbps": plan.TotalRate()})
	}
	if err := s.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: throughput grows with Lmax and plateaus past 150 ms (new feasible paths stop contributing)")
	return nil
}

// Fig13 reproduces Fig. 13: throughput and VNF count versus α.
func Fig13(w io.Writer, o Options) error {
	alphas := []float64{0, 20, 50, 100, 150, 200}
	if o.Quick {
		alphas = []float64{0, 100, 200}
	}
	d, err := flowsim.NewDeployment(flowsim.ScenarioConfig{Seed: o.Seed})
	if err != nil {
		return err
	}
	s := metrics.NewSeries("Fig 13: throughput and #VNFs vs alpha", "alpha", "throughput_mbps", "vnfs")
	for _, alpha := range alphas {
		cfg := staticConfig(d)
		cfg.Alpha = alpha
		plan, err := optimize.Solve(cfg, d.Sessions)
		if err != nil {
			return fmt.Errorf("fig13 alpha=%v: %w", alpha, err)
		}
		s.Add(alpha, map[string]float64{
			"throughput_mbps": plan.TotalRate(),
			"vnfs":            float64(plan.TotalVNFs()),
		})
	}
	if err := s.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: throughput and VNF count decrease as alpha grows; no VNFs at alpha=200")
	return nil
}

// staticConfig extracts the optimizer configuration of a flowsim
// deployment for scaling-disabled static solves.
func staticConfig(d *flowsim.Deployment) optimize.Config {
	dcs := make([]optimize.DataCenter, 0, len(d.Regions))
	for _, region := range d.Regions {
		r, _ := d.Cloud.Region(region)
		dcs = append(dcs, optimize.DataCenter{
			ID:       region,
			BinMbps:  r.BaseInMbps,
			BoutMbps: r.BaseOutMbps,
			CodeMbps: 500,
		})
	}
	sourceOut := make(map[topology.NodeID]float64)
	destIn := make(map[topology.NodeID]float64)
	for _, sess := range d.Sessions {
		sourceOut[sess.Source] = 2 * sess.RateCap
		for _, r := range sess.Receivers {
			destIn[r] = sess.RateCap
		}
	}
	return optimize.Config{
		Graph:         d.Graph,
		DataCenters:   dcs,
		Alpha:         20,
		MaxPathHops:   3,
		SourceOutMbps: sourceOut,
		DestInMbps:    destIn,
	}
}
