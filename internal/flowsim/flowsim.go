// Package flowsim drives the controller through the paper's dynamic
// scenarios (Sec. V-C) under a virtual clock: timelines of session and
// receiver churn (Fig. 10), bandwidth cuts (Fig. 11), and parameter sweeps
// (Figs. 12 and 13). A 120-minute experiment completes in milliseconds
// while exercising exactly the control-plane code a real deployment runs.
package flowsim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/controller"
	"ncfn/internal/metrics"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/simclock"
	"ncfn/internal/topology"
)

// Event is one scheduled control-plane action.
type Event struct {
	At   time.Duration
	Name string
	Do   func(c *controller.Controller) error
}

// RunConfig configures a timeline run.
type RunConfig struct {
	Duration time.Duration
	// Interval is the sampling (and measurement-collection) period; the
	// paper uses 10 minutes.
	Interval time.Duration
	// Throughput overrides the sampled throughput metric; the default is
	// the controller's planned total rate. Fig. 11 samples the *effective*
	// rate instead, which dips when a bandwidth cut has not yet been
	// confirmed by the scaling algorithm.
	Throughput func(c *controller.Controller) float64
}

// Sample is one measurement row of a dynamic experiment.
type Sample struct {
	At         time.Duration
	Throughput float64
	VNFs       int // running VNFs (active + idle within τ)
}

// Run replays the events against the controller, sampling total throughput
// and VNF count every interval. Events fire at their scheduled times in
// order; samples are taken after the events of each tick are applied.
func Run(ctrl *controller.Controller, clk *simclock.Virtual, events []Event, cfg RunConfig) ([]Sample, error) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	var samples []Sample
	next := 0
	start := clk.Now()
	for at := time.Duration(0); at <= cfg.Duration; at += cfg.Interval {
		// Advance the clock to this tick.
		target := start.Add(at)
		if d := target.Sub(clk.Now()); d > 0 {
			clk.Advance(d)
		}
		// Fire due events.
		for next < len(events) && events[next].At <= at {
			if err := events[next].Do(ctrl); err != nil {
				return samples, fmt.Errorf("flowsim: event %q at %v: %w", events[next].Name, events[next].At, err)
			}
			next++
		}
		ctrl.Tick()
		active, idle := ctrl.VNFCounts()
		_, plan := ctrl.Plan()
		throughput := plan.TotalRate()
		if cfg.Throughput != nil {
			throughput = cfg.Throughput(ctrl)
		}
		samples = append(samples, Sample{
			At:         at,
			Throughput: throughput,
			VNFs:       active + idle,
		})
	}
	return samples, nil
}

// Series converts samples to a printable metrics series.
func Series(title string, samples []Sample) *metrics.Series {
	s := metrics.NewSeries(title, "minute", "throughput_mbps", "vnfs")
	for _, sm := range samples {
		s.Add(sm.At.Minutes(), map[string]float64{
			"throughput_mbps": sm.Throughput,
			"vnfs":            float64(sm.VNFs),
		})
	}
	return s
}

// Deployment bundles everything a dynamic scenario needs.
type Deployment struct {
	Controller *controller.Controller
	Clock      *simclock.Virtual
	Cloud      *cloud.Cloud
	Graph      *topology.Graph
	Regions    []topology.NodeID
	// Sessions are the scenario's prepared sessions (some join later).
	Sessions []optimize.Session
}

// ScenarioConfig tunes the six-data-center deployment of Sec. V-C.
type ScenarioConfig struct {
	Seed int64
	// Alpha is the conversion factor (default 20, Sec. V-C).
	Alpha float64
	// MaxDelay is L^max for every session (default 150 ms).
	MaxDelay time.Duration
	// Sessions is how many sessions to prepare (default 6).
	Sessions int
	// RatePerSession caps each session (models the application's target
	// rate; keeps per-session demand in the paper's a-few-hundred-Mbps
	// range).
	RatePerSession float64
	// Tau is the VNF idle shutdown delay (default 10 min).
	Tau time.Duration
}

// epoch anchors virtual time.
var epoch = time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)

// NewDeployment builds the six-region geo-distributed deployment: EC2
// California/Oregon/Virginia + Linode Texas/Georgia/New Jersey, sources and
// receivers distributed uniformly at random across the regions (Sec. V-C:
// "The sources and receivers are distributed uniformly randomly across the
// six data centers in North America").
func NewDeployment(cfg ScenarioConfig) (*Deployment, error) {
	if cfg.Alpha == 0 {
		cfg.Alpha = 20
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 150 * time.Millisecond
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 6
	}
	if cfg.RatePerSession <= 0 {
		cfg.RatePerSession = 250
	}
	if cfg.Tau <= 0 {
		cfg.Tau = 10 * time.Minute
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	clk := simclock.NewVirtual(epoch)

	regions := cloud.PaperRegions()
	for i := range regions {
		regions[i].LaunchDelay = cloud.DefaultLaunchDelay
	}
	cl := cloud.New(clk, cfg.Seed, regions...)
	delays := cloud.PaperDelays()

	g := topology.New()
	var regionIDs []topology.NodeID
	for _, r := range regions {
		g.AddNode(r.ID, topology.DataCenter)
		regionIDs = append(regionIDs, r.ID)
	}
	// Full mesh between data centers; capacity unconstrained at the link
	// level (the per-VNF bandwidth caps of program (2) bind instead).
	for _, a := range regionIDs {
		for _, b := range regionIDs {
			if a == b {
				continue
			}
			if err := g.AddLink(topology.Link{From: a, To: b, Delay: delays[[2]topology.NodeID{a, b}]}); err != nil {
				return nil, err
			}
		}
	}

	dcs := make([]optimize.DataCenter, 0, len(regions))
	for _, r := range regions {
		dcs = append(dcs, optimize.DataCenter{
			ID:       r.ID,
			BinMbps:  r.BaseInMbps,
			BoutMbps: r.BaseOutMbps,
			CodeMbps: 500, // one VNF encodes at up to 500 Mbps
		})
	}

	// Prepare sessions with random endpoints.
	sourceOut := make(map[topology.NodeID]float64)
	destIn := make(map[topology.NodeID]float64)
	sessions := make([]optimize.Session, 0, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		id := ncproto.SessionID(i + 1)
		srcRegion := regionIDs[rng.Intn(len(regionIDs))]
		srcNode := topology.NodeID(fmt.Sprintf("src%d@%s", id, srcRegion))
		g.AddNode(srcNode, topology.Source)
		nRecv := rng.Intn(4) + 1 // "uniformly random number of receivers in the range [1, 4]"
		var receivers []topology.NodeID
		for r := 0; r < nRecv; r++ {
			recvRegion := regionIDs[rng.Intn(len(regionIDs))]
			recvNode := topology.NodeID(fmt.Sprintf("recv%d.%d@%s", id, r, recvRegion))
			g.AddNode(recvNode, topology.Destination)
			receivers = append(receivers, recvNode)
			// Access links: receiver reachable from every DC (it pulls
			// the flow from whichever DC the optimizer picks) and
			// directly from the source's region. Per-link jitter models
			// VM-placement and last-mile variance.
			for _, dc := range regionIDs {
				d := delays[[2]topology.NodeID{dc, recvRegion}]
				if dc == recvRegion {
					d = 2 * time.Millisecond
				}
				d = time.Duration(float64(d) * (0.8 + 0.6*rng.Float64()))
				if err := g.AddLink(topology.Link{From: dc, To: recvNode, Delay: d}); err != nil {
					return nil, err
				}
			}
			destIn[recvNode] = cfg.RatePerSession
		}
		// Source connects into every DC, with the same jitter model.
		for _, dc := range regionIDs {
			d := delays[[2]topology.NodeID{srcRegion, dc}]
			if dc == srcRegion {
				d = 2 * time.Millisecond
			}
			d = time.Duration(float64(d) * (0.8 + 0.6*rng.Float64()))
			if err := g.AddLink(topology.Link{From: srcNode, To: dc, Delay: d}); err != nil {
				return nil, err
			}
		}
		sourceOut[srcNode] = 2 * cfg.RatePerSession
		sessions = append(sessions, optimize.Session{
			ID:        id,
			Source:    srcNode,
			Receivers: receivers,
			MaxDelay:  cfg.MaxDelay,
			RateCap:   cfg.RatePerSession,
		})
	}

	ctrl := controller.New(controller.Config{
		Optimize: optimize.Config{
			Graph:       g,
			DataCenters: dcs,
			Alpha:       cfg.Alpha,
			// One coding relay per path: with six fully-meshed regions,
			// two-relay paths multiply the conceptual-flow LP by ~6x per
			// receiver while adding no capacity the dynamics use, and the
			// joint re-solves after departures become minutes-slow.
			MaxPathHops:   2,
			SourceOutMbps: sourceOut,
			DestInMbps:    destIn,
		},
		Cloud: cl,
		Clock: clk,
		Tau:   cfg.Tau,
		Tau1:  10 * time.Minute,
		Rho1:  0.05,
	})
	return &Deployment{
		Controller: ctrl,
		Clock:      clk,
		Cloud:      cl,
		Graph:      g,
		Regions:    regionIDs,
		Sessions:   sessions,
	}, nil
}

// Fig10Events builds the Sec. V-C1 timeline: start with 3 sessions, one
// more joins every 10 minutes up to 6, then one leaves every 10 minutes
// down to 3; a receiver joins one session at minutes 70/80/90 and leaves at
// 100/110/120.
func (d *Deployment) Fig10Events() []Event {
	min := func(m int) time.Duration { return time.Duration(m) * time.Minute }
	var events []Event
	join := func(at time.Duration, s optimize.Session) {
		events = append(events, Event{
			At:   at,
			Name: fmt.Sprintf("session %d joins", s.ID),
			Do:   func(c *controller.Controller) error { return c.AddSession(s) },
		})
	}
	leave := func(at time.Duration, id ncproto.SessionID) {
		events = append(events, Event{
			At:   at,
			Name: fmt.Sprintf("session %d leaves", id),
			Do:   func(c *controller.Controller) error { return c.RemoveSession(id) },
		})
	}
	// Initial three sessions at t=0, then one every 10 minutes.
	join(0, d.Sessions[0])
	join(0, d.Sessions[1])
	join(0, d.Sessions[2])
	join(min(10), d.Sessions[3])
	join(min(20), d.Sessions[4])
	join(min(30), d.Sessions[5])
	leave(min(40), d.Sessions[0].ID)
	leave(min(50), d.Sessions[1].ID)
	leave(min(60), d.Sessions[2].ID)

	// Receiver churn on a surviving session (session 4): the i-th joiner
	// comes at minute 70+10i and leaves at 100+10i. Joiners are existing
	// receiver nodes of other sessions, already wired into the graph.
	target := d.Sessions[3]
	for i := 0; i < 3; i++ {
		r := d.Sessions[(4+i)%6].Receivers[0]
		events = append(events, Event{
			At:   min(70 + 10*i),
			Name: fmt.Sprintf("receiver %s joins session %d", r, target.ID),
			Do:   func(c *controller.Controller) error { return c.AddReceiver(target.ID, r) },
		}, Event{
			At:   min(100 + 10*i),
			Name: fmt.Sprintf("receiver %s leaves session %d", r, target.ID),
			Do:   func(c *controller.Controller) error { return c.RemoveReceiver(target.ID, r) },
		})
	}
	return events
}

// EffectiveThroughput returns a RunConfig.Throughput function that
// throttles sessions by the cloud's actual (possibly cut) per-VNF
// bandwidth — what a receiver-side measurement would observe.
func (d *Deployment) EffectiveThroughput() func(c *controller.Controller) float64 {
	return func(c *controller.Controller) float64 {
		return c.EffectiveThroughput(func(dc topology.NodeID) (float64, float64) {
			sample, err := d.Cloud.MeasureBandwidth(dc)
			if err != nil {
				return 0, 0
			}
			return sample.InMbps, sample.OutMbps
		})
	}
}

// Fig11Events builds the Sec. V-C2 timeline: all six sessions start at
// t=0; every 20 minutes (starting at minute 10) the most loaded in-use
// region's per-VNF bandwidth is cut in half, and the controller's periodic
// bandwidth probes observe it.
func (d *Deployment) Fig11Events() []Event {
	min := func(m int) time.Duration { return time.Duration(m) * time.Minute }
	var events []Event
	for _, s := range d.Sessions {
		s := s
		events = append(events, Event{
			At:   0,
			Name: fmt.Sprintf("session %d joins", s.ID),
			Do:   func(c *controller.Controller) error { return c.AddSession(s) },
		})
	}
	// Bandwidth observation every 10 minutes for every region: the
	// controller reads the cloud's current (possibly cut) bandwidth.
	for m := 10; m <= 70; m += 10 {
		at := min(m)
		events = append(events, Event{
			At:   at,
			Name: fmt.Sprintf("bandwidth probes at minute %d", m),
			Do: func(c *controller.Controller) error {
				for _, region := range d.Regions {
					sample, err := d.Cloud.MeasureBandwidth(region)
					if err != nil {
						return err
					}
					if err := c.ObserveBandwidth(region, sample.InMbps, sample.OutMbps); err != nil {
						return err
					}
				}
				return nil
			},
		})
	}
	// Cuts at minutes 10, 30, 50. The paper cuts "a randomly selected
	// (currently used) data center"; we weight the choice toward loaded
	// regions so every cut actually hits traffic.
	cutAlready := make(map[topology.NodeID]bool)
	for _, m := range []int{10, 30, 50} {
		at := min(m) - time.Minute // cut lands just before the probe
		events = append(events, Event{
			At:   at,
			Name: fmt.Sprintf("bandwidth cut #%d", m),
			Do: func(c *controller.Controller) error {
				in, out := c.LoadPerDC()
				var candidates []topology.NodeID
				for _, region := range d.Regions {
					if !cutAlready[region] && in[region]+out[region] > 0 {
						candidates = append(candidates, region)
					}
				}
				if len(candidates) == 0 {
					candidates = d.Regions
				}
				// Pick the most-loaded candidate; ties go to the earlier region.
				best := candidates[0]
				for _, region := range candidates[1:] {
					if in[region]+out[region] > in[best]+out[best] {
						best = region
					}
				}
				cutAlready[best] = true
				return d.Cloud.SetBandwidthScale(best, 0.5)
			},
		})
	}
	return events
}
