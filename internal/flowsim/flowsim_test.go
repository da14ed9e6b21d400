package flowsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ncfn/internal/controller"
	"ncfn/internal/rlnc"
	"ncfn/internal/topology"
)

func TestNewDeploymentDefaults(t *testing.T) {
	d, err := NewDeployment(ScenarioConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Sessions) != 6 {
		t.Fatalf("sessions = %d, want 6", len(d.Sessions))
	}
	if len(d.Regions) != 6 {
		t.Fatalf("regions = %d, want 6", len(d.Regions))
	}
	for _, s := range d.Sessions {
		if len(s.Receivers) < 1 || len(s.Receivers) > 4 {
			t.Fatalf("session %d has %d receivers, want [1,4]", s.ID, len(s.Receivers))
		}
		if s.RateCap != 250 {
			t.Fatalf("rate cap = %v", s.RateCap)
		}
	}
}

func TestFig10TimelineShape(t *testing.T) {
	d, err := NewDeployment(ScenarioConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := Run(d.Controller, d.Clock, d.Fig10Events(), RunConfig{
		Duration: 120 * time.Minute,
		Interval: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 13 {
		t.Fatalf("samples = %d, want 13", len(samples))
	}
	byMinute := make(map[float64]Sample, len(samples))
	for _, s := range samples {
		byMinute[s.At.Minutes()] = s
	}
	// Throughput grows over the first 30 minutes as sessions join...
	if !(byMinute[30].Throughput > byMinute[0].Throughput) {
		t.Fatalf("throughput did not grow: t0=%v t30=%v", byMinute[0].Throughput, byMinute[30].Throughput)
	}
	// ...and shrinks after sessions leave (minute 60 has 3 sessions).
	if !(byMinute[60].Throughput < byMinute[30].Throughput) {
		t.Fatalf("throughput did not shrink: t30=%v t60=%v", byMinute[30].Throughput, byMinute[60].Throughput)
	}
	// VNF count follows the same rise and fall.
	if !(byMinute[30].VNFs >= byMinute[0].VNFs) {
		t.Fatalf("VNFs did not grow: %v -> %v", byMinute[0].VNFs, byMinute[30].VNFs)
	}
	// After the tail (sessions stable), VNFs must be below the peak.
	peak := 0
	for _, s := range samples {
		if s.VNFs > peak {
			peak = s.VNFs
		}
	}
	if byMinute[120].VNFs > peak {
		t.Fatal("final VNF count above peak")
	}
	// Positive throughput throughout (three sessions always active).
	for _, s := range samples {
		if s.Throughput <= 0 {
			t.Fatalf("zero throughput at %v", s.At)
		}
	}
}

func TestFig11BandwidthCutsRecover(t *testing.T) {
	d, err := NewDeployment(ScenarioConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := Run(d.Controller, d.Clock, d.Fig11Events(), RunConfig{
		Duration: 70 * time.Minute,
		Interval: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("samples = %d", len(samples))
	}
	base := samples[0].Throughput
	if base <= 0 {
		t.Fatal("no initial throughput")
	}
	// Throughput must stay within a sane band (cuts can reduce it, the
	// controller recovers it), and VNFs must never be zero while six
	// sessions are active.
	for _, s := range samples {
		if s.Throughput < 0 || s.Throughput > base*1.5 {
			t.Fatalf("throughput %v out of band at %v", s.Throughput, s.At)
		}
		if s.VNFs == 0 {
			t.Fatalf("zero VNFs at %v", s.At)
		}
	}
}

// TestTimelinesRenderDeployFiles replays the Fig 10 and Fig 11 timelines
// and, after every event, renders the controller's adopted plan as the
// deploy file a live deployment would apply: each must render and validate
// at small and large generation sizes.
func TestTimelinesRenderDeployFiles(t *testing.T) {
	timelines := []struct {
		events   func(*Deployment) []Event
		duration time.Duration
	}{
		{(*Deployment).Fig10Events, 120 * time.Minute},
		{(*Deployment).Fig11Events, 70 * time.Minute},
	}
	for _, k := range []int{4, 64} {
		params := rlnc.Params{GenerationBlocks: k, BlockSize: rlnc.DefaultBlockSize}
		for seed := int64(1); seed <= 5; seed++ {
			rendered := 0
			for _, tl := range timelines {
				d, err := NewDeployment(ScenarioConfig{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				events := tl.events(d)
				for i := range events {
					do, name := events[i].Do, events[i].Name
					events[i].Do = func(c *controller.Controller) error {
						if err := do(c); err != nil {
							return err
						}
						sessions, plan := c.Plan()
						f, err := controller.BuildDeployFile(params, 0, sessions, plan, func(dc topology.NodeID) []string {
							return []string{string(dc)}
						})
						if err != nil {
							return fmt.Errorf("render after %q: %w", name, err)
						}
						rendered++
						return f.Validate()
					}
				}
				if _, err := Run(d.Controller, d.Clock, events, RunConfig{Duration: tl.duration, Interval: 10 * time.Minute}); err != nil {
					t.Fatalf("k=%d seed %d: %v", k, seed, err)
				}
			}
			if rendered != 31 {
				t.Fatalf("k=%d seed %d: rendered %d deploy files, want one per event (31)", k, seed, rendered)
			}
		}
	}
}

func TestRunEventErrorPropagates(t *testing.T) {
	d, err := NewDeployment(ScenarioConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{{
		At:   0,
		Name: "boom",
		Do:   func(*controller.Controller) error { return errBoom{} },
	}}
	if _, err := Run(d.Controller, d.Clock, events, RunConfig{Duration: 10 * time.Minute, Interval: 10 * time.Minute}); err == nil {
		t.Fatal("event error swallowed")
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestSeriesRendering(t *testing.T) {
	samples := []Sample{
		{At: 0, Throughput: 100, VNFs: 3},
		{At: 10 * time.Minute, Throughput: 200, VNFs: 5},
	}
	s := Series("Fig 10", samples)
	var sb strings.Builder
	if err := s.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig 10") || !strings.Contains(out, "200") {
		t.Fatalf("series table: %q", out)
	}
}

func TestDeterministicScenario(t *testing.T) {
	a, err := NewDeployment(ScenarioConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDeployment(ScenarioConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sessions {
		if a.Sessions[i].Source != b.Sessions[i].Source {
			t.Fatal("scenario not deterministic")
		}
		if len(a.Sessions[i].Receivers) != len(b.Sessions[i].Receivers) {
			t.Fatal("scenario not deterministic")
		}
	}
}

// TestFig11Deterministic replays Fig 11 five times with one seed and wants
// the same samples each time: the measured bandwidths draw their jitter from
// the cloud's one rng, so the controller must visit data centers in the same
// order every run.
func TestFig11Deterministic(t *testing.T) {
	var first []Sample
	for run := 0; run < 5; run++ {
		d, err := NewDeployment(ScenarioConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		samples, err := Run(d.Controller, d.Clock, d.Fig11Events(), RunConfig{
			Duration:   70 * time.Minute,
			Interval:   10 * time.Minute,
			Throughput: d.EffectiveThroughput(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = samples
		} else if !reflect.DeepEqual(samples, first) {
			t.Fatalf("run %d samples differ from run 0:\n%v\n%v", run, samples, first)
		}
	}
}
