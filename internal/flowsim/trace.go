package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ncfn/internal/controller"
	"ncfn/internal/ncproto"
)

// This file generalizes the paper's hand-scripted churn (Fig. 10) into a
// stochastic workload generator: sessions arrive as a Poisson process and
// hold for exponentially distributed durations, the standard teletraffic
// model for service arrivals. It lets the controller be soaked under
// arbitrary load levels rather than the single scripted timeline.

// TraceConfig parameterizes a generated churn trace.
type TraceConfig struct {
	// ArrivalsPerHour is the Poisson arrival rate λ.
	ArrivalsPerHour float64
	// MeanHold is the mean session lifetime (exponential).
	MeanHold time.Duration
	// Duration is the trace horizon; arrivals after it are dropped.
	Duration time.Duration
	// Seed fixes the randomness.
	Seed int64
}

// PoissonEvents generates join/leave events for the deployment's prepared
// sessions under the trace configuration. Each arrival activates the next
// inactive prepared session (IDs are remapped so a session can recur);
// departures follow after the exponential hold time.
func (d *Deployment) PoissonEvents(cfg TraceConfig) ([]Event, error) {
	if cfg.ArrivalsPerHour <= 0 {
		return nil, fmt.Errorf("flowsim: arrival rate must be positive")
	}
	if cfg.MeanHold <= 0 {
		return nil, fmt.Errorf("flowsim: mean hold must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("flowsim: trace duration must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	exp := func(mean float64) float64 {
		// Inverse-CDF sampling of an exponential.
		return -mean * math.Log(1-rng.Float64())
	}

	var events []Event
	at := time.Duration(0)
	meanGap := float64(time.Hour) / cfg.ArrivalsPerHour
	nextID := ncproto.SessionID(1000) // remapped IDs, clear of the prepared ones
	slot := 0
	for {
		at += time.Duration(exp(meanGap))
		if at > cfg.Duration {
			break
		}
		// Clone the next prepared session under a fresh ID so repeats of
		// the same endpoints are distinct controller sessions.
		template := d.Sessions[slot%len(d.Sessions)]
		slot++
		session := template
		session.ID = nextID
		nextID++
		hold := time.Duration(exp(float64(cfg.MeanHold)))
		depart := at + hold

		s := session
		events = append(events, Event{
			At:   at,
			Name: fmt.Sprintf("poisson join %d (%s)", s.ID, s.Source),
			Do:   func(c *controller.Controller) error { return c.AddSession(s) },
		})
		if depart <= cfg.Duration {
			id := s.ID
			events = append(events, Event{
				At:   depart,
				Name: fmt.Sprintf("poisson leave %d", id),
				Do:   func(c *controller.Controller) error { return c.RemoveSession(id) },
			})
		}
	}
	return events, nil
}

// Soak runs a Poisson trace against a fresh deployment and returns the
// samples plus the peak concurrent session count — a convenience for load
// tests and capacity studies.
func Soak(scenario ScenarioConfig, trace TraceConfig, interval time.Duration) ([]Sample, int, error) {
	d, err := NewDeployment(scenario)
	if err != nil {
		return nil, 0, err
	}
	events, err := d.PoissonEvents(trace)
	if err != nil {
		return nil, 0, err
	}
	peak := 0
	samples, err := Run(d.Controller, d.Clock, events, RunConfig{
		Duration: trace.Duration,
		Interval: interval,
		Throughput: func(c *controller.Controller) float64 {
			sessions, plan := c.Plan()
			peak = max(peak, len(sessions))
			return plan.TotalRate()
		},
	})
	return samples, peak, err
}
