package flowsim

import (
	"strings"
	"testing"
	"time"
)

func TestPoissonEventsValidation(t *testing.T) {
	d, err := NewDeployment(ScenarioConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := []TraceConfig{
		{ArrivalsPerHour: 0, MeanHold: time.Minute, Duration: time.Hour},
		{ArrivalsPerHour: 1, MeanHold: 0, Duration: time.Hour},
		{ArrivalsPerHour: 1, MeanHold: time.Minute, Duration: 0},
	}
	for i, cfg := range bad {
		if _, err := d.PoissonEvents(cfg); err == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}

func TestPoissonEventsStatistics(t *testing.T) {
	d, err := NewDeployment(ScenarioConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	events, err := d.PoissonEvents(TraceConfig{
		ArrivalsPerHour: 12,
		MeanHold:        20 * time.Minute,
		Duration:        10 * time.Hour,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	joins, leaves := 0, 0
	for _, e := range events {
		if e.At < 0 || e.At > 10*time.Hour {
			t.Fatalf("event outside horizon: %v", e.At)
		}
		switch e.Name[:12] {
		case "poisson join":
			joins++
		default:
			leaves++
		}
	}
	// λ = 12/h over 10 h → ~120 arrivals; allow ±40%.
	if joins < 72 || joins > 168 {
		t.Fatalf("joins = %d, want ~120", joins)
	}
	if leaves > joins {
		t.Fatalf("more leaves (%d) than joins (%d)", leaves, joins)
	}
	if leaves == 0 {
		t.Fatal("no departures in a 10-hour trace with 20-minute holds")
	}
}

func TestPoissonDeterministic(t *testing.T) {
	d, _ := NewDeployment(ScenarioConfig{Seed: 2})
	a, err := d.PoissonEvents(TraceConfig{ArrivalsPerHour: 6, MeanHold: 10 * time.Minute, Duration: time.Hour, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := NewDeployment(ScenarioConfig{Seed: 2})
	b, err := d2.PoissonEvents(TraceConfig{ArrivalsPerHour: 6, MeanHold: 10 * time.Minute, Duration: time.Hour, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Name != b[i].Name {
			t.Fatalf("event %d differs: %v vs %v", i, a[i].Name, b[i].Name)
		}
	}
}

func TestSoakControllerSurvivesChurn(t *testing.T) {
	scenario := ScenarioConfig{Seed: 4}
	trace := TraceConfig{ArrivalsPerHour: 8, MeanHold: 25 * time.Minute, Duration: 2 * time.Hour, Seed: 6}
	samples, peak, err := Soak(scenario, trace, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 13 {
		t.Fatalf("samples = %d", len(samples))
	}
	// The peak the controller held must be the trace's own: count the
	// joins and leaves due at each sample instant.
	d, err := NewDeployment(scenario)
	if err != nil {
		t.Fatal(err)
	}
	events, err := d.PoissonEvents(trace)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for at := time.Duration(0); at <= trace.Duration; at += 10 * time.Minute {
		n := 0
		for _, e := range events {
			if e.At <= at && strings.HasPrefix(e.Name, "poisson join") {
				n++
			} else if e.At <= at && strings.HasPrefix(e.Name, "poisson leave") {
				n--
			}
		}
		want = max(want, n)
	}
	if peak == 0 || peak != want {
		t.Fatalf("peak concurrent sessions = %d, the trace's is %d", peak, want)
	}
	// Whenever sessions are active the controller must report throughput
	// and VNFs; when none are active both must be able to drain to zero.
	for _, s := range samples {
		if s.Throughput < 0 {
			t.Fatalf("negative throughput at %v", s.At)
		}
	}
}
