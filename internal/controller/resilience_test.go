package controller

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/leakcheck"
	"ncfn/internal/simclock"
)

func TestBackoffSchedule(t *testing.T) {
	p := DefaultRetryPolicy()
	want := []time.Duration{
		500 * time.Millisecond, // attempt 1
		time.Second,
		2 * time.Second,
		4 * time.Second,
		8 * time.Second, // hits the cap
		8 * time.Second, // stays capped
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := p.Backoff(0); got != 500*time.Millisecond {
		t.Errorf("Backoff(0) = %v, want clamped to first retry", got)
	}
	// Determinism: no jitter, same inputs, same outputs.
	if p.Backoff(3) != p.Backoff(3) {
		t.Error("Backoff is not deterministic")
	}
}

func TestPoolLaunchRetriesTransientFailures(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	cl := cloud.New(clk, 1, cloud.Region{ID: "oregon", BaseInMbps: 900, BaseOutMbps: 900})
	pool := newVNFPool("oregon", cl, clk, time.Minute, RetryPolicy{MaxAttempts: 4})
	cl.FailLaunches("oregon", 2)
	launched, err := pool.ensure(1)
	if err != nil {
		t.Fatalf("ensure = %v", err)
	}
	if launched != 1 {
		t.Fatalf("launched = %d, want 1", launched)
	}
	if pool.launchRetries != 2 {
		t.Fatalf("launchRetries = %d, want 2", pool.launchRetries)
	}
}

func TestPoolLaunchExhaustsRetries(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	cl := cloud.New(clk, 1, cloud.Region{ID: "oregon", BaseInMbps: 900, BaseOutMbps: 900})
	pool := newVNFPool("oregon", cl, clk, time.Minute, RetryPolicy{MaxAttempts: 3})
	cl.FailLaunches("oregon", 10)
	if _, err := pool.ensure(1); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("ensure = %v, want ErrRetriesExhausted", err)
	}
}

// supervisedCloud builds a virtual-clock cloud with one running instance in
// "oregon" and a supervisor managing it via InstanceCheck.
func supervisedCloud(t *testing.T, retry RetryPolicy) (*cloud.Cloud, *simclock.Virtual, *Supervisor, *cloud.Instance, *atomic.Int32) {
	t.Helper()
	clk := simclock.NewVirtual(time.Unix(0, 0))
	cl := cloud.New(clk, 1, cloud.Region{ID: "oregon", BaseInMbps: 900, BaseOutMbps: 900})
	inst, err := cl.LaunchInstance("oregon")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(cloud.DefaultLaunchDelay)
	sup := NewSupervisor(SupervisorConfig{Cloud: cl, Clock: clk, Retry: retry, FailThreshold: 2})
	var redeploys atomic.Int32
	sup.Manage("T", "oregon", inst.ID, InstanceCheck(cl), func(ctx context.Context, newInstance string) error {
		redeploys.Add(1)
		return nil
	})
	return cl, clk, sup, inst, &redeploys
}

func TestSupervisorRecoversCrashedVNF(t *testing.T) {
	leakcheck.Check(t)
	cl, clk, sup, inst, redeploys := supervisedCloud(t, RetryPolicy{})

	// Healthy ticks do nothing.
	sup.Tick()
	sup.Tick()
	if len(sup.Events()) != 0 {
		t.Fatal("healthy VNF produced failover events")
	}

	if err := cl.CrashInstance(inst.ID); err != nil {
		t.Fatal(err)
	}
	crashAt := clk.Now()
	tick := time.Second
	// Two failed checks cross the threshold; next tick launches.
	sup.Tick()
	clk.Advance(tick)
	sup.Tick() // detection
	clk.Advance(tick)
	sup.Tick() // relaunch accepted
	// Walk virtual time through the 35 s launch latency, ticking as a
	// production supervisor would.
	for i := 0; i < 40; i++ {
		clk.Advance(tick)
		sup.Tick()
	}
	events := sup.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	ev := events[0]
	if ev.Err != nil {
		t.Fatalf("failover error: %v", ev.Err)
	}
	if ev.OldInstance != inst.ID || ev.NewInstance == inst.ID || ev.NewInstance == "" {
		t.Fatalf("bad instance swap: old=%s new=%s", ev.OldInstance, ev.NewInstance)
	}
	if got := sup.managed["T"].instance; got != ev.NewInstance {
		t.Fatalf("supervised instance = %s, want %s", got, ev.NewInstance)
	}
	if redeploys.Load() != 1 {
		t.Fatalf("redeploy called %d times, want 1", redeploys.Load())
	}
	// Recovery latency: detection + relaunch + 35 s readiness, all in
	// virtual time. The bound is launch delay plus a few 1 s ticks of
	// detection/polling slack.
	rec := ev.RecoveredAt.Sub(ev.DetectedAt)
	if rec < cloud.DefaultLaunchDelay {
		t.Fatalf("recovered in %v, faster than the launch latency — bogus", rec)
	}
	if max := cloud.DefaultLaunchDelay + 5*tick; rec > max {
		t.Fatalf("recovered in %v, want ≤ %v", rec, max)
	}
	if ev.DetectedAt.Sub(crashAt) > 2*tick {
		t.Fatalf("detection took %v, want ≤ 2 ticks", ev.DetectedAt.Sub(crashAt))
	}

	// The replacement is healthy: further ticks stay quiet.
	sup.Tick()
	if len(sup.Events()) != 1 {
		t.Fatal("recovered VNF produced extra events")
	}
}

func TestSupervisorBacksOffAndAbandons(t *testing.T) {
	leakcheck.Check(t)
	retry := RetryPolicy{MaxAttempts: 3, BaseDelay: 2 * time.Second, MaxDelay: 8 * time.Second}
	cl, clk, sup, inst, redeploys := supervisedCloud(t, retry)
	cl.FailLaunches("oregon", 100) // region out of capacity for good

	if err := cl.CrashInstance(inst.ID); err != nil {
		t.Fatal(err)
	}
	sup.Tick()
	clk.Advance(time.Second)
	sup.Tick() // detected
	// Attempt 1 immediately, then backoff 2s, attempt 2, backoff 4s,
	// attempt 3, abandon.
	for i := 0; i < 30; i++ {
		clk.Advance(time.Second)
		sup.Tick()
		if len(sup.Events()) > 0 {
			break
		}
	}
	events := sup.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1 abandoned failover", len(events))
	}
	ev := events[0]
	if !errors.Is(ev.Err, ErrRetriesExhausted) {
		t.Fatalf("event error = %v, want ErrRetriesExhausted", ev.Err)
	}
	if ev.LaunchAttempts != 3 {
		t.Fatalf("LaunchAttempts = %d, want 3", ev.LaunchAttempts)
	}
	if got := cl.LaunchFailures("oregon"); got != 3 {
		t.Fatalf("cloud saw %d launch attempts, want 3 (backoff must pace them)", got)
	}
	if redeploys.Load() != 0 {
		t.Fatal("redeploy ran despite abandoned launch")
	}
	// Failed is terminal: more ticks change nothing.
	clk.Advance(time.Minute)
	sup.Tick()
	if len(sup.Events()) != 1 {
		t.Fatal("terminal VNF produced more events")
	}
}

func TestSupervisorFailThresholdAbsorbsOneLostProbe(t *testing.T) {
	_, clk, sup, _, _ := supervisedCloud(t, RetryPolicy{})
	flaky := true
	var calls int
	sup.Manage("T", "oregon", "i-x", func(string) error {
		calls++
		if flaky {
			flaky = false
			return ErrUnhealthy // one isolated failure
		}
		return nil
	}, func(context.Context, string) error { return nil })
	sup.Tick() // fail 1 of threshold 2
	clk.Advance(time.Second)
	sup.Tick() // healthy again: counter resets
	clk.Advance(time.Second)
	sup.Tick()
	if len(sup.Events()) != 0 {
		t.Fatal("single lost probe triggered a failover")
	}
	if calls != 3 {
		t.Fatalf("check called %d times, want 3", calls)
	}
}

func TestInstanceCheckStates(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	cl := cloud.New(clk, 1, cloud.Region{ID: "oregon", BaseInMbps: 900, BaseOutMbps: 900})
	inst, _ := cl.LaunchInstance("oregon")
	check := InstanceCheck(cl)
	if err := check(inst.ID); err != nil {
		t.Fatalf("pending instance = %v, want healthy (still booting)", err)
	}
	clk.Advance(cloud.DefaultLaunchDelay)
	if err := check(inst.ID); err != nil {
		t.Fatalf("running instance = %v", err)
	}
	if err := cl.CrashInstance(inst.ID); err != nil {
		t.Fatal(err)
	}
	if err := check(inst.ID); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("crashed instance = %v, want ErrUnhealthy", err)
	}
	if err := check("i-unknown"); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("unknown instance = %v, want ErrUnhealthy", err)
	}
}
