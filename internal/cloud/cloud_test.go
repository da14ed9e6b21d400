package cloud

import (
	"errors"
	"testing"
	"time"

	"ncfn/internal/simclock"
	"ncfn/internal/topology"
)

var epoch = time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)

func testCloud() (*Cloud, *simclock.Virtual) {
	clk := simclock.NewVirtual(epoch)
	c := New(clk, 1, PaperRegions()...)
	return c, clk
}

// mustLaunch fails the test if a launch the scenario depends on errors out.
func mustLaunch(t *testing.T, c *Cloud, region topology.NodeID) *Instance {
	t.Helper()
	inst, err := c.LaunchInstance(region)
	if err != nil {
		t.Fatalf("LaunchInstance(%v): %v", region, err)
	}
	return inst
}

func TestRegionLookup(t *testing.T) {
	c, _ := testCloud()
	r, ok := c.Region("oregon")
	if !ok || r.Provider != "ec2" {
		t.Fatalf("oregon = %+v, %v", r, ok)
	}
	if _, ok := c.Region("mars"); ok {
		t.Fatal("unknown region found")
	}
}

func TestLaunchLifecycle(t *testing.T) {
	c, clk := testCloud()
	inst, err := c.LaunchInstance("oregon")
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.InstanceState(inst.ID)
	if err != nil || st != StatePending {
		t.Fatalf("state = %v, %v; want pending", st, err)
	}
	clk.Advance(DefaultLaunchDelay - time.Second)
	if st, _ := c.InstanceState(inst.ID); st != StatePending {
		t.Fatal("instance ready too early")
	}
	clk.Advance(2 * time.Second)
	if st, _ := c.InstanceState(inst.ID); st != StateRunning {
		t.Fatal("instance not running after launch delay")
	}
	ready, err := c.ReadyAt(inst.ID)
	if err != nil || !ready.Equal(epoch.Add(DefaultLaunchDelay)) {
		t.Fatalf("ReadyAt = %v, %v", ready, err)
	}
}

func TestLaunchDelayMatchesPaper(t *testing.T) {
	// Sec. V-C5: launching a new instance takes ~35 s, about 100x slower
	// than starting a coding function (~376 ms).
	if DefaultLaunchDelay != 35*time.Second {
		t.Fatal("launch delay drifted from the paper's measurement")
	}
	ratio := float64(DefaultLaunchDelay) / float64(DefaultVNFStartDelay)
	if ratio < 50 || ratio > 150 {
		t.Fatalf("launch/start ratio %.0f, paper reports ~100x", ratio)
	}
}

func TestLaunchUnknownRegion(t *testing.T) {
	c, _ := testCloud()
	if _, err := c.LaunchInstance("mars"); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("err = %v", err)
	}
}

func TestTerminate(t *testing.T) {
	c, clk := testCloud()
	inst, _ := c.LaunchInstance("texas")
	clk.Advance(time.Minute)
	if err := c.TerminateInstance(inst.ID); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.InstanceState(inst.ID); st != StateTerminated {
		t.Fatal("not terminated")
	}
	if err := c.TerminateInstance("i-nope"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunningInstancesCount(t *testing.T) {
	c, clk := testCloud()
	insts := []*Instance{mustLaunch(t, c, "oregon"), mustLaunch(t, c, "oregon"), mustLaunch(t, c, "texas")}
	clk.Advance(time.Minute)
	counts := map[topology.NodeID]int{}
	for _, inst := range insts {
		if st, _ := c.InstanceState(inst.ID); st == StateRunning {
			counts[inst.Region]++
		}
	}
	if counts["oregon"] != 2 || counts["texas"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if c.Launches("oregon") != 2 {
		t.Fatalf("Launches = %d", c.Launches("oregon"))
	}
}

func TestInstanceStateUnknown(t *testing.T) {
	c, _ := testCloud()
	if _, err := c.InstanceState("i-x"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatal("unknown instance accepted")
	}
	if _, err := c.ReadyAt("i-x"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatal("unknown instance accepted")
	}
}

func TestMeasureBandwidthJitters(t *testing.T) {
	c, _ := testCloud()
	r, _ := c.Region("oregon")
	sawDifferent := false
	var prev float64
	for i := 0; i < 10; i++ {
		s, err := c.MeasureBandwidth("oregon")
		if err != nil {
			t.Fatal(err)
		}
		// Within ±3% of nominal (Table I's observed variation).
		if s.InMbps < r.BaseInMbps*0.96 || s.InMbps > r.BaseInMbps*1.04 {
			t.Fatalf("in sample %v outside jitter band around %v", s.InMbps, r.BaseInMbps)
		}
		if i > 0 && s.InMbps != prev {
			sawDifferent = true
		}
		prev = s.InMbps
	}
	if !sawDifferent {
		t.Fatal("bandwidth samples never varied")
	}
}

func TestMeasureBandwidthUnknown(t *testing.T) {
	c, _ := testCloud()
	if _, err := c.MeasureBandwidth("mars"); !errors.Is(err, ErrUnknownRegion) {
		t.Fatal("unknown region accepted")
	}
}

func TestBandwidthScaleCut(t *testing.T) {
	c, _ := testCloud()
	if err := c.SetBandwidthScale("oregon", 0.5); err != nil {
		t.Fatal(err)
	}
	r, _ := c.Region("oregon")
	s, _ := c.MeasureBandwidth("oregon")
	if s.InMbps > r.BaseInMbps*0.55 {
		t.Fatalf("bandwidth cut not applied: %v", s.InMbps)
	}
	if err := c.SetBandwidthScale("mars", 0.5); !errors.Is(err, ErrUnknownRegion) {
		t.Fatal("unknown region accepted")
	}
}

func TestInstanceStateString(t *testing.T) {
	if StatePending.String() != "pending" || StateRunning.String() != "running" ||
		StateTerminated.String() != "terminated" || InstanceState(0).String() != "unknown" {
		t.Fatal("state names wrong")
	}
}

func TestPaperDelaysSymmetric(t *testing.T) {
	d := PaperDelays()
	if len(d) != 30 { // 15 pairs x 2 directions
		t.Fatalf("got %d delay entries, want 30", len(d))
	}
	for k, v := range d {
		rev, ok := d[[2]topology.NodeID{k[1], k[0]}]
		if !ok || rev != v {
			t.Fatalf("delay %v->%v asymmetric", k[0], k[1])
		}
		if v <= 0 {
			t.Fatalf("non-positive delay %v for %v", v, k)
		}
	}
}

func TestRealClockDefault(t *testing.T) {
	c := New(nil, 1, PaperRegions()...)
	if _, err := c.MeasureBandwidth("oregon"); err != nil {
		t.Fatal(err)
	}
}

func TestAccruedVMHours(t *testing.T) {
	c, clk := testCloud()
	a, _ := c.LaunchInstance("oregon")
	clk.Advance(2 * time.Hour)
	if err := c.TerminateInstance(a.ID); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Hour) // terminated instances stop accruing
	b, _ := c.LaunchInstance("texas")
	clk.Advance(time.Hour) // running instances accrue to now
	_ = b
	got := c.AccruedVMHours()
	if got < 2.99 || got > 3.01 {
		t.Fatalf("AccruedVMHours = %v, want ~3 (2 for the first, 1 for the second)", got)
	}
	// Double termination must not extend billing.
	if err := c.TerminateInstance(a.ID); err != nil {
		t.Fatal(err)
	}
	if again := c.AccruedVMHours(); again != got {
		t.Fatalf("re-termination changed billing: %v -> %v", got, again)
	}
}
