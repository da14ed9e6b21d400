// Package cloud simulates the geo-distributed cloud substrate the paper
// deploys on: a set of data centers (three Amazon EC2 regions and three
// Linode regions in the evaluation), VM instances with realistic launch
// latency, per-VM inbound/outbound bandwidth caps that vary over time
// (Table I), and region-to-region propagation delays.
//
// The controller talks to this package the way the paper's controller talks
// to the EC2 CLI / Linode API: LaunchInstance, TerminateInstance. A
// simclock.Clock drives all timing, so the dynamic experiments run under a
// virtual clock.
package cloud

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ncfn/internal/simclock"
	"ncfn/internal/topology"
)

// Errors.
var (
	ErrUnknownRegion   = errors.New("cloud: unknown region")
	ErrUnknownInstance = errors.New("cloud: unknown instance")
	// ErrLaunchFailed is the transient provider-side launch failure injected
	// by FailLaunches (the EC2 "InsufficientInstanceCapacity" case the
	// controller must retry through).
	ErrLaunchFailed = errors.New("cloud: launch failed (injected)")
	// ErrNotCrashed is returned by RestartInstance on a live instance.
	ErrNotCrashed = errors.New("cloud: instance not crashed")
)

// DefaultLaunchDelay is the measured average time to launch a new VM
// instance (Sec. V-C5: 35 s on EC2 Oregon).
const DefaultLaunchDelay = 35 * time.Second

// DefaultVNFStartDelay is the measured time to start a network coding
// function on an already-running VM (Sec. V-C5: 376.21 ms).
const DefaultVNFStartDelay = 376 * time.Millisecond

// Region describes one data center region.
type Region struct {
	ID topology.NodeID
	// Provider is a label ("ec2", "linode").
	Provider string
	// BaseInMbps / BaseOutMbps are the nominal per-VM bandwidth caps
	// (Table I measures ~880–940 Mbps on EC2 c3.xlarge).
	BaseInMbps, BaseOutMbps float64
	// LaunchDelay overrides DefaultLaunchDelay when positive.
	LaunchDelay time.Duration
}

// InstanceState is a VM lifecycle state.
type InstanceState int

// Instance states.
const (
	StatePending InstanceState = iota + 1
	StateRunning
	StateTerminated
	// StateCrashed marks a VM killed by fault injection (CrashInstance): it
	// stops serving and billing, but unlike Terminated it can be restarted,
	// paying the full launch latency again.
	StateCrashed
)

// String names the state.
func (s InstanceState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateTerminated:
		return "terminated"
	case StateCrashed:
		return "crashed"
	default:
		return "unknown"
	}
}

// Instance is one simulated VM.
type Instance struct {
	ID       string
	Region   topology.NodeID
	state    InstanceState
	launched time.Time
	readyAt  time.Time
	// terminatedAt is set when the instance stops accruing cost.
	terminatedAt time.Time
}

// Cloud is the simulated provider.
type Cloud struct {
	clock simclock.Clock

	mu        sync.Mutex
	regions   map[topology.NodeID]*Region
	instances map[string]*Instance
	nextID    int
	rng       *rand.Rand
	// bwJitter is the ± fraction applied to bandwidth samples, modeling
	// the time variation of Table I (~±3%).
	bwJitter float64
	// bwScale lets experiments cut a region's bandwidth (Fig. 11's
	// "cut inbound/outbound bandwidth of all our own VNFs ... by half").
	bwScale map[topology.NodeID]float64
	// launches counts successful LaunchInstance calls per region.
	launches map[topology.NodeID]int
	// failLaunch injects that many launch failures per region (chaos).
	failLaunch map[topology.NodeID]int
	// launchFails counts injected launch failures delivered per region.
	launchFails map[topology.NodeID]int
	// crashes counts CrashInstance calls per region.
	crashes map[topology.NodeID]int
	// retiredHours accumulates VM-hours of terminated/crashed segments, so
	// restarts bill as fresh segments without losing history.
	retiredHours float64
	// tel mirrors launch/crash accounting into a telemetry registry when
	// attached (AttachTelemetry); nil records nothing.
	tel *cloudTelemetry
}

// New builds a cloud with the given regions.
func New(clk simclock.Clock, seed int64, regions ...Region) *Cloud {
	if clk == nil {
		clk = simclock.Real{}
	}
	c := &Cloud{
		clock:       clk,
		regions:     make(map[topology.NodeID]*Region, len(regions)),
		instances:   make(map[string]*Instance),
		rng:         rand.New(rand.NewSource(seed)),
		bwJitter:    0.03,
		bwScale:     make(map[topology.NodeID]float64),
		launches:    make(map[topology.NodeID]int),
		failLaunch:  make(map[topology.NodeID]int),
		launchFails: make(map[topology.NodeID]int),
		crashes:     make(map[topology.NodeID]int),
	}
	for i := range regions {
		r := regions[i]
		c.regions[r.ID] = &r
	}
	return c
}

// Region returns a region's static description.
func (c *Cloud) Region(id topology.NodeID) (Region, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.regions[id]
	if !ok {
		return Region{}, false
	}
	return *r, true
}

// LaunchInstance starts a new VM in the region. The instance is Pending
// until the region's launch delay elapses (it becomes Running lazily, based
// on the clock). Launching is asynchronous, like the EC2 API.
func (c *Cloud) LaunchInstance(region topology.NodeID) (*Instance, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.regions[region]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRegion, region)
	}
	if c.failLaunch[region] > 0 {
		c.failLaunch[region]--
		c.launchFails[region]++
		if c.tel != nil {
			c.tel.launchFails.Inc(0)
		}
		c.recordFaultLocked(string(region), 1)
		return nil, fmt.Errorf("%w in %s", ErrLaunchFailed, region)
	}
	delay := r.LaunchDelay
	if delay <= 0 {
		delay = DefaultLaunchDelay
	}
	c.nextID++
	now := c.clock.Now()
	inst := &Instance{
		ID:       fmt.Sprintf("i-%s-%04d", region, c.nextID),
		Region:   region,
		state:    StatePending,
		launched: now,
		readyAt:  now.Add(delay),
	}
	c.instances[inst.ID] = inst
	c.launches[region]++
	if c.tel != nil {
		c.tel.launches.Inc(0)
	}
	return inst, nil
}

// refreshLocked updates an instance's lazy state transition.
func (c *Cloud) refreshLocked(inst *Instance) {
	if inst.state == StatePending && !c.clock.Now().Before(inst.readyAt) {
		inst.state = StateRunning
	}
}

// InstanceState returns the instance's current lifecycle state.
func (c *Cloud) InstanceState(id string) (InstanceState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	c.refreshLocked(inst)
	return inst.state, nil
}

// ReadyAt returns when the instance becomes (or became) Running.
func (c *Cloud) ReadyAt(id string) (time.Time, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[id]
	if !ok {
		return time.Time{}, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	return inst.readyAt, nil
}

// retireLocked ends an instance's current billing segment at now.
func (c *Cloud) retireLocked(inst *Instance, now time.Time) {
	inst.terminatedAt = now
	if now.After(inst.launched) {
		c.retiredHours += now.Sub(inst.launched).Hours()
	}
}

// TerminateInstance shuts a VM down immediately.
func (c *Cloud) TerminateInstance(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	if inst.state != StateTerminated && inst.state != StateCrashed {
		c.retireLocked(inst, c.clock.Now())
	}
	inst.state = StateTerminated
	return nil
}

// CrashInstance fails a VM abruptly (fault injection): the instance stops
// serving and billing, and stays visible in the Crashed state until
// restarted or terminated. Crashing an already-dead instance is a no-op.
func (c *Cloud) CrashInstance(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	if inst.state == StateTerminated || inst.state == StateCrashed {
		return nil
	}
	c.retireLocked(inst, c.clock.Now())
	inst.state = StateCrashed
	c.crashes[inst.Region]++
	if c.tel != nil {
		c.tel.crashes.Inc(0)
	}
	c.recordFaultLocked(id, 2)
	return nil
}

// RestartInstance relaunches a crashed VM in place. The instance re-enters
// Pending and pays the region's full launch latency (the paper's measured
// 35 s, Sec. V-C5) before Running again; it returns the time the instance
// will be ready.
func (c *Cloud) RestartInstance(id string) (time.Time, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[id]
	if !ok {
		return time.Time{}, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	if inst.state != StateCrashed {
		return time.Time{}, fmt.Errorf("%w: %s is %s", ErrNotCrashed, id, inst.state)
	}
	delay := DefaultLaunchDelay
	if r, ok := c.regions[inst.Region]; ok && r.LaunchDelay > 0 {
		delay = r.LaunchDelay
	}
	now := c.clock.Now()
	inst.state = StatePending
	inst.launched = now
	inst.readyAt = now.Add(delay)
	inst.terminatedAt = time.Time{}
	c.launches[inst.Region]++
	if c.tel != nil {
		c.tel.launches.Inc(0)
	}
	return inst.readyAt, nil
}

// FailLaunches makes the next n LaunchInstance calls in the region fail
// with ErrLaunchFailed — transient provider capacity errors for exercising
// the controller's retry path.
func (c *Cloud) FailLaunches(region topology.NodeID, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLaunch[region] = n
}

// Crashes returns how many instances were crashed in the region.
func (c *Cloud) Crashes(region topology.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashes[region]
}

// LaunchFailures returns how many injected launch failures the region has
// delivered.
func (c *Cloud) LaunchFailures(region topology.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.launchFails[region]
}

// Launches returns how many instances were ever launched in the region.
func (c *Cloud) Launches(region topology.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.launches[region]
}

// SetBandwidthScale multiplies a region's per-VM bandwidth by factor (1 =
// nominal, 0.5 = Fig. 11's 50% cut).
func (c *Cloud) SetBandwidthScale(region topology.NodeID, factor float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.regions[region]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRegion, region)
	}
	c.bwScale[region] = factor
	return nil
}

// BandwidthSample is one iperf3-style measurement.
type BandwidthSample struct {
	Region          topology.NodeID
	At              time.Time
	InMbps, OutMbps float64
}

// MeasureBandwidth returns the current per-VM in/out bandwidth of a region
// with the time-varying jitter of Table I applied.
func (c *Cloud) MeasureBandwidth(region topology.NodeID) (BandwidthSample, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.regions[region]
	if !ok {
		return BandwidthSample{}, fmt.Errorf("%w: %s", ErrUnknownRegion, region)
	}
	scale, ok := c.bwScale[region]
	if !ok {
		scale = 1
	}
	jitter := func(base float64) float64 {
		return base * scale * (1 + c.bwJitter*(2*c.rng.Float64()-1))
	}
	return BandwidthSample{
		Region:  region,
		At:      c.clock.Now(),
		InMbps:  jitter(r.BaseInMbps),
		OutMbps: jitter(r.BaseOutMbps),
	}, nil
}

// AccruedVMHours returns the total VM-hours billed so far: every instance
// accrues from launch until termination (or now, if still running) — the
// operational-cost metric that α converts into the objective of program
// (2), and the quantity the τ-reuse ablation trades against relaunch
// latency.
func (c *Cloud) AccruedVMHours() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	total := c.retiredHours
	for _, inst := range c.instances {
		if inst.state == StateTerminated || inst.state == StateCrashed {
			continue // retired segments are already in retiredHours
		}
		if now.After(inst.launched) {
			total += now.Sub(inst.launched).Hours()
		}
	}
	return total
}

// PaperRegions returns the six data centers of the evaluation (Sec. V-A):
// EC2 California, Oregon, Virginia and Linode Texas, Georgia, New Jersey.
// EC2 c3.xlarge VMs measured ~880–940 Mbps symmetric (Table I); Linode VMs
// are capped at 40 Gbps in / 125 Mbps out.
func PaperRegions() []Region {
	return []Region{
		{ID: "california", Provider: "ec2", BaseInMbps: 910, BaseOutMbps: 915},
		{ID: "oregon", Provider: "ec2", BaseInMbps: 912, BaseOutMbps: 910},
		{ID: "virginia", Provider: "ec2", BaseInMbps: 905, BaseOutMbps: 908},
		{ID: "texas", Provider: "linode", BaseInMbps: 2000, BaseOutMbps: 125},
		{ID: "georgia", Provider: "linode", BaseInMbps: 2000, BaseOutMbps: 125},
		{ID: "newjersey", Provider: "linode", BaseInMbps: 2000, BaseOutMbps: 125},
	}
}

// PaperDelays returns representative one-way delays (ms) between the six
// regions, symmetric, derived from typical North-American inter-region
// RTTs and consistent with the paper's Table II measurements.
func PaperDelays() map[[2]topology.NodeID]time.Duration {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	pairs := map[[2]topology.NodeID]time.Duration{
		{"california", "oregon"}:    ms(10),
		{"california", "virginia"}:  ms(38),
		{"california", "texas"}:     ms(22),
		{"california", "georgia"}:   ms(30),
		{"california", "newjersey"}: ms(36),
		{"oregon", "virginia"}:      ms(45),
		{"oregon", "texas"}:         ms(25),
		{"oregon", "georgia"}:       ms(35),
		{"oregon", "newjersey"}:     ms(40),
		{"virginia", "texas"}:       ms(18),
		{"virginia", "georgia"}:     ms(8),
		{"virginia", "newjersey"}:   ms(5),
		{"texas", "georgia"}:        ms(12),
		{"texas", "newjersey"}:      ms(20),
		{"georgia", "newjersey"}:    ms(10),
	}
	out := make(map[[2]topology.NodeID]time.Duration, 2*len(pairs))
	for k, v := range pairs {
		out[k] = v
		out[[2]topology.NodeID{k[1], k[0]}] = v
	}
	return out
}
