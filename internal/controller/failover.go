package controller

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
	"ncfn/internal/topology"
)

// Supervisor is the controller's resilience loop: it health-probes the
// coding VNFs the control plane deployed and, when one dies, relaunches a
// replacement VM through the cloud API (bounded retries, exponential
// backoff), waits out the ~35 s launch latency, and invokes a redeploy
// callback that cold-starts the new VNF and reloads the deploy file into the
// daemons whose tables named the old one; decoders ride out the gap.
//
// The supervisor is tick-driven and has no loop of its own: Tick advances
// every managed VNF's state machine exactly once, with all timing read from
// the configured clock, and the Service's owner calls core.Service.Tick on
// its own schedule — under a simclock.Virtual, deterministically.
type Supervisor struct {
	cfg SupervisorConfig
	tel supTelemetry

	mu      sync.Mutex
	managed map[topology.NodeID]*managedVNF
	events  []FailoverEvent
}

// SupervisorConfig configures a Supervisor.
type SupervisorConfig struct {
	// Cloud launches replacement instances.
	Cloud *cloud.Cloud
	// Clock drives detection timestamps, backoff, and readiness polling.
	Clock simclock.Clock
	// Retry bounds relaunch and redeploy attempts (defaults apply).
	Retry RetryPolicy
	// FailThreshold is how many consecutive failed health checks declare a
	// VNF dead (default 2 — one lost probe must not trigger a 35 s
	// relaunch).
	FailThreshold int
	// Telemetry receives the supervisor's counters, failover-duration
	// histogram, and flight-recorder events (retry, failover). Nil gets a
	// private registry, reachable via Supervisor.Telemetry.
	Telemetry *telemetry.Registry
}

// failoverPhase is a managed VNF's position in the recovery state machine.
type failoverPhase int

const (
	phaseHealthy failoverPhase = iota
	phaseRelaunching
	phaseWaitingReady
	phaseFailed
)

// managedVNF is one supervised coding function.
type managedVNF struct {
	node     topology.NodeID
	region   topology.NodeID
	instance string
	check    func(instance string) error
	redeploy func(ctx context.Context, newInstance string) error

	phase         failoverPhase
	consecFails   int
	attempts      int // launch attempts in the current failover
	redeployFails int
	nextAttempt   time.Time
	pending       FailoverEvent // event under construction during a failover
}

// FailoverEvent records one completed (or abandoned) VNF recovery.
type FailoverEvent struct {
	Node                     topology.NodeID
	OldInstance, NewInstance string
	// DetectedAt is when the fail threshold was crossed; LaunchedAt when
	// the replacement VM launch was accepted; ReadyAt when it reached
	// Running; RecoveredAt when the redeploy callback completed.
	DetectedAt, LaunchedAt, ReadyAt, RecoveredAt time.Time
	// LaunchAttempts counts LaunchInstance calls, including failures.
	LaunchAttempts int
	// Err is set when the failover was abandoned (retries exhausted).
	Err error
}

// NewSupervisor builds a Supervisor.
func NewSupervisor(cfg SupervisorConfig) *Supervisor {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	cfg.Retry = cfg.Retry.withDefaults()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	return &Supervisor{
		cfg:     cfg,
		tel:     newSupTelemetry(cfg.Telemetry),
		managed: make(map[topology.NodeID]*managedVNF),
	}
}

// Manage registers a VNF for supervision. check is the health probe for the
// current instance (see InstanceCheck); redeploy must bring a
// replacement instance into service — cold-start the VNF and reload every
// daemon whose forwarding table referenced the old one. region is the cloud region
// replacements launch in (usually the node itself).
func (s *Supervisor) Manage(node, region topology.NodeID, instance string,
	check func(instance string) error,
	redeploy func(ctx context.Context, newInstance string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.managed[node] = &managedVNF{
		node:     node,
		region:   region,
		instance: instance,
		check:    check,
		redeploy: redeploy,
	}
}

// Events returns a copy of the failover log.
func (s *Supervisor) Events() []FailoverEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]FailoverEvent(nil), s.events...)
}

// Tick advances every managed VNF's recovery state machine once. Nodes are
// visited in sorted order so a tick's side effects are deterministic.
func (s *Supervisor) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	nodes := make([]topology.NodeID, 0, len(s.managed))
	for n := range s.managed {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		s.tickOneLocked(s.managed[n])
	}
}

// tickOneLocked advances one VNF. The supervisor mutex is held; check and
// redeploy callbacks must therefore not call back into the supervisor.
func (s *Supervisor) tickOneLocked(m *managedVNF) {
	now := s.cfg.Clock.Now()
	switch m.phase {
	case phaseHealthy:
		if m.check(m.instance) == nil {
			m.consecFails = 0
			return
		}
		m.consecFails++
		if m.consecFails < s.cfg.FailThreshold {
			return
		}
		m.phase = phaseRelaunching
		m.attempts = 0
		m.redeployFails = 0
		m.nextAttempt = now
		m.pending = FailoverEvent{Node: m.node, OldInstance: m.instance, DetectedAt: now}

	case phaseRelaunching:
		if now.Before(m.nextAttempt) {
			return
		}
		m.attempts++
		m.pending.LaunchAttempts = m.attempts
		inst, err := s.cfg.Cloud.LaunchInstance(m.region)
		if err != nil {
			if m.attempts >= s.cfg.Retry.MaxAttempts {
				s.abandonLocked(m, fmt.Errorf("relaunch %s: %w", m.node, err))
				return
			}
			s.tel.retries.Inc(0)
			s.tel.rec.Record(now.UnixNano(), telemetry.EventRetry, string(m.node),
				0, 0, int64(m.attempts))
			m.nextAttempt = now.Add(s.cfg.Retry.Backoff(m.attempts))
			return
		}
		m.pending.NewInstance = inst.ID
		m.pending.LaunchedAt = now
		m.phase = phaseWaitingReady

	case phaseWaitingReady:
		st, err := s.cfg.Cloud.InstanceState(m.pending.NewInstance)
		if err != nil || st != cloud.StateRunning {
			return // still pending; readiness is clock-driven
		}
		if m.pending.ReadyAt.IsZero() {
			m.pending.ReadyAt = now
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Retry.Timeout)
		err = m.redeploy(ctx, m.pending.NewInstance)
		cancel()
		if err != nil {
			m.redeployFails++
			if m.redeployFails >= s.cfg.Retry.MaxAttempts {
				s.abandonLocked(m, fmt.Errorf("redeploy %s: %w", m.node, err))
				return
			}
			s.tel.retries.Inc(0)
			s.tel.rec.Record(now.UnixNano(), telemetry.EventRetry, string(m.node),
				0, 0, int64(m.redeployFails))
			return
		}
		m.pending.RecoveredAt = now
		s.events = append(s.events, m.pending)
		s.tel.done.Inc(0)
		dur := now.Sub(m.pending.DetectedAt).Nanoseconds()
		s.tel.durations.Observe(dur)
		s.tel.rec.Record(now.UnixNano(), telemetry.EventFailover, string(m.node), 0, 0, dur)
		m.instance = m.pending.NewInstance
		m.phase = phaseHealthy
		m.consecFails = 0
		m.pending = FailoverEvent{}

	case phaseFailed:
		// Terminal until a new Manage call replaces the registration.
	}
}

// abandonLocked gives up on the current failover and logs the failure. The
// flight recorder marks it as a failover event with Value -1, keeping
// completed recoveries (non-negative durations) trivially separable.
func (s *Supervisor) abandonLocked(m *managedVNF, err error) {
	m.phase = phaseFailed
	m.pending.Err = fmt.Errorf("%w: %v", ErrRetriesExhausted, err)
	s.events = append(s.events, m.pending)
	s.tel.abandoned.Inc(0)
	s.tel.rec.Record(s.cfg.Clock.Now().UnixNano(), telemetry.EventFailover,
		string(m.node), 0, 0, -1)
}

// ErrUnhealthy is returned by health checks that got an answer indicating a
// bad state (as opposed to no answer at all).
var ErrUnhealthy = errors.New("controller: vnf unhealthy")

// InstanceCheck builds a health check on the cloud API's instance state —
// the controller-side view (EC2 DescribeInstances) that catches VM crashes
// even when the network path to the VNF still looks fine.
func InstanceCheck(cl *cloud.Cloud) func(string) error {
	return func(instance string) error {
		st, err := cl.InstanceState(instance)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrUnhealthy, err)
		}
		if st != cloud.StateRunning && st != cloud.StatePending {
			return fmt.Errorf("%w: instance %s is %s", ErrUnhealthy, instance, st)
		}
		return nil
	}
}
