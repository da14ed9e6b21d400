package controller

import (
	"fmt"
	"sort"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/simclock"
	"ncfn/internal/topology"
)

// vnfPool manages the VNF (VM) instances of one data center with the
// paper's τ-delayed shutdown: after NC_VNF_END a VNF stays alive for τ and
// can be reused if traffic returns, saving the ~35 s relaunch cost
// (Sec. III-A and V-C5).
type vnfPool struct {
	dc    topology.NodeID
	cloud *cloud.Cloud
	clock simclock.Clock
	tau   time.Duration
	retry RetryPolicy

	// active instances are serving traffic.
	active []string
	// idle maps instance ID to its shutdown deadline.
	idle map[string]time.Time
	// reused counts idle VNFs brought back within τ.
	reused int
	// launchRetries counts launch attempts beyond the first.
	launchRetries int
}

func newVNFPool(dc topology.NodeID, cl *cloud.Cloud, clk simclock.Clock, tau time.Duration, retry RetryPolicy) *vnfPool {
	return &vnfPool{
		dc:    dc,
		cloud: cl,
		clock: clk,
		tau:   tau,
		retry: retry.withDefaults(),
		idle:  make(map[string]time.Time),
	}
}

// launch starts one VM, retrying transient provider failures up to the
// policy's attempt budget. Retries here are immediate — the pool is called
// with the controller mutex held, so it must not sleep; backoff-paced
// relaunches of whole VNFs are the Supervisor's job.
func (p *vnfPool) launch() (*cloud.Instance, error) {
	var last error
	for attempt := 1; attempt <= p.retry.MaxAttempts; attempt++ {
		inst, err := p.cloud.LaunchInstance(p.dc)
		if err == nil {
			return inst, nil
		}
		last = err
		if attempt < p.retry.MaxAttempts {
			p.launchRetries++
		}
	}
	return nil, fmt.Errorf("%w: launch in %s (%d attempts): %v", ErrRetriesExhausted, p.dc, p.retry.MaxAttempts, last)
}

// ensure scales the pool to n active instances. Scale-out prefers reusing
// idle instances (cancelling their shutdown) before launching new VMs;
// scale-in marks instances idle with deadline now+τ. It returns the number
// of fresh launches requested.
func (p *vnfPool) ensure(n int) (launched int, err error) {
	// Scale out.
	for len(p.active) < n {
		if id, ok := p.popNewestIdle(); ok {
			p.active = append(p.active, id)
			p.reused++
			continue
		}
		inst, lerr := p.launch()
		if lerr != nil {
			return launched, lerr
		}
		p.active = append(p.active, inst.ID)
		launched++
	}
	// Scale in.
	now := p.clock.Now()
	for len(p.active) > n {
		id := p.active[len(p.active)-1]
		p.active = p.active[:len(p.active)-1]
		p.idle[id] = now.Add(p.tau)
	}
	return launched, nil
}

// popNewestIdle reuses the idle instance with the latest deadline (the one
// most recently idled).
func (p *vnfPool) popNewestIdle() (string, bool) {
	var best string
	var bestAt time.Time
	for id, at := range p.idle {
		if best == "" || at.After(bestAt) {
			best, bestAt = id, at
		}
	}
	if best == "" {
		return "", false
	}
	delete(p.idle, best)
	return best, true
}

// reap terminates idle instances whose τ deadline has passed, returning
// how many were shut down.
func (p *vnfPool) reap() int {
	now := p.clock.Now()
	var expired []string
	for id, deadline := range p.idle {
		if !now.Before(deadline) {
			expired = append(expired, id)
		}
	}
	sort.Strings(expired)
	for _, id := range expired {
		delete(p.idle, id)
		// Termination of an unknown instance cannot happen here; ignore
		// the impossible error rather than aborting the reap pass.
		_ = p.cloud.TerminateInstance(id)
	}
	return len(expired)
}

// counts returns (active, idle) instance counts.
func (p *vnfPool) counts() (int, int) {
	return len(p.active), len(p.idle)
}
