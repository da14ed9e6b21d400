// Package chaostest is the deterministic end-to-end chaos harness: it runs
// the paper's butterfly on one core.Service — emunet substrate, cloud
// simulator, controller, failover supervisor and coding data plane —
// injects scripted faults (VM crashes, network partitions), and asserts the
// sessions still decode and the control plane recovers within the simulated
// relaunch latency (Sec. V-C5's 35 s).
//
// Every schedule is derived from a seed, all control-plane timing runs on a
// simclock.Virtual, and supervisor ticks are driven explicitly, so the same
// seed replays the same fault timeline and the same failover event log.
package chaostest

import (
	"fmt"
	"math/rand"
	"time"
)

// Kind is a fault type in a chaos schedule.
type Kind string

// Fault kinds.
const (
	// KindCrash kills the node's VM (cloud crash + VNF process death); the
	// supervisor must detect it and fail over to a fresh instance.
	KindCrash Kind = "crash"
	// KindPartition isolates the node's host at the network layer for Dur —
	// the VM stays up (the cloud API still reports Running), traffic is
	// blackholed, and the fault heals on its own.
	KindPartition Kind = "partition"
)

// Event is one scheduled fault.
type Event struct {
	// At is the injection time, in virtual time since schedule start.
	At   time.Duration
	Kind Kind
	// Node is the logical node the fault targets.
	Node string
	// Dur is how long a partition lasts before healing (KindPartition only).
	Dur time.Duration
}

// String renders the event for logs and failure messages.
func (e Event) String() string {
	if e.Kind == KindPartition {
		return fmt.Sprintf("%v %s %s for %v", e.At, e.Kind, e.Node, e.Dur)
	}
	return fmt.Sprintf("%v %s %s", e.At, e.Kind, e.Node)
}

// GenerateSchedule derives a fault schedule from a seed: count faults against
// the given nodes, spaced gap apart (plus up to gap/2 of seeded jitter) so
// each fault's recovery completes before the next one hits. The same
// (seed, nodes, count, gap) always yields the identical schedule.
func GenerateSchedule(seed int64, nodes []string, count int, gap time.Duration) []Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, 0, count)
	for i := 0; i < count; i++ {
		ev := Event{
			At:   time.Duration(i+1)*gap + time.Duration(rng.Int63n(int64(gap/2))),
			Node: nodes[rng.Intn(len(nodes))],
		}
		if rng.Float64() < 0.6 {
			ev.Kind = KindCrash
		} else {
			ev.Kind = KindPartition
			ev.Dur = 5*time.Second + time.Duration(rng.Int63n(int64(10*time.Second)))
		}
		events = append(events, ev)
	}
	return events
}
