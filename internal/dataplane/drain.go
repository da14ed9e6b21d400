package dataplane

import (
	"errors"
	"time"

	"ncfn/internal/ncproto"
	"ncfn/internal/telemetry"
)

// ErrDraining rejects operations that would grow a draining VNF's state
// (new session settings, new coding state).
var ErrDraining = errors.New("dataplane: draining")

// Drain states, published through the MetricDrainState gauge so operators
// and the rolling-restart walker can follow the lifecycle over /stats.
const (
	// DrainStateRunning: the VNF admits new sessions and new generations.
	DrainStateRunning int64 = 0
	// DrainStateDraining: no new coding state is admitted; in-flight
	// generations keep flushing through shard queues and coalescer rings.
	DrainStateDraining int64 = 1
	// DrainStateQuiesced: a draining VNF observed empty shard queues and
	// flushed tx rings — it is safe to close the conn without losing
	// accepted packets.
	DrainStateQuiesced int64 = 2
)

// drainPollInterval paces WaitQuiesced's quiescence sweeps.
const drainPollInterval = time.Millisecond

// Drain moves the VNF into the draining state: Configure refuses new
// session settings, and packets that would create coding state for a new
// generation are refused (counted in MetricDrainRefused) while existing
// generations keep flushing. Drain reports whether this call performed the
// transition (false: already draining). It never blocks packet processing.
func (v *VNF) Drain() bool {
	if !v.draining.CompareAndSwap(false, true) {
		return false
	}
	now := v.clock.Now().UnixNano()
	v.drainStartNs.Store(now)
	v.tel.drainState.Set(0, DrainStateDraining)
	v.tel.rec.Record(now, telemetry.EventDrainStart, v.node, 0, 0, 0)
	return true
}

// DrainState returns the published drain-state gauge value.
func (v *VNF) DrainState() int64 {
	if v.quiesced.Load() {
		return DrainStateQuiesced
	}
	if v.draining.Load() {
		return DrainStateDraining
	}
	return DrainStateRunning
}

// Quiesced sweeps the pipeline for residual in-flight work and reports
// whether a draining VNF has gone quiet. A shard is quiet when it holds no
// unprocessed datagram — queued, or dequeued by a worker that has not yet
// processed it — and its coalescer rings hold no unflushed packets; the
// sweep takes each shard's pauseMu briefly — waiting out any in-progress
// run — and flushes stragglers itself, so a true result means every packet
// accepted before the sweep has been pushed to the conn.
// Once observed, quiescence latches: the state gauge moves to
// DrainStateQuiesced and a drain-quiesced flight event records the drain
// duration. Packets may still arrive after quiescence (the conn stays open
// until Close); admission refusal keeps them from creating new state.
func (v *VNF) Quiesced() bool {
	if !v.draining.Load() {
		return false
	}
	if v.quiesced.Load() {
		return true
	}
	pending := 0
	for _, sh := range v.shards {
		sh.pauseMu.Lock()
		// Under the lock no run is in progress; flush anything a past run
		// (or a synchronous handlePacket caller) left in the rings.
		if sh.txc != nil {
			// Flush failures follow datagram semantics (dropped, not
			// retried) exactly as on the worker's run-end flush.
			_ = sh.txc.flush()
			pending += sh.txc.pending()
		}
		pending += int(sh.inflight.Load())
		sh.pauseMu.Unlock()
	}
	v.tel.drainPending.Set(0, int64(pending))
	if pending != 0 {
		return false
	}
	if v.quiesced.CompareAndSwap(false, true) {
		now := v.clock.Now().UnixNano()
		v.tel.drainState.Set(0, DrainStateQuiesced)
		v.tel.rec.Record(now, telemetry.EventDrainQuiesced, v.node, 0, 0,
			now-v.drainStartNs.Load())
	}
	return true
}

// WaitQuiesced blocks until a draining VNF quiesces or the timeout expires,
// polling quiescence sweeps on the VNF's clock. It reports whether
// quiescence was reached. Calling it on a VNF that is not draining returns
// false immediately.
func (v *VNF) WaitQuiesced(timeout time.Duration) bool {
	if !v.draining.Load() {
		return false
	}
	deadline := v.clock.Now().Add(timeout)
	for {
		if v.Quiesced() {
			return true
		}
		if !v.clock.Now().Before(deadline) {
			return false
		}
		v.clock.Sleep(drainPollInterval)
	}
}

// refuseDrainAdmission counts one admission refusal — the packet (or batch)
// would have created coding state for a new generation on a draining VNF —
// and drops it through the regular drop accounting.
func (v *VNF) refuseDrainAdmission(cell int, sess ncproto.SessionID, gen ncproto.GenerationID, n int) {
	v.tel.drainRefused.Add(cell, uint64(n))
	v.dropPkt(cell, sess, gen, n)
}
