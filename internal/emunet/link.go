// Package emunet is the in-process network substrate that stands in for the
// paper's EC2/Linode deployment plus netem. It emulates point-to-point links
// with configurable rate (token-bucket serialization), propagation delay,
// bounded queues (tail drop), and the two loss models the paper evaluates:
// i.i.d. uniform loss (Fig. 8) and the bursty process P_n = 25%·P_{n-1} + P
// (Fig. 9).
//
// Hosts exchange datagrams through PacketConn, the same interface the data
// plane uses over real UDP sockets (see package udp counterpart in this
// package), so the identical VNF code runs on both substrates.
package emunet

import (
	"math/rand"
	"sync"
	"time"
)

// LossModel decides the fate of each transmitted packet. Implementations
// are driven from a single goroutine per link and need not be thread-safe.
type LossModel interface {
	// Drop reports whether the next packet is lost.
	Drop() bool
}

// UniformLoss drops each packet independently with probability P.
type UniformLoss struct {
	P   float64
	rng *rand.Rand
	mu  sync.Mutex
}

// NewUniformLoss returns an i.i.d. loss model with drop probability p.
func NewUniformLoss(p float64, seed int64) *UniformLoss {
	return &UniformLoss{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Drop implements LossModel.
func (u *UniformLoss) Drop() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.rng.Float64() < u.P
}

// BurstLoss implements the paper's bursty loss process for Fig. 9: "the
// loss rate of the n-th packet is P_n = 25% × P_{n−1} + P, P_0 = 0". We
// follow the standard (netem-style) reading in which the correlation term
// feeds back the realized outcome of the previous packet: after a loss the
// next packet is dropped with probability 0.25 + P, after a delivery with
// probability P, producing loss bursts whose stationary rate is
// P / (1 − 0.25) for small P.
type BurstLoss struct {
	// P is the base loss probability added each step.
	P float64
	// Corr is the contribution of a realized previous loss (0.25 in the
	// paper).
	Corr float64

	mu       sync.Mutex
	rng      *rand.Rand
	prevLost bool
}

// NewBurstLoss returns the paper's burst model with correlation 0.25.
func NewBurstLoss(p float64, seed int64) *BurstLoss {
	return &BurstLoss{P: p, Corr: 0.25, rng: rand.New(rand.NewSource(seed))}
}

// Drop implements LossModel.
func (b *BurstLoss) Drop() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.P
	if b.prevLost {
		p += b.Corr
	}
	if p > 1 {
		p = 1
	}
	lost := b.rng.Float64() < p
	b.prevLost = lost
	return lost
}

// LinkConfig describes one directed link.
type LinkConfig struct {
	// RateBps is the serialization rate in bits per second; zero means
	// unconstrained.
	RateBps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per packet
	// (netem's delay variance). Nonzero jitter reorders packets — which
	// RLNC absorbs, since any sufficient set of coded packets decodes
	// regardless of arrival order.
	Jitter time.Duration
	// Loss is the loss process; nil means no loss.
	Loss LossModel
	// DuplicateProb duplicates each delivered packet with this probability
	// (netem's duplication impairment). RLNC receivers absorb duplicates:
	// a repeated coded packet is simply not innovative.
	DuplicateProb float64
	// ReorderProb holds back each delivered packet with this probability by
	// an extra ReorderDelay (netem's reorder impairment), letting packets
	// sent later overtake it. RLNC absorbs reordering: any sufficient set
	// of coded packets decodes regardless of arrival order.
	ReorderProb float64
	// ReorderDelay is the extra hold-back applied to reordered packets;
	// zero with a nonzero ReorderProb selects DefaultReorderDelay.
	ReorderDelay time.Duration
	// QueuePackets bounds the sender-side queue; packets arriving at a
	// full queue are tail-dropped. Zero selects DefaultQueuePackets.
	QueuePackets int
}

// DefaultQueuePackets is the default per-link queue bound, roughly a
// bandwidth-delay product of a fast WAN path at MTU packets.
const DefaultQueuePackets = 256

// DefaultReorderDelay is the hold-back applied to reordered packets when
// ReorderProb is set without an explicit ReorderDelay.
const DefaultReorderDelay = 2 * time.Millisecond

// link is the runtime state of one directed link.
type link struct {
	mu        sync.Mutex
	cfg       LinkConfig
	nextTx    time.Time // when the serializer is next free
	queued    int       // packets accepted but not yet delivered
	dropped   uint64    // tail drops + loss-model drops + partition drops
	sent      uint64
	reordered uint64
	jrng      *rand.Rand
	// tel mirrors sent/dropped into the network's telemetry registry when
	// one is attached (see WithTelemetry); nil otherwise.
	tel *linkTel
}

// setConfig atomically replaces the link configuration (used by the
// bandwidth-variation experiments to cut a link's rate at runtime).
func (l *link) setConfig(cfg LinkConfig) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cfg = cfg
}

func (l *link) config() LinkConfig {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cfg
}

// queueLimit returns the effective queue bound.
func (c LinkConfig) queueLimit() int {
	if c.QueuePackets > 0 {
		return c.QueuePackets
	}
	return DefaultQueuePackets
}

// admit runs the link's ingress decision for a packet of n bytes, under one
// hold of l.mu. It returns how long the packet takes to reach the far end,
// how many copies arrive (two when duplicated) and true, or false if the
// packet is dropped (queue overflow or loss process). A packet with a
// positive wait occupies the queue until the caller releases it. A link
// with no rate, delay, jitter or reorder hold-back delivers at once and
// reads no clock.
func (l *link) admit(n int) (wait time.Duration, copies int, ok bool) {
	l.mu.Lock()
	cfg := &l.cfg
	timed := cfg.RateBps > 0 || cfg.Delay > 0 || cfg.Jitter > 0 || cfg.ReorderProb > 0
	if l.queued >= cfg.queueLimit() {
		l.dropped++
		l.mu.Unlock()
		l.countDrop()
		return 0, 0, false
	}
	var now, depart time.Time
	if timed {
		now = time.Now()
		depart = now
	}
	if cfg.RateBps > 0 {
		txDur := time.Duration(float64(n*8) / cfg.RateBps * float64(time.Second))
		if l.nextTx.Before(now) {
			l.nextTx = now
		}
		depart = l.nextTx.Add(txDur)
		l.nextTx = depart
	}
	// The loss process applies after serialization (a corrupted packet
	// still consumed the link).
	if cfg.Loss != nil && cfg.Loss.Drop() {
		l.dropped++
		l.mu.Unlock()
		l.countDrop()
		return 0, 0, false
	}
	l.sent++
	extra := time.Duration(0)
	if cfg.Jitter > 0 || cfg.DuplicateProb > 0 || cfg.ReorderProb > 0 {
		if l.jrng == nil {
			l.jrng = rand.New(rand.NewSource(int64(l.sent) + 12345))
		}
	}
	if cfg.Jitter > 0 {
		extra = time.Duration(l.jrng.Int63n(int64(cfg.Jitter)))
	}
	if cfg.ReorderProb > 0 && l.jrng.Float64() < cfg.ReorderProb {
		hold := cfg.ReorderDelay
		if hold <= 0 {
			hold = DefaultReorderDelay
		}
		extra += hold
		l.reordered++
	}
	copies = 1
	if cfg.DuplicateProb > 0 && l.jrng.Float64() < cfg.DuplicateProb {
		copies = 2
	}
	if timed {
		if wait = depart.Add(cfg.Delay + extra).Sub(now); wait > 0 {
			l.queued++
		}
	}
	l.mu.Unlock()
	if l.tel != nil {
		l.tel.sent.Inc(0)
		l.tel.netSent.Inc(0)
	}
	return wait, copies, true
}

// countDrop mirrors one drop into the telemetry registry.
func (l *link) countDrop() {
	if l.tel != nil {
		l.tel.dropped.Inc(0)
		l.tel.netDropped.Inc(0)
	}
}

// release is called when a delayed packet departs the queue (delivered).
func (l *link) release() {
	l.mu.Lock()
	l.queued--
	l.mu.Unlock()
}

// drop counts one packet lost outside admit's own accounting (partition
// faults charge their drops to the link they would have traversed).
func (l *link) drop() {
	l.mu.Lock()
	l.dropped++
	l.mu.Unlock()
	l.countDrop()
}

// Stats reports cumulative link counters.
type Stats struct {
	Sent      uint64
	Dropped   uint64
	Reordered uint64
	Queued    int
}

func (l *link) stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Sent: l.sent, Dropped: l.dropped, Reordered: l.reordered, Queued: l.queued}
}
