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
	"slices"
	"sync"
	"time"

	"ncfn/internal/buffer"
)

// LossModel decides the fate of each transmitted packet. A link calls Drop
// under its own mutex, so calls are serialised per link; a model shared
// between links (SetDuplexLink hands one to both directions) is called
// concurrently and must lock, as the two built-in models do.
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
	// QueuePackets bounds the sender-side queue; packets arriving at a
	// full queue are tail-dropped. Zero selects DefaultQueuePackets.
	QueuePackets int
}

// DefaultQueuePackets is the default per-link queue bound, roughly a
// bandwidth-delay product of a fast WAN path at MTU packets.
const DefaultQueuePackets = 256

// link is the runtime state of one directed link. The packets it delays
// wait in q, sorted by departure time and, at equal times, by admission, so
// a link without jitter is FIFO, like netem's time-ordered queue. A drainer
// goroutine runs while q holds packets and hands them to the peer in order.
type link struct {
	mu     sync.Mutex
	cfg    LinkConfig
	nextTx time.Time // when the serializer is next free
	jrng   *rand.Rand
	q      []departure
	// draining says a drainer is running; wake tells it q has a new head
	// or the link closed. A closed link refuses further delayed packets.
	draining bool
	closed   bool
	wake     chan struct{}
	drainer  sync.WaitGroup
	// tel counts the link's traffic in the network's telemetry registry
	// when one is attached (see WithTelemetry); nil otherwise.
	tel *linkTel
}

// departure is one delayed packet and when it reaches the peer.
type departure struct {
	at time.Time
	to *Host
	d  datagram
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

// admit runs the link's ingress decision for pkt, sent by src to peer, under
// one hold of l.mu, and returns how many copies the caller delivers at once
// (two when duplicated; zero when dropped). A link with rate, delay or
// jitter instead queues pooled copies for its drainer, in the same hold, so
// admission order is queue order; only such a link reads the clock.
func (l *link) admit(pkt []byte, src string, peer *Host) (copies int, err error) {
	l.mu.Lock()
	cfg := &l.cfg
	timed := cfg.RateBps > 0 || cfg.Delay > 0 || cfg.Jitter > 0
	if len(l.q) >= cfg.queueLimit() {
		l.mu.Unlock()
		l.countDrop()
		return 0, nil
	}
	var at time.Time
	if timed {
		at = time.Now()
	}
	if cfg.RateBps > 0 {
		txDur := time.Duration(float64(len(pkt)*8) / cfg.RateBps * float64(time.Second))
		if l.nextTx.Before(at) {
			l.nextTx = at
		}
		at = l.nextTx.Add(txDur)
		l.nextTx = at
	}
	// The loss process applies after serialization (a corrupted packet
	// still consumed the link).
	if cfg.Loss != nil && cfg.Loss.Drop() {
		l.mu.Unlock()
		l.countDrop()
		return 0, nil
	}
	if l.jrng == nil && (cfg.Jitter > 0 || cfg.DuplicateProb > 0) {
		// A fixed seed: a link's impairment decisions replay run to run.
		l.jrng = rand.New(rand.NewSource(12346))
	}
	if cfg.Jitter > 0 {
		at = at.Add(time.Duration(l.jrng.Int63n(int64(cfg.Jitter))))
	}
	copies = 1
	if cfg.DuplicateProb > 0 && l.jrng.Float64() < cfg.DuplicateProb {
		copies = 2
	}
	if timed {
		if l.closed {
			l.mu.Unlock()
			return 0, ErrClosed
		}
		at = at.Add(cfg.Delay)
		i := len(l.q)
		for i > 0 && l.q[i-1].at.After(at) {
			i--
		}
		for c := 0; c < copies; c++ {
			// Each copy is its own pooled buffer: the receiver owns and may
			// recycle what it is handed.
			b := buffer.GetPacket(len(pkt))
			copy(b, pkt)
			l.q = slices.Insert(l.q, i, departure{at: at, to: peer, d: datagram{src: src, pkt: b}})
		}
		copies = 0
		switch {
		case !l.draining:
			l.draining = true
			l.drainer.Add(1)
			go l.drain()
		case i == 0:
			l.kick()
		}
	}
	l.mu.Unlock()
	if l.tel != nil {
		l.tel.sent.Inc(0)
		l.tel.netSent.Inc(0)
	}
	return copies, nil
}

// kick wakes the drainer without blocking; a wake it does not need costs
// it one look at the queue.
func (l *link) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// drain hands q's packets to their peers as they come due, in departure
// order and outside l.mu, and returns once q is empty.
func (l *link) drain() {
	defer l.drainer.Done()
	var due []departure
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		l.mu.Lock()
		now := time.Now()
		n := 0
		for n < len(l.q) && !l.q[n].at.After(now) {
			n++
		}
		if n > 0 {
			due = append(due, l.q[:n]...)
			clear(l.q[:n])
			l.q = l.q[n:]
			l.mu.Unlock()
			for i := range due {
				due[i].to.deliver(due[i].d)
			}
			clear(due)
			due = due[:0]
			continue
		}
		if len(l.q) == 0 {
			l.draining = false
			l.mu.Unlock()
			return
		}
		wait := l.q[0].at.Sub(now)
		l.mu.Unlock()
		// A stale fire or wake only costs one more look at the queue.
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-l.wake:
		}
	}
}

// close refuses further delayed packets, returns the queued ones to the
// packet pool without waiting out their delay, and waits for the drainer.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	for i := range l.q {
		buffer.PutPacket(l.q[i].d.pkt)
	}
	l.q = nil
	l.mu.Unlock()
	l.kick()
	l.drainer.Wait()
}

// countDrop counts one packet the link lost (tail drop, loss process or
// partition) in the telemetry registry.
func (l *link) countDrop() {
	if l.tel != nil {
		l.tel.dropped.Inc(0)
		l.tel.netDropped.Inc(0)
	}
}
