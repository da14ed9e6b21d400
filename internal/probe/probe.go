// Package probe implements the ping equivalent the delay measurements of
// Table II use. It runs over emunet.PacketConn, so it works on the emulated
// network and over real UDP alike.
package probe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"ncfn/internal/emunet"
	"ncfn/internal/simclock"
)

// Wire types (first byte of each probe datagram). 0x9C is reserved for NC
// data packets, so probes use a disjoint space.
const (
	typePingReq   = 0x70
	typePingReply = 0x71
)

// ErrTimeout is returned when a probe receives no answer in time.
var ErrTimeout = errors.New("probe: timeout")

// Responder answers ping requests, playing the role of the ping target on
// each VNF.
type Responder struct {
	conn emunet.PacketConn

	wg        sync.WaitGroup
	closeOnce sync.Once
	done      chan struct{}
}

// NewResponder starts a responder on conn.
func NewResponder(conn emunet.PacketConn) *Responder {
	r := &Responder{
		conn: conn,
		done: make(chan struct{}),
	}
	r.wg.Add(1)
	go r.run()
	return r
}

func (r *Responder) run() {
	defer r.wg.Done()
	for {
		pkt, src, err := r.conn.Recv()
		if err != nil {
			if errors.Is(err, emunet.ErrClosed) {
				return
			}
			select {
			case <-r.done:
				return
			default:
				continue
			}
		}
		if len(pkt) > 0 && pkt[0] == typePingReq {
			reply := append([]byte(nil), pkt...)
			reply[0] = typePingReply
			_ = r.conn.Send(src, reply)
		}
	}
}

// Close stops the responder.
func (r *Responder) Close() error {
	var err error
	r.closeOnce.Do(func() {
		close(r.done)
		err = r.conn.Close()
		r.wg.Wait()
	})
	return err
}

// Prober is the client side: it owns its conn and a single receive
// goroutine, so probes can time out without leaking readers.
type Prober struct {
	conn  emunet.PacketConn
	clock simclock.Clock
	inbox chan []byte

	wg        sync.WaitGroup
	closeOnce sync.Once
	done      chan struct{}
}

// NewProber starts a prober on conn. clk defaults to the real clock.
func NewProber(conn emunet.PacketConn, clk simclock.Clock) *Prober {
	if clk == nil {
		clk = simclock.Real{}
	}
	p := &Prober{
		conn:  conn,
		clock: clk,
		inbox: make(chan []byte, 1024),
		done:  make(chan struct{}),
	}
	p.wg.Add(1)
	go p.run()
	return p
}

func (p *Prober) run() {
	defer p.wg.Done()
	for {
		pkt, _, err := p.conn.Recv()
		if err != nil {
			if errors.Is(err, emunet.ErrClosed) {
				return
			}
			select {
			case <-p.done:
				return
			default:
				continue
			}
		}
		select {
		case p.inbox <- pkt:
		default:
			// Consumer behind; drop like a socket buffer.
		}
	}
}

// Close stops the prober.
func (p *Prober) Close() error {
	var err error
	p.closeOnce.Do(func() {
		close(p.done)
		err = p.conn.Close()
		p.wg.Wait()
	})
	return err
}

// PingResult aggregates round-trip measurements like the ping tool's
// summary line (Table II reports min/max/average RTTs).
type PingResult struct {
	Sent, Received int
	Min, Max, Avg  time.Duration
}

// Ping measures the round-trip time to target with count echo requests of
// the given payload size. Lost replies are excluded from the statistics.
func (p *Prober) Ping(target string, count, size int, timeout time.Duration) (PingResult, error) {
	if size < 16 {
		size = 16
	}
	res := PingResult{Min: time.Duration(1<<62 - 1)}
	for seq := 0; seq < count; seq++ {
		pkt := make([]byte, size)
		pkt[0] = typePingReq
		binary.BigEndian.PutUint32(pkt[1:], uint32(seq))
		start := p.clock.Now()
		if err := p.conn.Send(target, pkt); err != nil {
			return res, fmt.Errorf("probe: ping send: %w", err)
		}
		res.Sent++
		rtt, ok := p.awaitPingReply(uint32(seq), timeout, start)
		if !ok {
			continue
		}
		res.Received++
		if rtt < res.Min {
			res.Min = rtt
		}
		if rtt > res.Max {
			res.Max = rtt
		}
		res.Avg += rtt
	}
	if res.Received == 0 {
		return res, ErrTimeout
	}
	res.Avg /= time.Duration(res.Received)
	return res, nil
}

// awaitPingReply waits for the matching echo reply, discarding stale or
// foreign packets.
func (p *Prober) awaitPingReply(seq uint32, timeout time.Duration, start time.Time) (time.Duration, bool) {
	deadline := p.clock.After(timeout)
	for {
		select {
		case pkt := <-p.inbox:
			if len(pkt) >= 5 && pkt[0] == typePingReply && binary.BigEndian.Uint32(pkt[1:]) == seq {
				return p.clock.Now().Sub(start), true
			}
		case <-deadline:
			return 0, false
		case <-p.done:
			return 0, false
		}
	}
}
