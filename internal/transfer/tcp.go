package transfer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"ncfn/internal/emunet"
	"ncfn/internal/simclock"
)

// This file implements the "Direct TCP" baseline of Fig. 7: a reliable
// unicast byte transfer with TCP-flavored congestion control (slow start,
// AIMD, go-back-N retransmission on timeout) over the same datagram
// substrate the coding system uses. It is intentionally a simplified TCP —
// enough to exhibit the qualitative behavior the figure contrasts against:
// throughput bounded by the direct path and degraded by loss-triggered
// window collapses.

// Wire types for the mini-TCP (disjoint from NC 0x9C and probe 0x7x).
const (
	typeData = 0x60
	typeAck  = 0x61
)

// TCPConfig tunes the baseline sender.
type TCPConfig struct {
	// MSS is the segment payload size (default 1460, matching the NC
	// block size so both systems move equal payload per packet).
	MSS int
	// RTO is the retransmission timeout (default 200 ms).
	RTO time.Duration
	// MaxWindow caps the congestion window in segments (default 256).
	MaxWindow int
	// Clock defaults to the real clock.
	Clock simclock.Clock
	// Deadline bounds the whole transfer (default 60 s).
	Deadline time.Duration
}

// TCPStats reports a completed transfer.
type TCPStats struct {
	Bytes       int
	Elapsed     time.Duration
	Retransmits int
	GoodputMbps float64
}

// ErrDeadline is returned when a TCP transfer exceeds its deadline.
var ErrDeadline = errors.New("transfer: tcp deadline exceeded")

// TCPSink receives a mini-TCP stream: it acknowledges segments
// cumulatively and accumulates the payload. Close it to stop.
type TCPSink struct {
	conn emunet.PacketConn

	mu      sync.Mutex
	nextSeq uint32
	data    []byte

	wg        sync.WaitGroup
	closeOnce sync.Once
	done      chan struct{}
}

// NewTCPSink starts a sink on conn.
func NewTCPSink(conn emunet.PacketConn) *TCPSink {
	s := &TCPSink{conn: conn, done: make(chan struct{})}
	s.wg.Add(1)
	go s.run()
	return s
}

func (s *TCPSink) run() {
	defer s.wg.Done()
	for {
		pkt, src, err := s.conn.Recv()
		if err != nil {
			if errors.Is(err, emunet.ErrClosed) {
				return
			}
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		if len(pkt) < 5 || pkt[0] != typeData {
			continue
		}
		seq := binary.BigEndian.Uint32(pkt[1:5])
		payload := pkt[5:]
		s.mu.Lock()
		if seq == s.nextSeq {
			s.data = append(s.data, payload...)
			s.nextSeq++
		}
		next := s.nextSeq
		s.mu.Unlock()
		// Cumulative ACK of the next expected segment.
		ack := make([]byte, 5)
		ack[0] = typeAck
		binary.BigEndian.PutUint32(ack[1:], next)
		_ = s.conn.Send(src, ack)
	}
}

// Close stops the sink.
func (s *TCPSink) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		err = s.conn.Close()
		s.wg.Wait()
	})
	return err
}

// TCPSend transfers data to peer reliably and returns throughput stats.
// It owns conn's receive side for the duration of the call.
func TCPSend(conn emunet.PacketConn, peer string, data []byte, cfg TCPConfig) (TCPStats, error) {
	if cfg.MSS <= 0 {
		cfg.MSS = 1460
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 200 * time.Millisecond
	}
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = 256
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 60 * time.Second
	}

	// Segment the data.
	var segments [][]byte
	for off := 0; off < len(data); off += cfg.MSS {
		end := off + cfg.MSS
		if end > len(data) {
			end = len(data)
		}
		segments = append(segments, data[off:end])
	}
	total := len(segments)
	start := cfg.Clock.Now()
	stats := TCPStats{Bytes: len(data)}
	if total == 0 {
		return stats, nil
	}

	// ACK receiver goroutine.
	acks := make(chan uint32, 1024)
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			pkt, _, err := conn.Recv()
			if err != nil {
				return
			}
			if len(pkt) == 5 && pkt[0] == typeAck {
				select {
				case acks <- binary.BigEndian.Uint32(pkt[1:]):
				default:
				}
			}
		}
	}()

	send := func(seq int) error {
		pkt := make([]byte, 5+len(segments[seq]))
		pkt[0] = typeData
		binary.BigEndian.PutUint32(pkt[1:], uint32(seq))
		copy(pkt[5:], segments[seq])
		return conn.Send(peer, pkt)
	}

	base := 0        // lowest unacked segment
	nextToSend := 0  // next never-sent segment
	cwnd := 1.0      // congestion window in segments
	ssthresh := 64.0 // slow start threshold
	deadline := cfg.Clock.Now().Add(cfg.Deadline)

	for base < total {
		if cfg.Clock.Now().After(deadline) {
			return stats, fmt.Errorf("%w: %d/%d segments delivered", ErrDeadline, base, total)
		}
		// Fill the window.
		for nextToSend < total && nextToSend < base+int(cwnd) && nextToSend < base+cfg.MaxWindow {
			if err := send(nextToSend); err != nil {
				return stats, fmt.Errorf("transfer: tcp send: %w", err)
			}
			nextToSend++
		}
		// Wait for an ACK or a timeout.
		select {
		case a := <-acks:
			if int(a) > base {
				delta := int(a) - base
				base = int(a)
				// Slow start doubles per RTT (≈ +1 per ACK); congestion
				// avoidance grows ~1/cwnd per ACK.
				for i := 0; i < delta; i++ {
					if cwnd < ssthresh {
						cwnd++
					} else {
						cwnd += 1 / cwnd
					}
				}
				if cwnd > float64(cfg.MaxWindow) {
					cwnd = float64(cfg.MaxWindow)
				}
			}
		case <-cfg.Clock.After(cfg.RTO):
			// Timeout: multiplicative decrease and go-back-N.
			ssthresh = cwnd / 2
			if ssthresh < 2 {
				ssthresh = 2
			}
			cwnd = 1
			nextToSend = base
			stats.Retransmits++
		}
	}
	stats.Elapsed = cfg.Clock.Now().Sub(start)
	if secs := stats.Elapsed.Seconds(); secs > 0 {
		stats.GoodputMbps = float64(len(data)) * 8 / secs / 1e6
	}
	// Stop the ACK reader by closing the conn; the caller owns the conn
	// lifecycle, so we just drain: the goroutine exits when conn closes.
	return stats, nil
}
