// Package transfer is the application layer above the coding data plane:
// the file-transmission application that drives the paper's evaluation
// ("A file transmission application is built upon the system", Sec. V-A).
//
// It provides reliable multicast file delivery — generations are
// acknowledged by each receiver, and unacknowledged generations are
// re-encoded and resent — plus the "Direct TCP" baseline of Fig. 7: a
// reliable unicast transfer with a TCP-like AIMD congestion window running
// over the same datagram substrate.
package transfer

import (
	"errors"
	"fmt"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
)

// ErrIncomplete is returned when reliability gives up before every
// receiver has every generation.
var ErrIncomplete = errors.New("transfer: incomplete delivery")

// MulticastConfig tunes reliable multicast delivery.
type MulticastConfig struct {
	// Receivers lists the addresses expected to acknowledge each
	// generation.
	Receivers []string
	// AckTimeout is how long to wait for outstanding ACKs before
	// resending (default 500 ms).
	AckTimeout time.Duration
	// MaxRounds bounds resend rounds (default 50).
	MaxRounds int
	// Clock defaults to the real clock.
	Clock simclock.Clock
}

// MulticastStats reports a completed transfer.
type MulticastStats struct {
	Generations int
	Rounds      int
	Resent      int
	Elapsed     time.Duration
	// GoodputMbps is payload bits delivered (to the slowest receiver)
	// over the elapsed time.
	GoodputMbps float64
}

// Multicast reliably delivers data to every receiver of the source's
// session. The source's hops must be configured; receivers must ACK to the
// source's address.
func Multicast(src *dataplane.Source, data []byte, cfg MulticastConfig) (MulticastStats, error) {
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 500 * time.Millisecond
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 50
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if len(cfg.Receivers) == 0 {
		return MulticastStats{}, errors.New("transfer: no receivers")
	}

	gens := rlnc.SplitGenerations(src.Params(), data)
	start := cfg.Clock.Now()
	first, n, err := src.SendData(data)
	if err != nil {
		return MulticastStats{}, fmt.Errorf("transfer: initial send: %w", err)
	}
	stats := MulticastStats{Generations: n}
	if n == 0 {
		return stats, nil
	}

	// acked[gid][receiver]
	acked := make(map[ncproto.GenerationID]map[string]bool, n)
	want := make(map[string]bool, len(cfg.Receivers))
	for _, r := range cfg.Receivers {
		want[r] = true
	}
	remaining := n * len(cfg.Receivers)
	drain := func(deadline <-chan time.Time) bool {
		for {
			select {
			case ack := <-src.Acks():
				gid := ack.Generation
				if gid < first || gid >= first+ncproto.GenerationID(n) || !want[ack.From] {
					continue
				}
				if acked[gid] == nil {
					acked[gid] = make(map[string]bool, len(cfg.Receivers))
				}
				if !acked[gid][ack.From] {
					acked[gid][ack.From] = true
					remaining--
					if remaining == 0 {
						return true
					}
				}
			case <-deadline:
				return remaining == 0
			}
		}
	}

	for round := 0; round <= cfg.MaxRounds; round++ {
		if drain(cfg.Clock.After(cfg.AckTimeout)) {
			stats.Rounds = round
			stats.Elapsed = cfg.Clock.Now().Sub(start)
			if secs := stats.Elapsed.Seconds(); secs > 0 {
				stats.GoodputMbps = float64(len(data)) * 8 / secs / 1e6
			}
			return stats, nil
		}
		if round == cfg.MaxRounds {
			break
		}
		// Resend every generation missing at least one receiver: one fresh
		// generation's worth of coded packets per hop group.
		for i := 0; i < n; i++ {
			gid := first + ncproto.GenerationID(i)
			if len(acked[gid]) == len(cfg.Receivers) {
				continue
			}
			if err := src.ResendGeneration(gid, gens[i], src.Params().GenerationBlocks); err != nil {
				return stats, fmt.Errorf("transfer: resend generation %d: %w", gid, err)
			}
			stats.Resent++
		}
	}
	stats.Elapsed = cfg.Clock.Now().Sub(start)
	return stats, fmt.Errorf("%w: %d generation-receiver pairs outstanding", ErrIncomplete, remaining)
}
