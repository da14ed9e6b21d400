package transfer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/ncproto"
	"ncfn/internal/simclock"
)

// This file implements the live-streaming mode the paper's introduction
// motivates (video conferencing, live video): the source emits generations
// at a fixed target rate and receivers play them against a deadline.
// Unlike the file-transfer mode there are no retransmissions — a generation
// that cannot be decoded by its playback deadline is skipped (this is why
// the redundancy configurations NC1/NC2 matter for streaming).

// StreamConfig tunes a live streaming run.
type StreamConfig struct {
	// RateMbps is the stream's target payload rate.
	RateMbps float64
	// Duration is how long to stream.
	Duration time.Duration
	// Deadline is the per-generation playback budget measured from when
	// the generation is sent; generations decoded later are counted as
	// late (default 400 ms).
	Deadline time.Duration
	// Clock defaults to the real clock.
	Clock simclock.Clock
}

// StreamStats reports a finished streaming session for one receiver.
type StreamStats struct {
	GenerationsSent int
	OnTime          int
	Late            int
	Missing         int
	// DeliveryRatio is OnTime / GenerationsSent.
	DeliveryRatio float64
	// MeanLatency is the average send→decode latency of delivered
	// generations.
	MeanLatency time.Duration
}

// StreamReceiver tracks per-generation decode times for one receiver.
type StreamReceiver struct {
	recv    *dataplane.MultiReceiver
	session ncproto.SessionID
	clock   simclock.Clock

	mu      sync.Mutex
	decoded map[ncproto.GenerationID]time.Time

	wg        sync.WaitGroup
	closeOnce sync.Once
	done      chan struct{}
}

// WatchReceiver watches one session at a receiving endpoint and records
// when each of its generations becomes playable.
func WatchReceiver(recv *dataplane.MultiReceiver, session ncproto.SessionID, clk simclock.Clock) *StreamReceiver {
	if clk == nil {
		clk = simclock.Real{}
	}
	s := &StreamReceiver{
		recv:    recv,
		session: session,
		clock:   clk,
		decoded: make(map[ncproto.GenerationID]time.Time),
		done:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.watch()
	return s
}

func (s *StreamReceiver) watch() {
	defer s.wg.Done()
	ticker := 2 * time.Millisecond
	seen := 0
	for {
		select {
		case <-s.done:
			return
		default:
		}
		n := s.recv.Generations(s.session)
		if n > seen {
			now := s.clock.Now()
			s.mu.Lock()
			// Record decode times for newly completed generations; the
			// receiver API exposes counts, so scan the window.
			for g := 0; g < n+64; g++ {
				gid := ncproto.GenerationID(g)
				if _, ok := s.decoded[gid]; ok {
					continue
				}
				if _, ok := s.recv.GenerationData(s.session, gid); ok {
					s.decoded[gid] = now
				}
			}
			seen = n
			s.mu.Unlock()
		}
		s.clock.Sleep(ticker)
	}
}

// DecodeTime returns when a generation became playable.
func (s *StreamReceiver) DecodeTime(g ncproto.GenerationID) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.decoded[g]
	return at, ok
}

// Close stops the watcher (the underlying receiver stays open).
func (s *StreamReceiver) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()
}

// ErrNoReceivers is returned when Stream is invoked without receivers.
var ErrNoReceivers = errors.New("transfer: no stream receivers")

// Stream runs a fixed-rate live session from src and scores each watched
// receiver against the playback deadline. The returned map is keyed by the
// receiver's network address.
func Stream(src *dataplane.Source, watchers map[string]*StreamReceiver, cfg StreamConfig) (map[string]StreamStats, error) {
	if len(watchers) == 0 {
		return nil, ErrNoReceivers
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 400 * time.Millisecond
	}
	if cfg.RateMbps <= 0 {
		return nil, errors.New("transfer: stream needs a positive rate")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("transfer: stream needs a positive duration")
	}

	params := src.Params()
	genBytes := params.GenerationBytes()
	interval := time.Duration(float64(genBytes) * 8 / (cfg.RateMbps * 1e6) * float64(time.Second))
	if interval <= 0 {
		return nil, fmt.Errorf("transfer: stream interval underflow (rate %v Mbps)", cfg.RateMbps)
	}
	total := int(cfg.Duration / interval)
	if total < 1 {
		total = 1
	}

	// Emit the stream: one generation per interval, content synthesized
	// per generation (a live encoder's output).
	sentAt := make([]time.Time, 0, total)
	payload := make([]byte, genBytes)
	start := cfg.Clock.Now()
	var firstGen ncproto.GenerationID
	for i := 0; i < total; i++ {
		for j := range payload {
			payload[j] = byte(i + j)
		}
		gid, err := src.SendGeneration(payload, i == total-1)
		if err != nil {
			return nil, fmt.Errorf("transfer: stream generation %d: %w", i, err)
		}
		if i == 0 {
			firstGen = gid
		}
		sentAt = append(sentAt, cfg.Clock.Now())
		next := start.Add(time.Duration(i+1) * interval)
		if d := next.Sub(cfg.Clock.Now()); d > 0 {
			cfg.Clock.Sleep(d)
		}
	}
	// Let the tail of the stream arrive and decode.
	cfg.Clock.Sleep(cfg.Deadline)

	out := make(map[string]StreamStats, len(watchers))
	for addr, w := range watchers {
		st := StreamStats{GenerationsSent: total}
		var latencySum time.Duration
		delivered := 0
		for i := 0; i < total; i++ {
			gid := firstGen + ncproto.GenerationID(i)
			at, ok := w.DecodeTime(gid)
			if !ok {
				st.Missing++
				continue
			}
			latency := at.Sub(sentAt[i])
			delivered++
			latencySum += latency
			if latency <= cfg.Deadline {
				st.OnTime++
			} else {
				st.Late++
			}
		}
		if delivered > 0 {
			st.MeanLatency = latencySum / time.Duration(delivered)
		}
		st.DeliveryRatio = float64(st.OnTime) / float64(total)
		out[addr] = st
	}
	return out, nil
}
