package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/ncproto"
)

// Reliability policy of the load generator: a generation not ACKed by both
// sinks within resendAfter gets ResendGeneration(gid, data, resendExtra), at
// most maxResends times, and then counts as failed.
const (
	resendAfter = 200 * time.Millisecond
	resendExtra = 2
	maxResends  = 5
	// timeoutTick is how often the driver looks for overdue generations.
	timeoutTick = 20 * time.Millisecond
)

// event is what the sink collectors and ACK forwarders report to the driver.
type event struct {
	ack     bool // false: a sink delivery; true: an ACK on Source.Acks()
	sink    int
	ok      bool // delivery only: the bytes matched the corpus
	session ncproto.SessionID
	gen     ncproto.GenerationID
	at      int64 // delivery: taken off Deliveries(); ack: taken off Acks()
}

// flight is one generation in the window.
type flight struct {
	sess      int
	gen       ncproto.GenerationID
	data      []byte
	sendStart int64
	sendEnd   int64
	deliv     [2]int64
	acked     [2]int64
	verified  [2]bool
	resends   int
	deadline  int64
}

func (f *flight) done() bool {
	return f.verified[0] && f.verified[1] && f.acked[0] != 0 && f.acked[1] != 0
}

// phaseStats is what one phase of the closed loop measured.
type phaseStats struct {
	wall       time.Duration
	attempted  int
	completed  int
	failed     int
	mismatched int
	resends    int
	bytes      int64 // verified payload bytes delivered to both sinks
	windowWait time.Duration
	latencyMs  []float64
}

// add accumulates another phase of the same kind.
func (st *phaseStats) add(o phaseStats) {
	st.wall += o.wall
	st.attempted += o.attempted
	st.completed += o.completed
	st.failed += o.failed
	st.mismatched += o.mismatched
	st.resends += o.resends
	st.bytes += o.bytes
	st.windowWait += o.windowWait
	st.latencyMs = append(st.latencyMs, o.latencyMs...)
}

// driver is the closed-loop load generator: one goroutine keeps W
// generations in flight, and a generation completes when both sinks have
// delivered it, the bytes matched, and both ACKs have reached Source.Acks().
type driver struct {
	d      *deployment
	corpus *corpus
	picks  []uint16
	cursor int
	// live[i] counts session i's generations in flight, sent[i] the ones
	// it has sent so far.
	live    []int
	sent    []uint32
	flights map[uint64]*flight
	events  chan event
	base    time.Time
	// tr records spans when the run is traced; nil otherwise. traceOn lets a
	// sampler on another goroutine suspend the recording for a slice.
	tr      *tracer
	traceOn atomic.Bool
	// sincePush counts completions since the last table push.
	sincePush int
	pushRound int
	// delivered totals the verified payload bytes of completed generations,
	// for samplers that watch a phase from another goroutine.
	delivered atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

func flightKey(s ncproto.SessionID, g ncproto.GenerationID) uint64 {
	return uint64(s)<<32 | uint64(g)
}

// newDriver starts the collectors: one goroutine per sink draining
// Deliveries() (verify, ACK, report) and one per source forwarding
// Source.Acks() into the driver's event channel.
func newDriver(d *deployment, c *corpus, picks []uint16) *driver {
	dr := &driver{
		d: d, corpus: c, picks: picks,
		live:    make([]int, d.w.sessions),
		sent:    make([]uint32, d.w.sessions),
		flights: make(map[uint64]*flight, d.w.window),
		// Every generation in flight produces at most four events (two
		// deliveries, two ACKs); the slack absorbs late duplicates so the
		// collectors do not stall the sinks behind the driver.
		events: make(chan event, 8*d.w.window+64),
		base:   time.Now(),
		stop:   make(chan struct{}),
	}
	for i := range d.sinks {
		dr.wg.Add(1)
		go dr.collect(i)
	}
	for i := range d.sources {
		dr.wg.Add(1)
		go dr.forwardAcks(d.sources[i])
	}
	return dr
}

func (dr *driver) now() int64 { return int64(time.Since(dr.base)) }

func (dr *driver) close() {
	close(dr.stop)
	dr.wg.Wait()
}

// collect drains one sink: byte-compare each decoded generation against the
// corpus, acknowledge a correct one to its source on the sink's own conn (as
// MultiReceiver.collect does), and report the outcome to the driver.
func (dr *driver) collect(sink int) {
	defer dr.wg.Done()
	s := dr.d.sinks[sink]
	for {
		select {
		case <-dr.stop:
			return
		case del := <-s.vnf.Deliveries():
			ev := event{sink: sink, session: del.Session, gen: del.Generation, at: dr.now()}
			ev.ok = bytes.Equal(del.Data, dr.corpus.want[dr.corpus.index(del.Session, del.Generation)])
			if ev.ok {
				dr.sendAck(sink, del.Session, del.Generation)
			}
			select {
			case dr.events <- ev:
			case <-dr.stop:
				return
			}
		}
	}
}

func (dr *driver) sendAck(sink int, s ncproto.SessionID, g ncproto.GenerationID) {
	// Best effort, like MultiReceiver: a lost ACK is repaired by the
	// driver's timeout path.
	_ = dr.d.sinks[sink].conn.Send(dr.d.srcAddrs[int(s)-1], ncproto.EncodeAck(ncproto.Ack{Session: s, Generation: g}))
}

func (dr *driver) forwardAcks(src *dataplane.Source) {
	defer dr.wg.Done()
	for {
		select {
		case <-dr.stop:
			return
		case a := <-src.Acks():
			sink := 0
			if a.From == sinkNames[1] {
				sink = 1
			}
			select {
			case dr.events <- event{ack: true, sink: sink, session: a.Session, gen: a.Generation, at: dr.now()}:
			case <-dr.stop:
				return
			}
		}
	}
}

// nextSession returns the next session of the pick table that may take
// another generation, or -1 when every session is at its limit.
func (dr *driver) nextSession() int {
	for tries := 0; tries < len(dr.picks); tries++ {
		s := int(dr.picks[dr.cursor])
		dr.cursor = (dr.cursor + 1) % len(dr.picks)
		if dr.live[s] < dr.d.w.perSession {
			return s
		}
	}
	return -1
}

// launch sends one new generation of session s. A source numbers its
// generations from zero in send order and the driver is its only sender, so
// the id — which selects the corpus entry — is the count already sent.
func (dr *driver) launch(s int, st *phaseStats) error {
	gid := ncproto.GenerationID(dr.sent[s])
	f := &flight{sess: s, gen: gid, sendStart: dr.now()}
	f.data = dr.corpus.sent[dr.corpus.index(sessionID(s), gid)]
	got, err := dr.d.sources[s].SendGeneration(f.data, false)
	if err != nil {
		return err
	}
	if got != gid {
		return fmt.Errorf("session %d: source numbered the generation %d, expected %d", sessionID(s), got, gid)
	}
	dr.sent[s]++
	f.sendEnd = dr.now()
	f.deadline = f.sendEnd + int64(resendAfter)
	dr.flights[flightKey(sessionID(s), gid)] = f
	dr.live[s]++
	st.attempted++
	return nil
}

// run drives one phase: keep window generations in flight for dur (or, when
// until is positive, until that many generations have completed), then let
// the window drain.
func (dr *driver) run(window int, dur time.Duration, until int) (phaseStats, error) {
	var st phaseStats
	start := dr.now()
	end := start + int64(dur)
	ticker := time.NewTicker(timeoutTick)
	defer ticker.Stop()
	launching := true
	for {
		now := dr.now()
		if launching && ((until > 0 && st.completed+st.failed >= until) || (until <= 0 && now >= end)) {
			launching = false
		}
		for launching && len(dr.flights) < window {
			s := dr.nextSession()
			if s < 0 {
				break
			}
			if err := dr.launch(s, &st); err != nil {
				return st, err
			}
		}
		if len(dr.flights) == 0 && !launching {
			break
		}
		waitStart := dr.now()
		select {
		case ev := <-dr.events:
			dr.handle(ev, &st)
		case <-ticker.C:
			if err := dr.checkTimeouts(&st); err != nil {
				return st, err
			}
		}
		if launching {
			st.windowWait += time.Duration(dr.now() - waitStart)
		}
	}
	st.wall = time.Duration(dr.now() - start)
	return st, nil
}

func (dr *driver) handle(ev event, st *phaseStats) {
	key := flightKey(ev.session, ev.gen)
	f := dr.flights[key]
	if f == nil {
		return // late duplicate of a generation already settled
	}
	switch {
	case ev.ack:
		if f.acked[ev.sink] == 0 {
			f.acked[ev.sink] = ev.at
		}
	case !ev.ok:
		st.mismatched++
		dr.settle(key, f, false, st)
		return
	default:
		f.verified[ev.sink] = true
		f.deliv[ev.sink] = ev.at
	}
	if f.done() {
		dr.settle(key, f, true, st)
	}
}

// settle removes a generation from the window as completed or failed.
func (dr *driver) settle(key uint64, f *flight, ok bool, st *phaseStats) {
	delete(dr.flights, key)
	dr.live[f.sess]--
	if !ok {
		st.failed++
		return
	}
	st.completed++
	st.bytes += int64(len(f.data))
	dr.delivered.Add(int64(len(f.data)))
	lastAck := f.acked[0]
	if f.acked[1] > lastAck {
		lastAck = f.acked[1]
	}
	st.latencyMs = append(st.latencyMs, float64(lastAck-f.sendStart)/1e6)
	if dr.tr != nil && dr.traceOn.Load() {
		dr.tr.generation(f)
	}
	if n := dr.d.w.tablePushEvery; n > 0 {
		if dr.sincePush++; dr.sincePush >= n {
			dr.sincePush = 0
			dr.pushTables()
		}
	}
}

// checkTimeouts resends overdue generations and fails the ones out of
// retries. A sink that already delivered a generation ignores further
// packets for it, so for such a sink the repair is a repeated ACK.
func (dr *driver) checkTimeouts(st *phaseStats) error {
	now := dr.now()
	for key, f := range dr.flights {
		if now < f.deadline {
			continue
		}
		if f.resends >= maxResends {
			dr.settle(key, f, false, st)
			continue
		}
		f.resends++
		st.resends++
		f.deadline = now + int64(resendAfter)
		for i := range f.verified {
			if f.verified[i] && f.acked[i] == 0 {
				dr.sendAck(i, sessionID(f.sess), f.gen)
			}
		}
		if !(f.verified[0] && f.verified[1]) {
			if err := dr.d.sources[f.sess].ResendGeneration(f.gen, f.data, resendExtra); err != nil {
				return err
			}
		}
	}
	return nil
}

// tablePushEntries is the size of the periodic forwarding-table push.
const tablePushEntries = 32

// pushTables re-installs the hop groups of the next 32 sessions on every
// in-process relay: the same hops, so forwarding is unchanged, but each
// push publishes a new RCU snapshot beside the hot-path reads.
func (dr *driver) pushTables() {
	w := dr.d.w
	first := dr.pushRound * tablePushEntries % w.sessions
	dr.pushRound++
	for name, hops := range relayHops(w.edgeQuota()) {
		entries := make(map[ncproto.SessionID][]dataplane.HopGroup, tablePushEntries)
		for i := 0; i < tablePushEntries; i++ {
			entries[sessionID((first+i)%w.sessions)] = hops
		}
		dr.d.relays[name].UpdateTable(entries)
	}
}
