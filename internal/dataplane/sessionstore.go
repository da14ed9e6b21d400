package dataplane

import (
	"sync"

	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/telemetry"
)

// SessionStoreConfig bounds the per-VNF coding state under massive
// multi-tenancy. With thousands of concurrent sessions, per-generation
// decoder and recoder state is the dominant memory consumer; the generation
// index keeps every live (session, generation) in LRU order and evicts stale
// generations when any configured bound is exceeded. A zero value in any
// field disables that bound.
type SessionStoreConfig struct {
	// MaxGenerations caps live (session, generation) coding states across
	// the whole VNF. The least recently touched generation is evicted first.
	MaxGenerations int
	// TTLNanos evicts any generation not touched by a packet for this many
	// clock nanoseconds (the VNF's clock, so the chaos harness drives it
	// with virtual time).
	TTLNanos int64
	// MaxBytes caps the estimated coding-state bytes
	// (rlnc.Params.StateBytes per live generation).
	MaxBytes int64
}

// WithSessionStore adds LRU/TTL/byte-cap eviction to the VNF's generation
// index. Without it the index still owns every live generation — FIFO
// retirement of recoder generations at the buffer capacity, codec recycling
// and memory accounting are unconditional — and decoder state is pruned only
// by the reordering window.
func WithSessionStore(cfg SessionStoreConfig) VNFOption {
	return func(v *VNF) { v.store.cfg = cfg }
}

// genLink says where a generation record stands with the index.
type genLink uint8

const (
	// genUnlinked: fresh, pooled as a session's spare, or released by its
	// owner.
	genUnlinked genLink = iota
	// genLinked: live and owned by its session.
	genLinked
	// genRetired / genEvicted: unlinked by FIFO retirement from another
	// session, or by LRU/TTL/byte-cap eviction, and queued for teardown.
	// Until enforceStore has run that teardown the record belongs to the
	// queue, not to its session; eviction tombstones, retirement does not.
	genRetired
	genEvicted
)

// genState is the one record a VNF keeps per live generation. A record
// belongs to one sessionState for life — it is recycled only into later
// generations of the same session — so the session's mu guards its coding
// half and sessionStore.mu its index half.
type genState struct {
	st *sessionState

	// Guarded by st.mu.
	gen      ncproto.GenerationID
	rec      *rlnc.Recoder // recoder role
	dec      *rlnc.Decoder // decoder role
	received int           // packets received (recoder role)
	emitted  []int         // packets sent per hop-group index (recoder role)
	started  int64         // clock ns at creation, for the decode-latency histogram

	// Guarded by sessionStore.mu.
	link   genLink
	lastNs int64
	links  [2]struct{ prev, next *genState } // indexed by genList.i: fifoLinks, lruLinks
	pend   *genState                         // next record awaiting teardown
}

// onFIFO reports whether the record's generation counts against the buffer
// capacity: recoder generations do, a sink's decoders finish on their own.
func (g *genState) onFIFO() bool { return g.st.cfg.Role == RoleRecoder }

// The two lists a record can be on, as indexes into genState.links.
const (
	fifoLinks = iota
	lruLinks
)

// genList is an intrusive doubly linked list of generation records, so
// linking, unlinking and popping the oldest neither allocate nor search.
type genList struct {
	head, tail *genState
	n          int
	i          int // which genState.links slot this list threads through
}

func (l *genList) pushBack(g *genState) {
	ln := &g.links[l.i]
	ln.prev, ln.next = l.tail, nil
	if l.tail != nil {
		l.tail.links[l.i].next = g
	} else {
		l.head = g
	}
	l.tail = g
	l.n++
}

func (l *genList) remove(g *genState) {
	ln := &g.links[l.i]
	if ln.prev != nil {
		ln.prev.links[l.i].next = ln.next
	} else {
		l.head = ln.next
	}
	if ln.next != nil {
		ln.next.links[l.i].prev = ln.prev
	} else {
		l.tail = ln.prev
	}
	ln.prev, ln.next = nil, nil
	l.n--
}

// sessionStore is the VNF's generation index: the one owner of which
// generations are live. Each session finds its own records through its gens
// map; the index threads every record on an LRU list (touch order) and every
// recoder record on a FIFO list (first-arrival order, the paper's buffer),
// and accounts the bytes they and the sessions' pooled spares retain.
//
// It is deliberately decoupled from the per-session locks: admit, touch and
// remove take only store.mu (callers already hold their session's st.mu).
// Whatever has to reach into another session — a FIFO victim of a different
// session, every LRU/TTL/byte-cap eviction — is unlinked and accounted at
// once but queued, and enforceStore applies the teardown under the victim's
// st.mu from call sites that hold no session lock (the shard worker loop
// between runs, the synchronous packet path's tail, and SweepSessions).
//
// The declared acquisition order below is the package contract nclint's
// lockorder analyzer enforces: a shard's pauseMu is outermost, a session's
// mu next, and store.mu innermost — never take an earlier lock while
// holding a later one. These are all the locks the packet path takes.
//
//nc:lockorder vnfShard.pauseMu -> sessionState.mu -> sessionStore.mu
type sessionStore struct {
	cfg      SessionStoreConfig
	capacity int // FIFO capacity in recoder generations (WithBufferCapacity)
	tel      *vnfTelemetry

	mu    sync.Mutex
	fifo  genList // recoder records, oldest first arrival at the head
	lru   genList // every live record, least recently touched at the head
	bytes int64   // live records plus pooled spares
	// pendHead/pendTail chain the unlinked records awaiting teardown.
	pendHead, pendTail *genState
	// pubBytes/pubLive are what the gauges were last told; publish adds the
	// difference (the gauges may be shared by every VNF of a registry, so
	// they are moved by deltas, never set).
	pubBytes, pubLive int64
}

// publish moves the session-bytes and live-generations gauges by whatever
// the accounting changed since the last call, and unlocks.
func (s *sessionStore) publish() {
	db, dn := s.bytes-s.pubBytes, int64(s.lru.n)-s.pubLive
	s.pubBytes, s.pubLive = s.bytes, int64(s.lru.n)
	s.mu.Unlock()
	if db != 0 {
		s.tel.sessBytes.Add(0, db)
	}
	if dn != 0 {
		s.tel.liveGens.Add(0, dn)
	}
}

// admit links a record for a new generation of st and returns it; the caller
// holds st.mu and initialises the coding half. A recoder generation arriving
// at FIFO capacity first retires the oldest one. If that victim is st's own
// it is recycled in place: the returned record is the victim, relinked at
// the back and still carrying its old generation for the caller to reset
// (inPlace). A victim of another session goes to the teardown queue, and the
// new generation takes one of st's spares or a fresh record.
func (s *sessionStore) admit(st *sessionState, nowNs int64) (g *genState, inPlace bool) {
	s.mu.Lock()
	if st.cfg.Role == RoleRecoder && s.fifo.n >= s.capacity {
		if old := s.fifo.head; old.st == st {
			s.fifo.remove(old)
			s.lru.remove(old)
			g, inPlace = old, true
		} else {
			s.retire(old, genRetired)
		}
	}
	if g == nil {
		if n := len(st.spares); n > 0 {
			g, st.spares[n-1] = st.spares[n-1], nil
			st.spares = st.spares[:n-1]
			s.bytes -= st.stateBytes
		} else {
			g = &genState{st: st}
		}
		s.bytes += st.stateBytes
	}
	g.link, g.lastNs = genLinked, nowNs
	s.lru.pushBack(g)
	if g.onFIFO() {
		s.fifo.pushBack(g)
	}
	s.publish()
	return g, inPlace
}

// touch refreshes a record's LRU position and reports its link: anything
// but genLinked means another goroutine unlinked it since the caller's map
// lookup and its teardown is queued. Callers hold g.st.mu.
func (s *sessionStore) touch(g *genState, nowNs int64) genLink {
	s.mu.Lock()
	link := g.link
	if link == genLinked {
		g.lastNs = nowNs
		s.lru.remove(g)
		s.lru.pushBack(g)
	}
	s.mu.Unlock()
	return link
}

// unlink takes a live record off the lists and the accounting. Callers hold
// s.mu.
func (s *sessionStore) unlink(g *genState, link genLink) {
	s.lru.remove(g)
	if g.onFIFO() {
		s.fifo.remove(g)
	}
	s.bytes -= g.st.stateBytes
	g.link = link
}

// retire unlinks a live record and queues it for teardown. Callers hold s.mu.
func (s *sessionStore) retire(g *genState, link genLink) {
	s.unlink(g, link)
	g.pend = nil
	if s.pendTail != nil {
		s.pendTail.pend = g
	} else {
		s.pendHead = g
	}
	s.pendTail = g
}

// removeSession unlinks every record st still owns and its pooled spares
// (EndSession, or a Configure replacing the state): a walk of the session's
// own records, not of the index. Callers hold st.mu.
func (s *sessionStore) removeSession(st *sessionState) {
	s.mu.Lock()
	for _, g := range st.gens {
		if g.link == genLinked {
			s.unlink(g, genUnlinked)
		}
	}
	s.bytes -= int64(len(st.spares)) * st.stateBytes
	s.publish()
}

// collect evicts what the configured bounds no longer allow — generations
// past their TTL, then the least recently touched while over the generation
// or byte caps; list order is touch order, so both are runs from the head —
// and hands the caller the whole teardown queue.
func (s *sessionStore) collect(nowNs int64) *genState {
	s.mu.Lock()
	c := s.cfg
	for g := s.lru.head; g != nil; g = s.lru.head {
		expired := c.TTLNanos > 0 && nowNs-g.lastNs >= c.TTLNanos
		over := (c.MaxGenerations > 0 && s.lru.n > c.MaxGenerations) ||
			(c.MaxBytes > 0 && s.bytes > c.MaxBytes)
		if !expired && !over {
			break
		}
		s.retire(g, genEvicted)
	}
	head := s.pendHead
	s.pendHead, s.pendTail = nil, nil
	s.publish()
	return head
}

// enforceStore evicts stale generations until the index is within bounds and
// tears down every queued record. It must be called with no session mutex
// held: each teardown takes that session's st.mu. Returns the number of
// generations evicted (FIFO retirements are not evictions).
func (v *VNF) enforceStore() int {
	evicted := 0
	for g := v.store.collect(v.clock.Now().UnixNano()); g != nil; {
		// The queue owns g until finishRetired pools it, after which its
		// session may relink it: read the chain first.
		next := g.pend
		if v.finishRetired(g) {
			evicted++
		}
		g = next
	}
	return evicted
}

// SweepSessions runs index eviction immediately and returns how many
// generations were evicted. The packet path enforces the bounds
// continuously; this entry point lets an idle VNF (no traffic to piggyback
// on) and the deterministic churn harness expire TTLs on demand.
func (v *VNF) SweepSessions() int { return v.enforceStore() }

// SessionStoreStats reports the index's live accounting: tracked generations
// and estimated retained bytes (live coding state plus pooled spares).
func (v *VNF) SessionStoreStats() (generations int, bytes int64) {
	v.store.mu.Lock()
	defer v.store.mu.Unlock()
	return v.store.lru.n, v.store.bytes
}

// finishRetired tears down one queued record under its session's mu: forget
// it (unless a late packet already started a fresh record under the same
// generation), recycle it as one of the session's spares, and — for an eviction —
// tombstone the generation so late packets count as evicted drops instead of
// resurrecting state, and record the eviction. Reports whether it was one.
func (v *VNF) finishRetired(g *genState) (evicted bool) {
	st := g.st
	evicted = g.link == genEvicted
	st.mu.Lock()
	gen := g.gen
	if st.gens[gen] == g {
		delete(st.gens, gen)
	}
	if evicted {
		if st.evicted == nil {
			st.evicted = make(map[ncproto.GenerationID]bool)
		}
		st.evicted[gen] = true
		// Tombstones only need to cover the reordering window: prune entries
		// far behind the newest generation this session has seen (same policy
		// as the delivered set, so a very late packet past the window is
		// indistinguishable from a new generation — accepted bound,
		// documented in DESIGN.md).
		if len(st.evicted) > 2*reorderWindow {
			for gid := range st.evicted {
				if gid+reorderWindow < st.maxGen {
					delete(st.evicted, gid)
				}
			}
		}
	}
	v.store.mu.Lock()
	v.store.pool(g, 1)
	v.store.publish()
	st.mu.Unlock()
	if evicted {
		v.tel.evicted.Inc(0)
		v.tel.rec.Record(v.clock.Now().UnixNano(), telemetry.EventGenerationEvict, v.node,
			uint64(st.cfg.ID), uint64(gen), st.stateBytes)
	}
	return evicted
}

// finishedSpares is how many finished records a sink session keeps for its
// next generations. A window of in-flight generations finishes in bursts —
// the last packets of several arrive back to back, their successors' first
// packets later — so one spare would go to the first of a burst and the rest
// to GC, and whether a generation's decoder is reused or allocated would
// depend on how completions and admissions interleave. Eight covers the
// windows the sources run; a deeper window reuses what it can and allocates
// the rest.
const finishedSpares = 8

// pool keeps an unlinked record — codec arena, counters slice and all — as a
// spare for one of the session's next generations, or lets it go to GC if the
// session is closed or already has limit of them. Retirement and eviction pass
// a limit of one: a relay at capacity recycles its records in place, and an
// eviction is there to give memory back. The bound is per session and small,
// so thousands of idle sessions cannot pin unbounded arenas. Spares stay on
// the index's byte accounting, so the dataplane_session_bytes gauge reflects
// everything the VNF holds onto. Decoders are reset here; a recoder is reset
// (and reseeded) at reuse, when the session's next seed is drawn. Callers hold
// g.st.mu and s.mu.
func (s *sessionStore) pool(g *genState, limit int) {
	st := g.st
	if st.closed || len(st.spares) >= limit {
		return
	}
	if g.dec != nil {
		g.dec.Reset()
	}
	st.spares = append(st.spares, g)
	s.bytes += st.stateBytes
}

// release forgets a generation its session is done with — delivered at a
// sink, below the watermark at a relay — and pools the record among the
// session's finishedSpares in one locked step, as in-place FIFO recycling
// took one. It reports whether the session still owned the record; if not, it
// was retired or evicted and the queued teardown has it. Callers hold g.st.mu.
func (s *sessionStore) release(g *genState) bool {
	delete(g.st.gens, g.gen)
	s.mu.Lock()
	owned := g.link == genLinked
	if owned {
		s.unlink(g, genUnlinked)
		s.pool(g, finishedSpares)
	}
	s.publish()
	return owned
}
