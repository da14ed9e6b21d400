package dataplane

import (
	"sync"
	"sync/atomic"

	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/telemetry"
)

// SessionStoreConfig is the generation index's one setting, in the form the
// whole-system benchmark passes it.
type SessionStoreConfig struct {
	// MaxGenerations caps live generation records across the VNF: the
	// buffer capacity (see WithBufferCapacity).
	MaxGenerations int
}

// WithSessionStore is WithBufferCapacity(cfg.MaxGenerations).
func WithSessionStore(cfg SessionStoreConfig) VNFOption {
	return WithBufferCapacity(cfg.MaxGenerations)
}

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

	// linked is written under sessionStore.mu and says whether the record is
	// live and its session's. The packet path loads it without the lock: a
	// record another session's admission has retired counts as gone at once,
	// although it stays in its session's map until enforceStore tears it down.
	linked atomic.Bool

	// Guarded by sessionStore.mu.
	prev, next *genState // the index's first-arrival list
	pend       *genState // next record awaiting teardown
}

// genList is an intrusive doubly linked list of generation records, so
// linking, unlinking and popping the oldest neither allocate nor search.
type genList struct {
	head, tail *genState
	n          int
}

func (l *genList) pushBack(g *genState) {
	g.prev, g.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = g
	} else {
		l.head = g
	}
	l.tail = g
	l.n++
}

func (l *genList) remove(g *genState) {
	if g.prev != nil {
		g.prev.next = g.next
	} else {
		l.head = g.next
	}
	if g.next != nil {
		g.next.prev = g.prev
	} else {
		l.tail = g.prev
	}
	g.prev, g.next = nil, nil
	l.n--
}

// sessionStore is the VNF's generation index: the one owner of which
// generations are live. Each session finds its own records through its gens
// map; the index threads every record, recoder and decoder alike, on one
// list in first-arrival order — the paper's generation buffer — bounds it at
// capacity, and accounts the bytes the records and the sessions' pooled
// spares retain.
//
// A record leaves the index in one of four ways: its session releases it
// (delivered at a sink, below the watermark at a relay), its session ends,
// or an admission at capacity retires it as the oldest. A retired record of
// the admitting session is recycled in place; one of another session, whose
// st.mu cannot be taken under the admitting session's, is unlinked and
// accounted at once but queued, and enforceStore tears it down under its
// own st.mu from call sites that hold no session lock (the shard worker loop
// between runs and the synchronous packet path's tail).
//
// The declared acquisition order below is the package contract nclint's
// lockorder analyzer enforces: a shard's pauseMu is outermost, a session's
// mu next, and store.mu innermost — never take an earlier lock while
// holding a later one. These are all the locks the packet path takes.
//
//nc:lockorder vnfShard.pauseMu -> sessionState.mu -> sessionStore.mu
type sessionStore struct {
	capacity int // live records across the VNF (WithBufferCapacity)
	tel      *vnfTelemetry

	mu    sync.Mutex
	live  genList // every live record, oldest first arrival at the head
	bytes int64   // live records plus pooled spares
	// pendHead/pendTail chain the unlinked records awaiting teardown;
	// pending says the chain is non-empty, for enforceStore to read without
	// the lock.
	pendHead, pendTail *genState
	pending            atomic.Bool
	// pubBytes/pubLive are what the gauges were last told; publish adds the
	// difference (the gauges may be shared by every VNF of a registry, so
	// they are moved by deltas, never set).
	pubBytes, pubLive int64
}

// publish moves the session-bytes and live-generations gauges by whatever
// the accounting changed since the last call, and unlocks.
func (s *sessionStore) publish() {
	db, dn := s.bytes-s.pubBytes, int64(s.live.n)-s.pubLive
	s.pubBytes, s.pubLive = s.bytes, int64(s.live.n)
	s.mu.Unlock()
	if db != 0 {
		s.tel.sessBytes.Add(0, db)
	}
	if dn != 0 {
		s.tel.liveGens.Add(0, dn)
	}
}

// admit links a record for a new generation of st and returns it; the caller
// holds st.mu and initialises the coding half. A generation arriving at
// capacity first retires the oldest one. If that victim is st's own it is
// recycled in place: the returned record is the victim, relinked at the back
// and still carrying its old generation and codec for the caller to reset
// (inPlace). A victim of another session goes to the teardown queue, and the
// new generation takes one of st's spares or a fresh record.
func (s *sessionStore) admit(st *sessionState) (g *genState, inPlace bool) {
	s.mu.Lock()
	if s.live.n >= s.capacity {
		if old := s.live.head; old.st == st {
			s.live.remove(old)
			g, inPlace = old, true
		} else {
			s.retire(old)
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
		g.linked.Store(true)
	}
	s.live.pushBack(g)
	s.publish()
	return g, inPlace
}

// unlink takes a live record off the list and the accounting. Callers hold
// s.mu.
func (s *sessionStore) unlink(g *genState) {
	s.live.remove(g)
	s.bytes -= g.st.stateBytes
	g.linked.Store(false)
}

// retire unlinks a live record of another session and queues it for
// teardown. Callers hold s.mu.
func (s *sessionStore) retire(g *genState) {
	s.unlink(g)
	g.pend = nil
	if s.pendTail != nil {
		s.pendTail.pend = g
	} else {
		s.pendHead = g
	}
	s.pendTail = g
	s.pending.Store(true)
}

// removeSession unlinks every record st still owns and its pooled spares
// (EndSession, or a Configure replacing the state): a walk of the session's
// own records, not of the index. Callers hold st.mu.
func (s *sessionStore) removeSession(st *sessionState) {
	s.mu.Lock()
	for _, g := range st.gens {
		if g.linked.Load() {
			s.unlink(g)
		}
	}
	s.bytes -= int64(len(st.spares)) * st.stateBytes
	s.publish()
}

// enforceStore tears down every record another session's admission retired.
// It must be called with no session mutex held: each teardown takes that
// session's st.mu. With nothing queued it takes neither the lock nor the
// clock.
func (v *VNF) enforceStore() {
	if !v.store.pending.Load() {
		return
	}
	v.store.mu.Lock()
	g := v.store.pendHead
	v.store.pendHead, v.store.pendTail = nil, nil
	v.store.pending.Store(false)
	v.store.mu.Unlock()
	for g != nil {
		// The queue owns g until finishRetired pools it, after which its
		// session may relink it: read the chain first.
		next := g.pend
		v.finishRetired(g)
		g = next
	}
}

// SessionStoreStats reports the index's live accounting: tracked generations
// and estimated retained bytes (live coding state plus pooled spares).
func (v *VNF) SessionStoreStats() (generations int, bytes int64) {
	v.store.mu.Lock()
	defer v.store.mu.Unlock()
	return v.store.live.n, v.store.bytes
}

// finishRetired tears down one queued record under its session's mu: forget
// it (unless a late packet already started a fresh record under the same
// generation), recycle it as one of the session's spares, and count the
// retirement.
func (v *VNF) finishRetired(g *genState) {
	st := g.st
	st.mu.Lock()
	gen := g.gen
	if st.gens[gen] == g {
		delete(st.gens, gen)
	}
	v.store.mu.Lock()
	v.store.pool(g, 1)
	v.store.publish()
	st.mu.Unlock()
	v.countRetirement(v.clock.Now().UnixNano(), st, gen)
}

// countRetirement records that an admission at capacity retired gen of st.
func (v *VNF) countRetirement(nowNs int64, st *sessionState, gen ncproto.GenerationID) {
	v.tel.evicted.Inc(0)
	v.tel.rec.Record(nowNs, telemetry.EventGenerationEvict, v.node,
		uint64(st.cfg.ID), uint64(gen), st.stateBytes)
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
// session is closed or already has limit of them. Retirement passes a limit
// of one: the admitting session recycles in place, so a victim's session
// needs at most one record back. The bound is per session and small, so
// thousands of idle sessions cannot pin unbounded arenas. Spares stay on the
// index's byte accounting, so the dataplane_session_bytes gauge reflects
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
// session's finishedSpares in one locked step, as in-place recycling takes
// one. It reports whether the session still owned the record; if not, it was
// retired and the queued teardown has it. Callers hold g.st.mu.
func (s *sessionStore) release(g *genState) bool {
	delete(g.st.gens, g.gen)
	s.mu.Lock()
	owned := g.linked.Load()
	if owned {
		s.unlink(g)
		s.pool(g, finishedSpares)
	}
	s.publish()
	return owned
}
