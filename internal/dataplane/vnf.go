package dataplane

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ncfn/internal/buffer"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
)

// Role is a VNF's function for one session (NC_SETTINGS assigns "VNF roles
// (encoder or decoder) associated with different sessions").
type Role int

// Roles.
const (
	// RoleRecoder mixes buffered packets into fresh coded packets.
	RoleRecoder Role = iota + 1
	// RoleDecoder recovers generations and delivers them.
	RoleDecoder
	// RoleForwarder relays packets unchanged.
	RoleForwarder
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleRecoder:
		return "recoder"
	case RoleDecoder:
		return "decoder"
	case RoleForwarder:
		return "forwarder"
	default:
		return "unknown"
	}
}

// SessionConfig is the per-session configuration a VNF receives in its
// NC_SETTINGS message.
type SessionConfig struct {
	ID     ncproto.SessionID
	Params rlnc.Params
	Role   Role
	// Redundancy is the number of extra coded packets emitted per
	// generation beyond the generation size (NC0 = 0, NC1 = 1, NC2 = 2 in
	// Fig. 8/9).
	Redundancy int
	// InPerGen is the number of packets this node expects to receive per
	// generation (its inbound conceptual-flow allocation); zero means the
	// full generation size. Recoders pace their per-hop emission quotas
	// against it.
	InPerGen int
}

// Delivery is one decoded generation handed to the application layer.
type Delivery struct {
	Session    ncproto.SessionID
	Generation ncproto.GenerationID
	Data       []byte
}

// VNF is one network coding function instance.
//
// The packet path is a pipeline (Sec. III-B's "pipelined fashion"): the
// receive goroutine only peeks the fixed header — counting the packet,
// surfacing control ACKs, and hashing the session ID onto one of N worker
// shards — while the GF(2^8) work happens on the shard workers. All packets
// of a session land on the same shard, so per-session ordering is
// preserved while independent sessions recode concurrently.
type VNF struct {
	conn  emunet.PacketConn
	table *ForwardingTable
	seed  int64

	mu       sync.RWMutex
	sessions map[ncproto.SessionID]*sessionState

	// store is the generation index: the one owner of which generations are
	// live. It retires recoder generations FIFO at the buffer capacity,
	// recycles their records and accounts retained memory; WithSessionStore
	// adds LRU/TTL/byte-cap eviction on top.
	store sessionStore

	workers int
	txDepth int
	shards  []*vnfShard

	// reg holds the VNF's instruments (see telemetry.go); tel caches the
	// resolved handles so the hot path never touches the registry's mutex.
	// clock stamps flight-recorder events and latency measurements.
	reg   *telemetry.Registry
	tel   vnfTelemetry
	clock simclock.Clock
	node  string

	deliveries chan Delivery
	acks       chan ncproto.Ack

	// Drain lifecycle (see drain.go). draining flips once on Drain and
	// gates admission of new coding state; quiesced latches when a
	// quiescence sweep finds the pipeline empty; drainStartNs stamps the
	// transition for the drain-duration flight event.
	draining     atomic.Bool
	quiesced     atomic.Bool
	drainStartNs atomic.Int64

	wg        sync.WaitGroup
	closeOnce sync.Once
	done      chan struct{}
}

// pktJob is one datagram in flight from the receive goroutine to a shard
// worker. The buffer came from the packet pool (via conn.Recv); the worker
// recycles it after processing.
type pktJob struct {
	pkt []byte
	hdr ncproto.Header
}

// vnfShard is one worker lane of the data-plane pipeline. Its scratch
// fields are touched only while pauseMu is held (by the shard's worker or a
// synchronous handlePacket caller), so the steady-state packet path reuses
// them without allocating.
type vnfShard struct {
	in chan pktJob
	// inflight counts datagrams handed to this shard and not yet processed:
	// the receive goroutine adds one before queueing, the worker subtracts
	// a run once it is processed. Unlike len(in) it still counts a run the
	// worker has dequeued but not yet taken pauseMu for, so drain's sweep
	// cannot take that run for quiet.
	inflight atomic.Int64

	// idx is the shard's position; counter writes from this shard land on
	// telemetry cell idx+1 (cell 0 belongs to the receive goroutine).
	idx int

	// pauseMu serializes this shard's packet processing against
	// synchronous handlePacket callers and drain's quiescence sweep
	// (forwarding-table updates take the lock-free RCU path and wait on
	// epoch instead). Packet processing only ever holds its own
	// shard's lock, so sessions on other shards keep flowing while one
	// shard is busy. pauseMu is the outermost lock of the declared
	// //nc:lockorder chain in sessionstore.go.
	pauseMu sync.Mutex

	// epoch is the shard's RCU grace-period counter: incremented entering
	// and leaving the processing critical section, so an odd value means
	// "inside". After publishing a new table snapshot, an RCU table update
	// waits until every shard's epoch is even or has changed — at that
	// point no in-flight processing can still be reading the old snapshot.
	epoch atomic.Uint64

	pkt   ncproto.Packet    // decoded view of the in-flight datagram
	wire  []byte            // outgoing wire-format scratch
	hops  []string          // forwarder next-hop scratch
	emDst []string          // emission destinations, parallel to emCB
	emCB  []rlnc.CodedBlock // reusable emission blocks
	jobs  []pktJob          // dequeued run of datagrams (worker batch drain)
	batch []rlnc.CodedBlock // decoder-batch views into the run's buffers

	// txc, when non-nil (WithTxCoalesce over a BatchPacketConn), collects
	// this shard's outgoing packets into per-destination rings flushed via
	// SendBatch — at ring depth or at the end of the processing run.
	// Guarded by pauseMu like the rest of the shard scratch.
	txc *txCoalescer
}

type sessionState struct {
	cfg SessionConfig

	// Per-session wire counters (atomic; read by SessionStats).
	pktsIn  atomic.Uint64
	pktsOut atomic.Uint64
	done    atomic.Uint64

	mu sync.Mutex
	// gens holds the session's live generations, one record each (codec,
	// pacing counters, index links — see genState): the packet path's single
	// per-generation lookup.
	gens map[ncproto.GenerationID]*genState
	// delivered marks generations already handed to the application.
	delivered map[ncproto.GenerationID]bool
	nextSeed  int64

	// evicted tombstones generations whose coding state the session store
	// evicted: late packets for them are counted as drops and never
	// resurrect state. maxGen tracks the newest generation seen, bounding
	// the tombstone set to the reordering window. closed marks a session
	// removed by EndSession (or replaced by Configure) so racing packet
	// processing stops using it. spares are unlinked records kept for the
	// next generations (see sessionStore.pool); stateBytes is the
	// per-generation footprint estimate (rlnc.Params.StateBytes).
	evicted    map[ncproto.GenerationID]bool
	maxGen     ncproto.GenerationID
	closed     bool
	stateBytes int64
	spares     []*genState
	// doneBelow is the retirement watermark a recoder session has learned
	// from the stamps on its arrivals: it holds no record below it, stamps it
	// on what it emits and forwards arrivals below it. It only rises; 0: none.
	doneBelow ncproto.GenerationID
	// hops are the session's forwarding-table groups as of table version
	// hopsVer (see hopGroups); hopsVer starts at a version no table has.
	hops    []HopGroup
	hopsVer uint64
}

// reorderWindow is how far behind a session's newest generation its
// delivered marks, eviction tombstones and stale decoders are kept. Of the
// three, the watermark covers the tombstones at relays: those below doneBelow
// go as it rises (an arrival there is forwarded before any lookup).
const reorderWindow = 4096

// Option configures a VNF.
type VNFOption func(*VNF)

// WithBufferCapacity overrides the generation buffer capacity (Fig. 5's
// sweep parameter): how many recoder generations the VNF keeps live, across
// all sessions, before the oldest by first arrival is retired. The default —
// also selected by a non-positive value — is buffer.DefaultCapacity (1024).
func WithBufferCapacity(generations int) VNFOption {
	return func(v *VNF) {
		if generations <= 0 {
			generations = buffer.DefaultCapacity
		}
		v.store.capacity = generations
	}
}

// WithSeed fixes the VNF's coding randomness for reproducible tests.
func WithSeed(seed int64) VNFOption {
	return func(v *VNF) { v.seed = seed }
}

// WithTxCoalesce batches outgoing coded packets: each shard accumulates
// up to depth packets per destination and flushes them through the conn's
// SendBatch (sendmmsg on linux), amortizing the per-packet syscall. A
// ring also flushes at the end of every processing run, so coalescing
// never delays a packet beyond the burst that produced it. Depth <= 1, or
// a conn without a batch path, disables coalescing and reproduces the
// per-packet send path exactly.
//
// With coalescing on, tx counters are bumped at enqueue rather than at
// syscall success: flush failures follow datagram semantics (dropped, not
// retried), exactly as a kernel would drop on a full device queue.
func WithTxCoalesce(depth int) VNFOption {
	return func(v *VNF) { v.txDepth = depth }
}

// NewVNF constructs a VNF on the given conn. Call Start to begin packet
// processing and Close to stop it.
func NewVNF(conn emunet.PacketConn, opts ...VNFOption) *VNF {
	v := &VNF{
		conn:       conn,
		table:      NewForwardingTable(),
		store:      sessionStore{capacity: buffer.DefaultCapacity, fifo: genList{i: fifoLinks}, lru: genList{i: lruLinks}},
		seed:       1,
		sessions:   make(map[ncproto.SessionID]*sessionState),
		deliveries: make(chan Delivery, 1024),
		acks:       make(chan ncproto.Ack, 1024),
		done:       make(chan struct{}),
		reg:        telemetry.NewRegistry(),
		clock:      simclock.Real{},
	}
	for _, o := range opts {
		o(v)
	}
	if v.workers <= 0 {
		v.workers = runtime.GOMAXPROCS(0)
	}
	if v.workers < 1 {
		v.workers = 1
	}
	v.shards = make([]*vnfShard, v.workers)
	for i := range v.shards {
		v.shards[i] = &vnfShard{
			in:  make(chan pktJob, 256),
			idx: i,
			txc: newTxCoalescer(conn, v.txDepth),
		}
	}
	v.node = conn.LocalAddr()
	v.tel = newVNFTelemetry(v.reg, v.workers)
	v.store.tel = &v.tel
	return v
}

// shardFor maps a session to its pipeline shard. All generations of a
// session hash to the same shard, preserving per-session packet order.
func (v *VNF) shardFor(s ncproto.SessionID) *vnfShard {
	return v.shards[int(s)%len(v.shards)]
}

// Table returns the VNF's forwarding table.
func (v *VNF) Table() *ForwardingTable { return v.table }

// Deliveries returns the channel of decoded generations (decoder role).
func (v *VNF) Deliveries() <-chan Delivery { return v.deliveries }

// Configure installs (or replaces) a session configuration, as NC_SETTINGS
// does on a freshly started VNF.
func (v *VNF) Configure(cfg SessionConfig) error {
	if v.draining.Load() {
		return fmt.Errorf("dataplane: configure session %d: %w", cfg.ID, ErrDraining)
	}
	if err := cfg.Params.Validate(); err != nil {
		return fmt.Errorf("dataplane: configure session %d: %w", cfg.ID, err)
	}
	switch cfg.Role {
	case RoleRecoder, RoleDecoder, RoleForwarder:
	default:
		return fmt.Errorf("dataplane: configure session %d: invalid role %d", cfg.ID, int(cfg.Role))
	}
	v.mu.Lock()
	old := v.sessions[cfg.ID]
	v.sessions[cfg.ID] = &sessionState{
		cfg:        cfg,
		gens:       make(map[ncproto.GenerationID]*genState),
		delivered:  make(map[ncproto.GenerationID]bool),
		nextSeed:   v.seed,
		stateBytes: int64(cfg.Params.StateBytes()),
		hopsVer:    ^uint64(0),
	}
	v.mu.Unlock()
	if old != nil {
		// Reconfiguring an existing session (a revive) replaces its state
		// wholesale; release everything the old state pinned.
		v.retireSessionState(old)
	}
	return nil
}

// EndSession drops a session's configuration and buffered state (sent on
// session termination before NC_VNF_END).
func (v *VNF) EndSession(id ncproto.SessionID) {
	v.mu.Lock()
	st := v.sessions[id]
	delete(v.sessions, id)
	v.mu.Unlock()
	if st != nil {
		v.retireSessionState(st)
	}
	v.table.Delete(id)
}

// retireSessionState drops everything a removed (or replaced) sessionState
// holds in the generation index: its live records and its pooled spares. The
// closed mark stops a shard that still holds the old state from recoding or
// decoding into it afterwards.
func (v *VNF) retireSessionState(st *sessionState) {
	st.mu.Lock()
	st.closed = true
	v.store.removeSession(st)
	st.gens, st.spares = nil, nil
	st.mu.Unlock()
}

// Start launches the pipeline: one receive goroutine plus the shard
// workers. It returns immediately.
func (v *VNF) Start() {
	v.wg.Add(1 + len(v.shards))
	for _, sh := range v.shards {
		go v.worker(sh)
	}
	go v.run()
}

// Close stops the VNF and joins its goroutines.
func (v *VNF) Close() error {
	var err error
	v.closeOnce.Do(func() {
		close(v.done)
		err = v.conn.Close()
		v.wg.Wait()
	})
	return err
}

// dropPkt counts n dropped packets on the given counter cell and leaves a
// flight-recorder trace so post-mortems can see what was being dropped
// when.
func (v *VNF) dropPkt(cell int, sess ncproto.SessionID, gen ncproto.GenerationID, n int) {
	v.tel.drops.Add(cell, uint64(n))
	v.tel.rec.Record(v.clock.Now().UnixNano(), telemetry.EventPacketDrop, v.node,
		uint64(sess), uint64(gen), int64(n))
}

// SessionStats reports one session's counters at this VNF.
type SessionStats struct {
	// PacketsIn counts well-formed data packets received for the session.
	PacketsIn uint64
	// PacketsOut counts recoded emissions (recoder role).
	PacketsOut uint64
	// GenerationsDone counts delivered generations (decoder role).
	GenerationsDone uint64
	// GenerationsActive counts generations with live coding state.
	GenerationsActive int
	// DoneBelow is the retirement watermark a recoder session has learned: a
	// relay stuck at the buffer capacity shows one that stopped moving, or 0.
	DoneBelow ncproto.GenerationID
	Role      Role
}

// SessionStatsFor returns per-session counters, or false if the session is
// not configured on this VNF.
func (v *VNF) SessionStatsFor(id ncproto.SessionID) (SessionStats, bool) {
	v.mu.RLock()
	st := v.sessions[id]
	v.mu.RUnlock()
	if st == nil {
		return SessionStats{}, false
	}
	st.mu.Lock()
	active, doneBelow := len(st.gens), st.doneBelow
	st.mu.Unlock()
	return SessionStats{
		PacketsIn:         st.pktsIn.Load(),
		PacketsOut:        st.pktsOut.Load(),
		GenerationsDone:   st.done.Load(),
		GenerationsActive: active,
		DoneBelow:         doneBelow,
		Role:              st.cfg.Role,
	}, true
}

// SessionIDs lists the sessions configured on this VNF, sorted ascending —
// the live half of a deploy-file reload diff.
func (v *VNF) SessionIDs() []ncproto.SessionID {
	v.mu.RLock()
	ids := make([]ncproto.SessionID, 0, len(v.sessions))
	for id := range v.sessions {
		ids = append(ids, id)
	}
	v.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SessionConfigFor returns a session's live configuration, or false if the
// session is not configured on this VNF.
func (v *VNF) SessionConfigFor(id ncproto.SessionID) (SessionConfig, bool) {
	v.mu.RLock()
	st := v.sessions[id]
	v.mu.RUnlock()
	if st == nil {
		return SessionConfig{}, false
	}
	return st.cfg, true
}

// UpdateTable atomically replaces forwarding entries (nil hop lists delete
// their session).
//
// The new entries are published as one immutable snapshot — packet
// processing never stops — and UpdateTable then waits out an epoch grace
// period: when it returns, every shard has finished any processing that
// could still have been reading the previous snapshot, and every packet
// processed after the return sees the new table.
func (v *VNF) UpdateTable(entries map[ncproto.SessionID][]HopGroup) {
	defer v.tel.tableSwaps.Inc(0)
	v.table.ApplyBatch(entries)
	v.synchronize()
}

// synchronize waits out one RCU grace period: for every shard that is
// inside its processing critical section (odd epoch), spin until the epoch
// changes. Snapshot publication happens-before the epoch loads here, and a
// shard re-reads the table pointer on every lookup, so once each shard has
// left the critical section it was in (or was idle), no reader of the old
// snapshot remains.
func (v *VNF) synchronize() {
	for _, sh := range v.shards {
		e := sh.epoch.Load()
		if e&1 == 0 {
			continue
		}
		for sh.epoch.Load() == e {
			runtime.Gosched()
		}
	}
}

// run is the poll-mode receive loop: peek the fixed header, dispatch to
// the session's shard. No GF math and no full parse happens here.
func (v *VNF) run() {
	defer v.wg.Done()
	// The receive goroutine is the only sender into the shard channels;
	// closing them on exit drains and stops the workers.
	defer func() {
		for _, sh := range v.shards {
			close(sh.in)
		}
	}()
	for {
		pkt, _, err := v.conn.Recv()
		if err != nil {
			if errors.Is(err, emunet.ErrClosed) {
				return
			}
			select {
			case <-v.done:
				return
			default:
				continue
			}
		}
		hdr, ok := v.classify(pkt)
		if !ok {
			buffer.PutPacket(pkt)
			continue
		}
		sh := v.shardFor(hdr.Session)
		sh.inflight.Add(1)
		sh.in <- pktJob{pkt: pkt, hdr: hdr}
	}
}

// drainBatch bounds how many queued datagrams a shard worker dequeues per
// lock acquisition. Under load the queue runs deep, so packets for the same
// generation arrive at the coding layer as one batch under one session-lock
// hold; when traffic is light the worker degenerates to one packet per
// wakeup and adds no latency.
const drainBatch = 32

// worker drains one shard's queue in runs of up to drainBatch datagrams.
// Every recv buffer of a run is owned by the worker from dequeue to
// PutPacket; nothing downstream retains it (coding state is copied into
// recoder/decoder arenas, emissions are encoded into shard scratch, and
// conn.Send copies before returning). Holding the buffers across the whole
// run is what lets decoder batches alias packet payloads in place.
//
//nc:hotpath
func (v *VNF) worker(sh *vnfShard) {
	defer v.wg.Done()
	for {
		job, ok := <-sh.in
		if !ok {
			return
		}
		sh.jobs = append(sh.jobs[:0], job)
	drain:
		for len(sh.jobs) < drainBatch {
			select {
			case j, ok := <-sh.in:
				if !ok {
					break drain
				}
				sh.jobs = append(sh.jobs, j)
			default:
				break drain
			}
		}
		v.tel.batch.Observe(int64(len(sh.jobs)))
		v.tel.queueDepth.Set(sh.idx, int64(len(sh.in)))
		sh.pauseMu.Lock()
		sh.epoch.Add(1) // odd: inside the processing critical section
		v.processRun(sh, sh.jobs)
		if sh.txc != nil {
			// Drain flush: the run is over, nothing more is coming this
			// wakeup, so push out every partially filled ring.
			sh.txc.flush()
		}
		sh.inflight.Add(-int64(len(sh.jobs)))
		sh.epoch.Add(1) // even: quiescent
		sh.pauseMu.Unlock()
		for i := range sh.jobs {
			buffer.PutPacket(sh.jobs[i].pkt)
			sh.jobs[i] = pktJob{}
		}
		// Index eviction and queued teardowns run here, between runs, when
		// this goroutine holds no session or shard lock: victims' st.mu can
		// be taken freely.
		v.enforceStore()
	}
}

// processRun handles one dequeued run of datagrams under the shard lock.
// Consecutive decoder-role packets for the same (session, generation) are
// handed to the decoder as one AddBatch call; everything else takes the
// per-packet path in arrival order, so per-session packet order is
// preserved exactly.
//
//nc:hotpath
func (v *VNF) processRun(sh *vnfShard, jobs []pktJob) {
	for i := 0; i < len(jobs); {
		hdr := jobs[i].hdr
		v.mu.RLock()
		st := v.sessions[hdr.Session]
		v.mu.RUnlock()
		if st == nil {
			v.dropPkt(sh.idx+1, hdr.Session, hdr.Generation, 1)
			i++
			continue
		}
		if st.cfg.Role != RoleDecoder {
			v.processWith(sh, st, jobs[i].pkt, hdr)
			i++
			continue
		}
		run := i + 1
		for run < len(jobs) &&
			jobs[run].hdr.Session == hdr.Session &&
			jobs[run].hdr.Generation == hdr.Generation {
			run++
		}
		k := st.cfg.Params.GenerationBlocks
		sh.batch = sh.batch[:0]
		for _, job := range jobs[i:run] {
			p := &sh.pkt
			if err := ncproto.DecodeInto(p, job.pkt, k); err != nil ||
				len(p.Payload) != st.cfg.Params.BlockSize {
				v.dropPkt(sh.idx+1, hdr.Session, hdr.Generation, 1)
				continue
			}
			st.pktsIn.Add(1)
			// The views stay valid: the run's recv buffers are held until
			// the whole run is processed.
			sh.batch = append(sh.batch, rlnc.CodedBlock{Coeffs: p.Coeffs, Payload: p.Payload})
		}
		v.decodeBatch(sh.idx+1, st, hdr.Session, hdr.Generation, sh.batch)
		i = run
	}
}

// classify does the receive-side share of packet handling: count the
// arrival, peek the fixed header, and surface control ACKs. It reports
// whether the packet needs shard processing.
func (v *VNF) classify(pkt []byte) (ncproto.Header, bool) {
	v.tel.rx.Inc(0)
	hdr, err := ncproto.PeekHeader(pkt)
	if err != nil {
		v.dropPkt(0, 0, 0, 1)
		return hdr, false
	}
	// Control packets (generation ACKs) surface to the application.
	if hdr.Control() {
		select {
		case v.acks <- ncproto.Ack{Session: hdr.Session, Generation: hdr.Generation}:
		default:
		}
		return hdr, false
	}
	return hdr, true
}

// handlePacket processes one datagram synchronously on the caller's
// goroutine — the serial path used before Start (tests, benchmarks) and
// the semantic reference for the pipeline: classify + process on the
// session's shard. The caller keeps ownership of pkt.
func (v *VNF) handlePacket(pkt []byte, _ string) {
	hdr, ok := v.classify(pkt)
	if !ok {
		return
	}
	sh := v.shardFor(hdr.Session)
	sh.pauseMu.Lock()
	sh.epoch.Add(1)
	v.process(sh, pkt, hdr)
	if sh.txc != nil {
		sh.txc.flush()
	}
	sh.epoch.Add(1)
	sh.pauseMu.Unlock()
	v.enforceStore()
}

// InjectPacket processes one datagram synchronously on the caller's
// goroutine, without the receive loop: the entry point for deterministic
// harnesses (the chaostest churn suite drives thousands of sessions through
// it under a virtual clock) and benchmarks. The caller keeps ownership of
// pkt. Concurrent callers are safe — injection serializes on the session's
// shard exactly like piped traffic.
func (v *VNF) InjectPacket(pkt []byte) {
	v.handlePacket(pkt, "")
}

// process runs the session-role work for one datagram on its shard — the
// single-packet semantic reference the batched run path must match.
func (v *VNF) process(sh *vnfShard, pkt []byte, hdr ncproto.Header) {
	v.mu.RLock()
	st := v.sessions[hdr.Session]
	v.mu.RUnlock()
	if st == nil {
		v.dropPkt(sh.idx+1, hdr.Session, hdr.Generation, 1)
		return
	}
	v.processWith(sh, st, pkt, hdr)
}

// processWith runs the role work for one datagram whose session state has
// been resolved. The header has already been validated; the single full
// parse of the packet happens here, into the shard's reusable Packet.
func (v *VNF) processWith(sh *vnfShard, st *sessionState, pkt []byte, hdr ncproto.Header) {
	p := &sh.pkt
	if err := ncproto.DecodeInto(p, pkt, st.cfg.Params.GenerationBlocks); err != nil ||
		len(p.Payload) != st.cfg.Params.BlockSize {
		v.dropPkt(sh.idx+1, hdr.Session, hdr.Generation, 1)
		return
	}
	st.pktsIn.Add(1)

	switch st.cfg.Role {
	case RoleForwarder:
		v.forward(sh, p)
	case RoleRecoder:
		v.recode(sh, st, p, hdr.DoneBelow())
	case RoleDecoder:
		sh.batch = append(sh.batch[:0], rlnc.CodedBlock{Coeffs: p.Coeffs, Payload: p.Payload})
		v.decodeBatch(sh.idx+1, st, p.Session, p.Generation, sh.batch)
	}
}

// forward relays the packet unchanged to all next hops, encoding once into
// the shard's wire scratch.
func (v *VNF) forward(sh *vnfShard, p *ncproto.Packet) {
	sh.hops = v.table.AppendNextHops(sh.hops[:0], p.Session, p.Generation)
	if len(sh.hops) == 0 {
		return
	}
	sh.wire = p.Encode(sh.wire)
	for _, h := range sh.hops {
		if v.sendCoded(sh, h, sh.wire) {
			v.tel.tx.Inc(sh.idx + 1)
			v.tel.forwarded.Inc(sh.idx + 1)
		}
	}
}

// sendCoded transmits one wire-format packet from a shard: straight
// through the conn, or into the shard's tx coalescing ring when batching
// is on. It reports whether the packet was accepted for transmission
// (coalesced packets count at enqueue; their flush follows datagram
// semantics).
func (v *VNF) sendCoded(sh *vnfShard, dst string, wire []byte) bool {
	if sh.txc != nil {
		sh.txc.add(dst, wire)
		return true
	}
	return v.conn.Send(dst, wire) == nil
}

// liveGen resolves gen's live record, refreshing its place in the index. It
// reports evicted for a tombstoned generation — or one an eviction has
// already unlinked and queued for teardown — and a nil record for a
// generation that has none, including one FIFO retirement has queued: its
// late packet starts a fresh record. Callers hold st.mu.
func (v *VNF) liveGen(st *sessionState, gen ncproto.GenerationID, nowNs int64) (g *genState, evicted bool) {
	if st.evicted[gen] {
		return nil, true
	}
	if gen > st.maxGen {
		st.maxGen = gen
	}
	if g = st.gens[gen]; g == nil {
		return nil, false
	}
	switch v.store.touch(g, nowNs) {
	case genLinked:
		return g, false
	case genEvicted:
		return nil, true
	}
	return nil, false
}

// admitGen starts gen's record: linked into the index (retiring the oldest
// recoder generation at capacity) with a codec that is fresh, the session's
// reset spare, or — recycled in place — the retired generation's own.
// Callers hold st.mu.
func (v *VNF) admitGen(st *sessionState, gen ncproto.GenerationID, nowNs int64) (*genState, error) {
	g, inPlace := v.store.admit(st, nowNs)
	if inPlace {
		delete(st.gens, g.gen)
	}
	g.gen, g.received, g.started = gen, 0, nowNs
	var err error
	switch {
	case st.cfg.Role == RoleDecoder:
		if g.dec == nil {
			g.dec, err = rlnc.NewDecoder(st.cfg.Params)
		}
	case g.rec == nil:
		g.rec, err = rlnc.NewRecoder(st.cfg.Params, st.nextSeed)
	default:
		// Reset is pinned bit-identical to NewRecoder(params, seed), so
		// recycling never changes emitted packets.
		g.rec.Reset(st.nextSeed)
	}
	if err != nil {
		v.store.release(g) // pooled without a codec; the next admission builds one
		return nil, err
	}
	if g.rec != nil {
		st.nextSeed++
	}
	clear(g.emitted)
	st.gens[gen] = g
	return g, nil
}

// releaseBelow releases every live record of st below floor (pooled, not
// freed) with the tombstones and delivered marks down there, and returns how
// many records the session still owned. It walks the ids up from doneBelow,
// under which a relay holds nothing, unless the live set is the shorter walk:
// a watermark mostly rises by one, a forged one by 2^32. Callers hold st.mu.
func (v *VNF) releaseBelow(st *sessionState, floor ncproto.GenerationID) (n uint64) {
	if uint64(floor-st.doneBelow) <= uint64(len(st.gens)) {
		for gen := st.doneBelow; gen < floor; gen++ {
			if g := st.gens[gen]; g != nil && v.store.release(g) {
				n++
			}
		}
	} else {
		for gen, g := range st.gens {
			if gen < floor && v.store.release(g) {
				n++
			}
		}
	}
	for gen := range st.evicted {
		if gen < floor {
			delete(st.evicted, gen)
		}
	}
	for gen := range st.delivered {
		if gen < floor {
			delete(st.delivered, gen)
		}
	}
	return n
}

// hopGroups returns st's next-hop groups, re-read from the forwarding table
// only when an update has been published since the last read, so the packet
// path does no table lookup. The groups belong to the table snapshot and are
// never mutated. Callers hold st.mu.
func (v *VNF) hopGroups(st *sessionState) []HopGroup {
	// The version is read first: a snapshot published in between is cached
	// under the older version and re-read on the next packet.
	if ver := v.table.Version(); ver != st.hopsVer {
		st.hops, st.hopsVer = v.table.load()[st.cfg.ID], ver
	}
	return st.hops
}

// recode implements the pipelined intermediate VNF of Sec. III-B2. done is
// the retirement watermark stamped on the arrival, zero for none.
func (v *VNF) recode(sh *vnfShard, st *sessionState, p *ncproto.Packet, done ncproto.GenerationID) {
	cb := rlnc.CodedBlock{Coeffs: p.Coeffs, Payload: p.Payload}
	nowNs := v.clock.Now().UnixNano()

	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		v.dropPkt(sh.idx+1, p.Session, p.Generation, 1)
		return
	}
	if done > st.doneBelow {
		v.tel.retired.Add(sh.idx+1, v.releaseBelow(st, done))
		st.doneBelow = done
	}
	doneBelow := st.doneBelow
	if p.Generation < doneBelow {
		// Every receiver the source knows has this generation: no state for
		// it. One it has not heard from, or the victim of a forged stamp, may
		// still need the packet: forwarded, never dropped.
		st.mu.Unlock()
		v.tel.lateForwards.Inc(sh.idx + 1)
		v.forward(sh, p)
		return
	}
	g, evicted := v.liveGen(st, p.Generation, nowNs)
	if evicted {
		// Late packet for an evicted generation: count it and drop it; the
		// state machine never resurrects evicted coding state.
		st.mu.Unlock()
		v.tel.evictedDrops.Inc(sh.idx + 1)
		v.dropPkt(sh.idx+1, p.Session, p.Generation, 1)
		return
	}
	if g == nil {
		if v.draining.Load() {
			// Drain admission gate: recoding this packet would create
			// coding state for a new generation. Refuse it so the drain
			// converges; in-flight generations above keep flushing.
			st.mu.Unlock()
			v.refuseDrainAdmission(sh.idx+1, p.Session, p.Generation, 1)
			return
		}
		var err error
		if g, err = v.admitGen(st, p.Generation, nowNs); err != nil {
			st.mu.Unlock()
			v.dropPkt(sh.idx+1, p.Session, p.Generation, 1)
			return
		}
	}
	rec := g.rec
	uselessBefore := rec.Useless()
	if err := rec.Add(cb); err != nil {
		st.mu.Unlock()
		v.dropPkt(sh.idx+1, p.Session, p.Generation, 1)
		return
	}
	if rec.Useless() > uselessBefore {
		// The coefficient gate dropped the arrival as linearly dependent:
		// it consumed upstream capacity without adding information.
		v.tel.dependent(st.cfg.Params.Field).Inc(sh.idx + 1)
	}

	g.received++
	n := g.received
	k := st.cfg.Params.GenerationBlocks
	inPerGen := st.cfg.InPerGen
	if inPerGen <= 0 {
		inPerGen = k
	}
	def := k + st.cfg.Redundancy

	groups := v.hopGroups(st)
	if len(groups) == 0 {
		st.mu.Unlock()
		return
	}
	if len(g.emitted) != len(groups) {
		// First packet of a fresh record, or the table changed shape
		// (controller update): restart pacing state.
		g.emitted = make([]int, len(groups))
	}
	counters := g.emitted

	// Pipelined per-hop emission: packets are emitted immediately as
	// arrivals come in, paced so a full generation's worth of arrivals
	// produces exactly quota_h packets on hop h.
	//
	// The pacing schedule depends on whether the hop compresses or
	// amplifies the flow. A compressing hop (quota < inbound — a merge
	// node like T in the butterfly, which folds two branches into one
	// link) must back-load its emissions: an early emission could only mix
	// packets of whichever branch happened to arrive first and would carry
	// no innovation for the receiver behind that branch. An amplifying or
	// neutral hop emits proportionally, i.e. on every arrival.
	//
	// Emissions are built into the shard's reusable blocks (sh.emCB grows
	// to the high-water mark and is then recycled), so the steady state
	// allocates nothing.
	sh.emDst = sh.emDst[:0]
	nem := 0
	firstUsed := false
	for gi, h := range groups {
		dst := h.Pick(p.Session, p.Generation)
		if dst == "" {
			continue
		}
		quota := h.quota(def)
		var target int
		if quota <= inPerGen {
			target = n - (inPerGen - quota)
			if target < 0 {
				target = 0
			}
		} else {
			target = n * quota / inPerGen
		}
		if target > counters[gi] {
			for i := counters[gi]; i < target; i++ {
				if nem == len(sh.emCB) {
					sh.emCB = append(sh.emCB, rlnc.CodedBlock{})
				}
				out := &sh.emCB[nem]
				if n == 1 && !firstUsed {
					// First packet of its generation: forward as-is
					// (Sec. III-B2).
					firstUsed = true
					out.Coeffs = append(out.Coeffs[:0], cb.Coeffs...)
					out.Payload = append(out.Payload[:0], cb.Payload...)
				} else if !rec.RecodeInto(out) {
					continue
				}
				sh.emDst = append(sh.emDst, dst)
				nem++
			}
			counters[gi] = target
		}
	}
	st.mu.Unlock()

	for i := 0; i < nem; i++ {
		outPkt := ncproto.Packet{
			Flags:      ncproto.DoneFlags(p.Generation, doneBelow),
			Session:    p.Session,
			Generation: p.Generation,
			Coeffs:     sh.emCB[i].Coeffs,
			Payload:    sh.emCB[i].Payload,
		}
		sh.wire = outPkt.Encode(sh.wire)
		if v.sendCoded(sh, sh.emDst[i], sh.wire) {
			v.tel.tx.Inc(sh.idx + 1)
			v.tel.recoded.Inc(sh.idx + 1)
			st.pktsOut.Add(1)
		}
	}
}

// decodeBatch implements the receiver-side function for a run of packets
// belonging to one generation. A single-element batch reproduces the old
// per-packet decode exactly; deeper batches amortize lock traffic over one
// Decoder.AddBatch.
func (v *VNF) decodeBatch(cell int, st *sessionState, sess ncproto.SessionID, gen ncproto.GenerationID, batch []rlnc.CodedBlock) {
	if len(batch) == 0 {
		return
	}
	nowNs := v.clock.Now().UnixNano()
	st.mu.Lock()
	if st.delivered[gen] {
		st.mu.Unlock()
		return
	}
	if st.closed {
		st.mu.Unlock()
		v.dropPkt(cell, sess, gen, len(batch))
		return
	}
	g, evicted := v.liveGen(st, gen, nowNs)
	if evicted {
		// Late packets for an evicted generation: counted as drops, never
		// resurrected.
		st.mu.Unlock()
		v.tel.evictedDrops.Add(cell, uint64(len(batch)))
		v.dropPkt(cell, sess, gen, len(batch))
		return
	}
	if g == nil {
		if v.draining.Load() {
			// Drain admission gate (see recode): no new per-generation
			// decoder state while draining.
			st.mu.Unlock()
			v.refuseDrainAdmission(cell, sess, gen, len(batch))
			return
		}
		var err error
		if g, err = v.admitGen(st, gen, nowNs); err != nil {
			st.mu.Unlock()
			v.dropPkt(cell, sess, gen, len(batch))
			return
		}
	}
	dec := g.dec
	innovative, err := dec.AddBatch(batch)
	if err != nil {
		st.mu.Unlock()
		v.dropPkt(cell, sess, gen, len(batch))
		return
	}
	if dep := len(batch) - innovative; dep > 0 {
		v.tel.dependent(st.cfg.Params.Field).Add(cell, uint64(dep))
	}
	if innovative > 0 {
		v.tel.rec.Record(nowNs, telemetry.EventRankAdvance, v.node,
			uint64(sess), uint64(gen), int64(dec.Rank()))
	}
	complete := dec.Complete()
	var data []byte
	if complete {
		data, err = dec.Generation()
	}
	if !complete || err != nil {
		st.mu.Unlock()
		return
	}
	st.delivered[gen] = true
	startNs := g.started
	v.store.release(g)
	// Prune stale decoder state: generations far behind the newest one
	// will never complete (their packets are gone), and the delivered set
	// only needs to cover the reordering window.
	if (len(st.delivered) > 2*reorderWindow || len(st.gens) > 2*reorderWindow) && gen > reorderWindow {
		v.releaseBelow(st, gen-reorderWindow)
	}
	st.mu.Unlock()

	doneNs := v.clock.Now().UnixNano()
	latency := doneNs - startNs
	v.tel.decodeNs.Observe(latency)
	v.tel.rec.Record(doneNs, telemetry.EventGenerationDecode, v.node,
		uint64(sess), uint64(gen), latency)
	v.tel.gens.Inc(cell)
	st.done.Add(1)
	select {
	case v.deliveries <- Delivery{Session: sess, Generation: gen, Data: data}:
	default:
		// The application is not draining Deliveries: the decoded bytes are
		// thrown away. The generation stays marked delivered (a resend would
		// meet the same full channel), so say so where an operator looks.
		v.tel.overflow.Inc(cell)
		v.tel.rec.Record(doneNs, telemetry.EventPacketDrop, v.node,
			uint64(sess), uint64(gen), int64(len(data)))
	}
}
