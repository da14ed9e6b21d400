package dataplane

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ncfn/internal/buffer"
	"ncfn/internal/emunet"
	"ncfn/internal/leakcheck"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
)

// codedWire pre-encodes n coded packets of one generation into wire format.
func codedWire(t testing.TB, params rlnc.Params, sess ncproto.SessionID, gen ncproto.GenerationID, seed int64, n int) [][]byte {
	t.Helper()
	enc, err := rlnc.NewEncoder(params, randomBytes(seed, params.GenerationBytes()), seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		cb := enc.Coded()
		out[i] = (&ncproto.Packet{
			Session: sess, Generation: gen, Coeffs: cb.Coeffs, Payload: cb.Payload,
		}).Encode(nil)
	}
	return out
}

// storeVNF builds an unstarted VNF (serial InjectPacket driving) with a
// session store (none for the zero config), shared registry, and virtual
// clock.
func storeVNF(t testing.TB, cfg SessionStoreConfig, opts ...VNFOption) (*VNF, *telemetry.Registry, *simclock.Virtual) {
	t.Helper()
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	reg := telemetry.NewRegistry()
	clk := simclock.NewVirtual(time.Unix(0, 0))
	opts = append([]VNFOption{WithSeed(7), WithTelemetry(reg), WithClock(clk), WithSessionStore(cfg)}, opts...)
	v := NewVNF(n.Host("v"), opts...)
	t.Cleanup(func() { v.Close() })
	return v, reg, clk
}

// TestSessionBytesGaugeSumsVNFs pins the shared gauge: a relay and a
// receiving endpoint that report into one registry, each with a bounded
// session store, leave dataplane_session_bytes at the sum of what their
// stores account.
func TestSessionBytesGaugeSumsVNFs(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	reg := telemetry.NewRegistry()
	params := smallParams()
	cfg := SessionStoreConfig{MaxGenerations: 256, TTLNanos: time.Minute.Nanoseconds()}
	var sum int64
	for i, role := range []Role{RoleRecoder, RoleDecoder} {
		v := NewVNF(n.Host(fmt.Sprintf("v%d", i)), WithSeed(7), WithTelemetry(reg), WithSessionStore(cfg))
		t.Cleanup(func() { v.Close() })
		if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: role}); err != nil {
			t.Fatal(err)
		}
		// One packet per generation: no generation completes, so each
		// stays live in the store.
		for g := 0; g < 2+i; g++ {
			for _, w := range codedWire(t, params, 1, ncproto.GenerationID(g), int64(60+g), 1) {
				v.InjectPacket(w)
			}
		}
		gens, b := v.SessionStoreStats()
		if gens != 2+i || b == 0 {
			t.Fatalf("%v store: %d generations / %d bytes, want %d / > 0", role, gens, b, 2+i)
		}
		sum += b
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != sum {
		t.Fatalf("shared gauge = %d, the VNFs' stores account %d", got, sum)
	}
}

// TestSessionStoreTTLEviction pins TTL-driven reclamation and its full
// accounting trail: idle generations are evicted on sweep, the session-bytes
// gauge drops back to the pooled-arena baseline, the eviction counter and
// flight recorder carry the events, and ending the session returns the gauge
// to zero.
func TestSessionStoreTTLEviction(t *testing.T) {
	ttl := time.Second
	v, reg, clk := storeVNF(t, SessionStoreConfig{TTLNanos: ttl.Nanoseconds()})
	params := smallParams()
	if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleDecoder}); err != nil {
		t.Fatal(err)
	}
	stateBytes := int64(params.StateBytes())

	const gens = 5
	for g := 0; g < gens; g++ {
		// One packet per generation: decoders stay live, never complete.
		for _, w := range codedWire(t, params, 1, ncproto.GenerationID(g), int64(50+g), 1) {
			v.InjectPacket(w)
		}
	}
	if n, b := v.SessionStoreStats(); n != gens || b != int64(gens)*stateBytes {
		t.Fatalf("before sweep: %d generations / %d bytes, want %d / %d", n, b, gens, gens*int(stateBytes))
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != int64(gens)*stateBytes {
		t.Fatalf("session-bytes gauge = %d, want %d", got, gens*int(stateBytes))
	}

	if got := v.SweepSessions(); got != 0 {
		t.Fatalf("sweep before TTL evicted %d generations, want 0", got)
	}
	clk.Advance(2 * ttl)
	if got := v.SweepSessions(); got != gens {
		t.Fatalf("sweep after TTL evicted %d generations, want %d", got, gens)
	}

	// All live state gone; exactly one decoder arena is pooled for reuse.
	if n, b := v.SessionStoreStats(); n != 0 || b != stateBytes {
		t.Fatalf("after sweep: %d generations / %d bytes, want 0 / %d (pooled arena)", n, b, stateBytes)
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != stateBytes {
		t.Fatalf("session-bytes gauge = %d after sweep, want %d", got, stateBytes)
	}
	if got := reg.Gauge(MetricLiveGenerations, 1).Value(); got != 0 {
		t.Fatalf("live-generations gauge = %d after sweep, want 0", got)
	}
	if got := reg.Counter(MetricGenerationsEvicted, 1).Value(); got != gens {
		t.Fatalf("evicted counter = %d, want %d", got, gens)
	}
	rec := reg.Recorder(FlightRecorderName, telemetry.DefaultRecorderCapacity)
	evs := eventsOf(rec, telemetry.EventGenerationEvict)
	if len(evs) != gens {
		t.Fatalf("generation-evict events = %d, want %d", len(evs), gens)
	}
	for _, e := range evs {
		if e.Value != stateBytes {
			t.Fatalf("evict event released %d bytes, want %d", e.Value, stateBytes)
		}
		if e.Session != 1 {
			t.Fatalf("evict event session = %d, want 1", e.Session)
		}
	}

	// Ending the session releases the pooled free lists too: zero baseline.
	v.EndSession(1)
	if n, b := v.SessionStoreStats(); n != 0 || b != 0 {
		t.Fatalf("after EndSession: %d generations / %d bytes, want 0 / 0", n, b)
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != 0 {
		t.Fatalf("session-bytes gauge = %d after EndSession, want 0", got)
	}
}

// TestSessionStoreLRUCap pins the generation cap: the least recently touched
// generations are evicted first, late packets for them are counted as
// evicted drops, and eviction never resurrects state.
func TestSessionStoreLRUCap(t *testing.T) {
	const cap = 3
	v, reg, _ := storeVNF(t, SessionStoreConfig{MaxGenerations: cap})
	params := smallParams()
	if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleDecoder}); err != nil {
		t.Fatal(err)
	}

	const gens = 8
	wires := make([][][]byte, gens)
	for g := 0; g < gens; g++ {
		wires[g] = codedWire(t, params, 1, ncproto.GenerationID(g), int64(90+g), 2)
		v.InjectPacket(wires[g][0])
	}
	if n, _ := v.SessionStoreStats(); n != cap {
		t.Fatalf("tracked generations = %d, want %d (the cap)", n, cap)
	}
	if got := reg.Counter(MetricGenerationsEvicted, 1).Value(); got != gens-cap {
		t.Fatalf("evicted counter = %d, want %d", got, gens-cap)
	}

	// Generation 0 was the LRU victim; its late packet must be dropped and
	// counted, never resurrected.
	drops := reg.Counter(MetricEvictedDrops, v.workers+1)
	before := drops.Value()
	v.InjectPacket(wires[0][1])
	if got := drops.Value(); got != before+1 {
		t.Fatalf("evicted-drops counter = %d, want %d", got, before+1)
	}
	if n, _ := v.SessionStoreStats(); n != cap {
		t.Fatalf("late packet resurrected state: %d generations tracked, want %d", n, cap)
	}

	// The most recently touched generation is still live: its second packet
	// must be accepted (no evicted-drop).
	v.InjectPacket(wires[gens-1][1])
	if got := drops.Value(); got != before+1 {
		t.Fatalf("live generation miscounted as evicted: drops = %d, want %d", got, before+1)
	}
}

// TestSessionStoreMaxBytes pins the byte cap: live coding state is bounded
// by MaxBytes (plus at most one pooled arena per kind), and the store's own
// accounting agrees with the telemetry gauge.
func TestSessionStoreMaxBytes(t *testing.T) {
	params := smallParams()
	stateBytes := int64(params.StateBytes())
	maxBytes := 3 * stateBytes
	v, reg, _ := storeVNF(t, SessionStoreConfig{MaxBytes: maxBytes})
	if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleDecoder}); err != nil {
		t.Fatal(err)
	}

	const gens = 7
	for g := 0; g < gens; g++ {
		for _, w := range codedWire(t, params, 1, ncproto.GenerationID(g), int64(130+g), 1) {
			v.InjectPacket(w)
		}
	}
	n, b := v.SessionStoreStats()
	if b > maxBytes+stateBytes {
		t.Fatalf("store bytes = %d, want <= %d (cap + one pooled arena)", b, maxBytes+stateBytes)
	}
	if n >= gens {
		t.Fatal("byte cap evicted nothing")
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != b {
		t.Fatalf("gauge (%d) disagrees with store accounting (%d)", got, b)
	}
	if reg.Counter(MetricGenerationsEvicted, 1).Value() == 0 {
		t.Fatal("evicted counter never advanced")
	}
}

// TestSessionStoreGaugeBaselineAfterChurn pins leak-freedom through full
// churn: generations decode and deliver, sessions end, and every byte the
// store accounted comes back off the gauge. Packet-pool accounting and the
// goroutine leak checker guard the same invariant at their layers.
func TestSessionStoreGaugeBaselineAfterChurn(t *testing.T) {
	defer leakcheck.Check(t)
	buffer.SetAccounting(true)
	defer buffer.SetAccounting(false)
	doubleBefore := buffer.DoublePuts()

	v, reg, _ := storeVNF(t, SessionStoreConfig{MaxGenerations: 64})
	params := smallParams()
	const sessions = 8
	for s := 1; s <= sessions; s++ {
		if err := v.Configure(SessionConfig{ID: ncproto.SessionID(s), Params: params, Role: RoleDecoder}); err != nil {
			t.Fatal(err)
		}
	}

	// Full decode churn: every generation completes, so live state drains
	// through the delivery path (decoder recycled to the free list).
	const gens = 6
	k := params.GenerationBlocks
	for g := 0; g < gens; g++ {
		for s := 1; s <= sessions; s++ {
			for _, w := range codedWire(t, params, ncproto.SessionID(s), ncproto.GenerationID(g), int64(1000+g*sessions+s), k+1) {
				v.InjectPacket(w)
			}
		}
	}
	delivered := 0
	for len(v.Deliveries()) > 0 {
		<-v.Deliveries()
		delivered++
	}
	if delivered != sessions*gens {
		t.Fatalf("delivered %d generations, want %d", delivered, sessions*gens)
	}
	if n, b := v.SessionStoreStats(); n != 0 || b != int64(sessions)*int64(params.StateBytes()) {
		t.Fatalf("after churn: %d generations / %d bytes, want 0 live / one pooled arena per session (%d)",
			n, b, sessions*params.StateBytes())
	}

	for s := 1; s <= sessions; s++ {
		v.EndSession(ncproto.SessionID(s))
	}
	if n, b := v.SessionStoreStats(); n != 0 || b != 0 {
		t.Fatalf("after ending all sessions: %d generations / %d bytes, want 0 / 0", n, b)
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != 0 {
		t.Fatalf("session-bytes gauge = %d, want 0", got)
	}
	if got := reg.Gauge(MetricLiveGenerations, 1).Value(); got != 0 {
		t.Fatalf("live-generations gauge = %d, want 0", got)
	}
	if d := buffer.DoublePuts() - doubleBefore; d != 0 {
		t.Fatalf("%d double packet-pool puts during churn", d)
	}
}

// TestSessionStoreDecoderReuseDecodesIdentically pins free-list correctness
// on the decode path: a generation decoded by a recycled decoder must
// deliver exactly the original data.
func TestSessionStoreDecoderReuseDecodesIdentically(t *testing.T) {
	v, _, _ := storeVNF(t, SessionStoreConfig{MaxGenerations: 64})
	params := smallParams()
	if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleDecoder}); err != nil {
		t.Fatal(err)
	}
	k := params.GenerationBlocks
	const gens = 4 // gen 0 uses a fresh decoder; 1..3 recycle through the free list
	want := make([][]byte, gens)
	for g := 0; g < gens; g++ {
		seed := int64(300 + g)
		want[g] = randomBytes(seed, params.GenerationBytes())
		enc, err := rlnc.NewEncoder(params, want[g], seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k+1; i++ {
			cb := enc.Coded()
			v.InjectPacket((&ncproto.Packet{
				Session: 1, Generation: ncproto.GenerationID(g), Coeffs: cb.Coeffs, Payload: cb.Payload,
			}).Encode(nil))
		}
	}
	for g := 0; g < gens; g++ {
		select {
		case d := <-v.Deliveries():
			if !bytes.Equal(d.Data, want[d.Generation]) {
				t.Fatalf("generation %d decoded wrong bytes via recycled decoder", d.Generation)
			}
		default:
			t.Fatalf("generation %d never delivered", g)
		}
	}
}

// TestSessionStoreRecoderReuseEmitsIdentically pins that the session store
// is only a policy on the one generation index: the same packet trace
// through a VNF with the store and one without must emit byte-identical
// packets at every buffer capacity, as FIFO rollover recycles live recoder
// records mid-trace. (The differential against the seed's Track + Contains
// bookkeeping, on random multi-session traces, is
// internal/buffer.TestRelayMatchesReferenceBookkeeping.)
func TestSessionStoreRecoderReuseEmitsIdentically(t *testing.T) {
	params := smallParams()
	trace := func(capacity int, withStore bool) ([]string, [][]byte) {
		conn := newCaptureConn("relay")
		opts := []VNFOption{WithSeed(21), WithBufferCapacity(capacity)}
		if withStore {
			opts = append(opts, WithSessionStore(SessionStoreConfig{MaxGenerations: 1024}))
		}
		v := NewVNF(conn, opts...)
		defer v.Close()
		for s := 1; s <= 2; s++ {
			id := ncproto.SessionID(s)
			if err := v.Configure(SessionConfig{ID: id, Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
				t.Fatal(err)
			}
			v.Table().Set(id, []HopGroup{{Addrs: []string{"sink"}}})
		}
		k := params.GenerationBlocks
		// 12 generations over two sessions against capacities 2, 3 and 8:
		// rollover retires live recoders in place and across sessions.
		for g := 0; g < 12; g++ {
			id := ncproto.SessionID(1 + g%3%2)
			for _, w := range codedWire(t, params, id, ncproto.GenerationID(g), int64(700+g), k+1) {
				v.InjectPacket(w)
			}
		}
		return conn.dsts, conn.pkts
	}
	for _, capacity := range []int{2, 3, 8} {
		plainDst, plainPkt := trace(capacity, false)
		storeDst, storePkt := trace(capacity, true)
		if len(plainDst) == 0 {
			t.Fatal("trace produced no emissions")
		}
		if len(plainDst) != len(storeDst) {
			t.Fatalf("capacity %d: emission count differs: plain %d, store %d", capacity, len(plainDst), len(storeDst))
		}
		for i := range plainDst {
			if plainDst[i] != storeDst[i] || !bytes.Equal(plainPkt[i], storePkt[i]) {
				t.Fatalf("capacity %d: emission %d differs between plain and store runs", capacity, i)
			}
		}
	}
}

// TestSessionStoreReviveAfterEviction pins the revive path: a session whose
// generations were evicted can be reconfigured and decode fresh generations
// (including IDs that were tombstoned before the revive).
func TestSessionStoreReviveAfterEviction(t *testing.T) {
	ttl := time.Second
	v, reg, clk := storeVNF(t, SessionStoreConfig{TTLNanos: ttl.Nanoseconds()})
	params := smallParams()
	cfg := SessionConfig{ID: 1, Params: params, Role: RoleDecoder}
	if err := v.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	v.InjectPacket(codedWire(t, params, 1, 0, 41, 1)[0])
	clk.Advance(2 * ttl)
	if got := v.SweepSessions(); got != 1 {
		t.Fatalf("evicted %d generations, want 1", got)
	}

	// Revive: reconfiguration replaces the state wholesale — tombstones
	// included — so generation 0 decodes cleanly afterwards.
	if err := v.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != 0 {
		t.Fatalf("gauge = %d after revive, want 0", got)
	}
	k := params.GenerationBlocks
	for _, w := range codedWire(t, params, 1, 0, 42, k+1) {
		v.InjectPacket(w)
	}
	select {
	case d := <-v.Deliveries():
		if d.Generation != 0 {
			t.Fatalf("delivered generation %d, want 0", d.Generation)
		}
	default:
		t.Fatal("revived session never decoded generation 0")
	}
}

// FuzzSessionLifecycle drives random interleavings of the session lifecycle
// — traffic, clock advances, sweeps, session end, revive — and requires the
// store's invariants at every step: no panic, non-negative accounting, gauge
// consistent with the store, and a zero baseline after final teardown.
func FuzzSessionLifecycle(f *testing.F) {
	params := smallParams()
	k := params.GenerationBlocks
	const nSessions, nGens = 3, 8
	// Shared read-only packet rings: [session][generation][packet].
	rings := make([][][][]byte, nSessions)
	for s := 0; s < nSessions; s++ {
		rings[s] = make([][][]byte, nGens)
		for g := 0; g < nGens; g++ {
			rings[s][g] = codedWire(f, params, ncproto.SessionID(s+1), ncproto.GenerationID(g),
				int64(5000+s*nGens+g), k+1)
		}
	}

	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{0, 0, 0, 3, 4, 5, 0, 0, 3, 4})
	f.Add(bytes.Repeat([]byte{2, 3, 4}, 40))

	// The invariants belong to the index, not to the store option: every
	// input runs against a bounded store and against the defaults.
	bounded := SessionStoreConfig{
		MaxGenerations: 6,
		TTLNanos:       (2 * time.Second).Nanoseconds(),
		MaxBytes:       12 * int64(params.StateBytes()),
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, cfg := range []SessionStoreConfig{bounded, {}} {
			sessionLifecycle(t, cfg, rings, ops)
		}
	})
}

func sessionLifecycle(t *testing.T, cfg SessionStoreConfig, rings [][][][]byte, ops []byte) {
	params := smallParams()
	nSessions, nGens := len(rings), len(rings[0])
	v, reg, clk := storeVNF(t, cfg)
	for s := 0; s < nSessions; s++ {
		if err := v.Configure(SessionConfig{ID: ncproto.SessionID(s + 1), Params: params, Role: RoleDecoder}); err != nil {
			t.Fatal(err)
		}
	}
	pktIdx := make([]int, nSessions*nGens)
	for i, op := range ops {
		s := i % nSessions
		g := int(op>>4) % nGens
		switch op % 6 {
		case 0, 1, 2: // inject the next packet of (s, g) — may be late for an evicted gen
			ring := rings[s][g]
			idx := pktIdx[s*nGens+g] % len(ring)
			pktIdx[s*nGens+g]++
			v.InjectPacket(ring[idx])
		case 3:
			clk.Advance(time.Second)
		case 4:
			v.SweepSessions()
		case 5: // end, and on odd rounds revive
			id := ncproto.SessionID(s + 1)
			v.EndSession(id)
			if op&0x40 != 0 {
				if err := v.Configure(SessionConfig{ID: id, Params: params, Role: RoleDecoder}); err != nil {
					t.Fatal(err)
				}
			}
		}
		n, b := v.SessionStoreStats()
		if n < 0 || b < 0 {
			t.Fatalf("op %d: negative accounting: %d generations / %d bytes", i, n, b)
		}
		if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != b {
			t.Fatalf("op %d: gauge (%d) diverged from store accounting (%d)", i, got, b)
		}
		if got := reg.Gauge(MetricLiveGenerations, 1).Value(); got != int64(n) {
			t.Fatalf("op %d: live-generations gauge (%d) diverged from store (%d)", i, got, n)
		}
		live := 0
		for s := 0; s < nSessions; s++ {
			if st, ok := v.SessionStatsFor(ncproto.SessionID(s + 1)); ok {
				live += st.GenerationsActive
			}
		}
		if live != n {
			t.Fatalf("op %d: sessions hold %d live generations, index tracks %d", i, live, n)
		}
	}
	for s := 0; s < nSessions; s++ {
		v.EndSession(ncproto.SessionID(s + 1))
	}
	if n, b := v.SessionStoreStats(); n != 0 || b != 0 {
		t.Fatalf("after teardown: %d generations / %d bytes, want 0 / 0", n, b)
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != 0 {
		t.Fatalf("gauge = %d after teardown, want 0", got)
	}
}

// BenchmarkManySessionPipeline measures the serial packet path with the
// session store enforcing bounds across many concurrent recoder sessions —
// the massive-multi-tenancy configuration the store exists for. The ring
// interleaves sessions so consecutive packets hit different coding states,
// and wraps across generations so retired recoders recycle through the
// free lists continuously.
func BenchmarkManySessionPipeline(b *testing.B) {
	params := smallParams()
	const sessions = 1024
	ring := benchRing(b, params, sessions, 4)
	conn := newBenchConn(nil, 0)
	v := NewVNF(conn, WithSeed(77), WithSessionStore(SessionStoreConfig{
		MaxGenerations: 2 * sessions,
		MaxBytes:       int64(4*sessions) * int64(params.StateBytes()),
	}))
	defer v.Close()
	for s := 1; s <= sessions; s++ {
		id := ncproto.SessionID(s)
		if err := v.Configure(SessionConfig{ID: id, Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
			b.Fatal(err)
		}
		v.Table().Set(id, []HopGroup{{Addrs: []string{"sink"}}})
	}
	b.SetBytes(int64(params.BlockSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.InjectPacket(ring[i%len(ring)])
	}
}
