package dataplane

import (
	"bytes"
	"fmt"
	"sync/atomic"
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
// shared registry and a virtual clock.
func storeVNF(t testing.TB, opts ...VNFOption) (*VNF, *telemetry.Registry, *simclock.Virtual) {
	t.Helper()
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	reg := telemetry.NewRegistry()
	clk := simclock.NewVirtual(time.Unix(0, 0))
	opts = append([]VNFOption{WithSeed(7), WithTelemetry(reg), WithClock(clk)}, opts...)
	v := NewVNF(n.Host("v"), opts...)
	t.Cleanup(func() { v.Close() })
	return v, reg, clk
}

// TestSessionBytesGaugeSumsVNFs pins the shared gauge: a relay and a
// receiving endpoint that report into one registry leave
// dataplane_session_bytes at the sum of what their indexes account.
func TestSessionBytesGaugeSumsVNFs(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	reg := telemetry.NewRegistry()
	params := smallParams()
	var sum int64
	for i, role := range []Role{RoleRecoder, RoleDecoder} {
		v := NewVNF(n.Host(fmt.Sprintf("v%d", i)), WithSeed(7), WithTelemetry(reg), WithBufferCapacity(256))
		t.Cleanup(func() { v.Close() })
		if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: role}); err != nil {
			t.Fatal(err)
		}
		// One packet per generation: no generation completes, so each
		// stays live in the index.
		for g := 0; g < 2+i; g++ {
			for _, w := range codedWire(t, params, 1, ncproto.GenerationID(g), int64(60+g), 1) {
				v.InjectPacket(w)
			}
		}
		gens, b := v.SessionStoreStats()
		if gens != 2+i || b == 0 {
			t.Fatalf("%v index: %d generations / %d bytes, want %d / > 0", role, gens, b, 2+i)
		}
		sum += b
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != sum {
		t.Fatalf("shared gauge = %d, the VNFs' indexes account %d", got, sum)
	}
}

// TestCapacityRetirementAccounting pins the accounting trail of the one
// bound: every generation an admission at capacity retires — the admitting
// session's own, recycled in place, or another session's, torn down before
// InjectPacket returns — bumps dataplane_generations_evicted and leaves an
// EventGenerationEvict naming it, the gauges follow the index, and ending
// the sessions returns them to zero.
func TestCapacityRetirementAccounting(t *testing.T) {
	const capacity = 3
	v, reg, _ := storeVNF(t, WithBufferCapacity(capacity))
	params := smallParams()
	for id := ncproto.SessionID(1); id <= 2; id++ {
		if err := v.Configure(SessionConfig{ID: id, Params: params, Role: RoleDecoder}); err != nil {
			t.Fatal(err)
		}
	}
	stateBytes := int64(params.StateBytes())
	evicted := reg.Counter(MetricGenerationsEvicted, 1)

	// One packet per generation: decoders stay live, never complete.
	const gens = 5
	for g := 0; g < gens; g++ {
		v.InjectPacket(codedWire(t, params, 1, ncproto.GenerationID(g), int64(50+g), 1)[0])
	}
	if n, b := v.SessionStoreStats(); n != capacity || b != capacity*stateBytes {
		t.Fatalf("in-place recycling: %d generations / %d bytes, want %d / %d", n, b, capacity, capacity*stateBytes)
	}
	if got := evicted.Value(); got != gens-capacity {
		t.Fatalf("evicted counter = %d after in-place recycling, want %d", got, gens-capacity)
	}

	// Session 2's first generation retires session 1's oldest (generation
	// 2), which session 1 keeps as its one spare.
	v.InjectPacket(codedWire(t, params, 2, 0, 70, 1)[0])
	if n, b := v.SessionStoreStats(); n != capacity || b != (capacity+1)*stateBytes {
		t.Fatalf("cross-session retirement: %d generations / %d bytes, want %d live + 1 spare (%d)",
			n, b, capacity, (capacity+1)*stateBytes)
	}
	if a, b := active(t, v, 1), active(t, v, 2); a != 2 || b != 1 {
		t.Fatalf("sessions hold %d + %d generations, want 2 + 1", a, b)
	}
	if got := evicted.Value(); got != gens-capacity+1 {
		t.Fatalf("evicted counter = %d, want %d", got, gens-capacity+1)
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != (capacity+1)*stateBytes {
		t.Fatalf("session-bytes gauge = %d, want %d", got, (capacity+1)*stateBytes)
	}
	if got := reg.Gauge(MetricLiveGenerations, 1).Value(); got != capacity {
		t.Fatalf("live-generations gauge = %d, want %d", got, capacity)
	}
	rec := reg.Recorder(FlightRecorderName, telemetry.DefaultRecorderCapacity)
	evs := eventsOf(rec, telemetry.EventGenerationEvict)
	if len(evs) != gens-capacity+1 {
		t.Fatalf("generation-evict events = %d, want %d", len(evs), gens-capacity+1)
	}
	for i, e := range evs {
		if e.Session != 1 || e.Gen != uint64(i) || e.Value != stateBytes {
			t.Fatalf("evict event %d = %+v, want session 1, generation %d, %d bytes", i, e, i, stateBytes)
		}
	}

	v.EndSession(1)
	v.EndSession(2)
	if n, b := v.SessionStoreStats(); n != 0 || b != 0 {
		t.Fatalf("after EndSession: %d generations / %d bytes, want 0 / 0", n, b)
	}
	if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != 0 {
		t.Fatalf("session-bytes gauge = %d after EndSession, want 0", got)
	}
}

// TestSessionStoreDecoderCap pins decoders on the capacity: the oldest by
// first arrival is retired and counted, and a late packet for a retired
// generation starts a fresh record — on a reset decoder, so enough of them
// still decode the generation exactly.
func TestSessionStoreDecoderCap(t *testing.T) {
	const capacity = 3
	v, reg, _ := storeVNF(t, WithBufferCapacity(capacity))
	params := smallParams()
	if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleDecoder}); err != nil {
		t.Fatal(err)
	}
	k := params.GenerationBlocks
	const gens = 8
	want := make([][]byte, gens)
	wires := make([][][]byte, gens)
	for g := 0; g < gens; g++ {
		seed := int64(90 + g)
		want[g] = randomBytes(seed, params.GenerationBytes())
		wires[g] = codedWire(t, params, 1, ncproto.GenerationID(g), seed, k+2)
		v.InjectPacket(wires[g][0])
	}
	if n, _ := v.SessionStoreStats(); n != capacity {
		t.Fatalf("tracked generations = %d, want %d (the capacity)", n, capacity)
	}
	evicted := reg.Counter(MetricGenerationsEvicted, 1)
	if got := evicted.Value(); got != gens-capacity {
		t.Fatalf("evicted counter = %d, want %d", got, gens-capacity)
	}

	// Generation 0 went first. Its late packets are admitted, not dropped:
	// the first retires generation 5, the oldest live one, and the rest
	// complete the generation from scratch.
	drops := v.Stats().PacketsDropped
	for _, w := range wires[0][1:] {
		v.InjectPacket(w)
	}
	if got := v.Stats().PacketsDropped; got != drops {
		t.Fatalf("late packets for a retired generation dropped %d, want 0", got-drops)
	}
	if got := evicted.Value(); got != gens-capacity+1 {
		t.Fatalf("evicted counter = %d after the late admission, want %d", got, gens-capacity+1)
	}
	select {
	case d := <-v.Deliveries():
		if d.Generation != 0 || !bytes.Equal(d.Data, want[0]) {
			t.Fatalf("delivered generation %d, want generation 0's bytes", d.Generation)
		}
	default:
		t.Fatal("the retired generation never decoded from its late packets")
	}
	if n, _ := v.SessionStoreStats(); n != capacity-1 {
		t.Fatalf("tracked generations = %d after the delivery, want %d", n, capacity-1)
	}
}

// TestSinkMemoryBounded is the hostile-peer case for a sink built with no
// options: a stream of generations that never complete — one packet each —
// must not grow its coding state past the buffer capacity, however long it
// runs.
func TestSinkMemoryBounded(t *testing.T) {
	reg := telemetry.NewRegistry()
	v := NewVNF(newCaptureConn("sink"), WithTelemetry(reg))
	defer v.Close()
	params := smallParams()
	if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleDecoder}); err != nil {
		t.Fatal(err)
	}
	bound := int64(buffer.DefaultCapacity+finishedSpares) * int64(params.StateBytes())
	gauge := reg.Gauge(MetricSessionBytes, 1)
	pkt := codedWire(t, params, 1, 0, 130, 1)[0]
	const gens = 5000
	for g := 0; g < gens; g++ {
		readdress(pkt, 1, ncproto.GenerationID(g))
		v.InjectPacket(pkt)
		n, _ := v.SessionStoreStats()
		if n > buffer.DefaultCapacity {
			t.Fatalf("after %d generations the sink holds %d live, want at most the capacity %d", g+1, n, buffer.DefaultCapacity)
		}
		if b := gauge.Value(); b > bound {
			t.Fatalf("after %d generations %s = %d, want at most (capacity + %d spares) x %d = %d",
				g+1, MetricSessionBytes, b, finishedSpares, params.StateBytes(), bound)
		}
	}
	if got := reg.Counter(MetricGenerationsEvicted, 1).Value(); got != gens-buffer.DefaultCapacity {
		t.Fatalf("evicted counter = %d, want %d", got, gens-buffer.DefaultCapacity)
	}
}

// countingClock counts the reads of a virtual clock.
type countingClock struct {
	*simclock.Virtual
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Virtual.Now()
}

// TestRecodeReadsClockPerAdmission pins the relay's clock reads to one per
// admitted generation, at and below the capacity: the packets that join a
// live generation read no clock.
func TestRecodeReadsClockPerAdmission(t *testing.T) {
	params := smallParams()
	k := params.GenerationBlocks
	for _, capacity := range []int{2, buffer.DefaultCapacity} {
		clk := &countingClock{Virtual: simclock.NewVirtual(time.Unix(0, 0))}
		v, _ := relayVNF(t, 1, WithBufferCapacity(capacity), WithClock(clk))
		clk.reads.Store(0)
		const gens = 6
		for g := 0; g < gens; g++ {
			for _, w := range codedWire(t, params, 1, ncproto.GenerationID(g), int64(400+g), k+1) {
				v.InjectPacket(w)
			}
		}
		if got := clk.reads.Load(); got != gens {
			t.Fatalf("capacity %d: %d clock reads for %d generations of %d packets, want one per admission",
				capacity, got, gens, k+1)
		}
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

	v, reg, _ := storeVNF(t, WithBufferCapacity(64))
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
	v, _, _ := storeVNF(t, WithBufferCapacity(64))
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

// TestSessionStoreRecoderReuseEmitsIdentically pins that recycling never
// changes an emitted byte: the same packet trace through a relay whose
// capacity recycles live recoder records mid-trace — in place and across
// sessions — and through one that never reaches its capacity must emit
// byte-identical packets. (The differential against the seed's Track +
// Contains bookkeeping, on random multi-session traces, is
// internal/buffer.TestRelayMatchesReferenceBookkeeping.)
func TestSessionStoreRecoderReuseEmitsIdentically(t *testing.T) {
	params := smallParams()
	trace := func(capacity int) ([]string, [][]byte) {
		conn := newCaptureConn("relay")
		v := NewVNF(conn, WithSeed(21), WithBufferCapacity(capacity))
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
	freshDst, freshPkt := trace(buffer.DefaultCapacity)
	if len(freshDst) == 0 {
		t.Fatal("trace produced no emissions")
	}
	for _, capacity := range []int{2, 3, 8} {
		dst, pkt := trace(capacity)
		if len(dst) != len(freshDst) {
			t.Fatalf("capacity %d: %d emissions, %d without recycling", capacity, len(dst), len(freshDst))
		}
		for i := range dst {
			if dst[i] != freshDst[i] || !bytes.Equal(pkt[i], freshPkt[i]) {
				t.Fatalf("capacity %d: emission %d differs from the run without recycling", capacity, i)
			}
		}
	}
}

// TestSessionStoreReviveAfterEviction pins the revive path: a session whose
// generation was retired at the capacity can be reconfigured and decode
// fresh generations, the retired one included.
func TestSessionStoreReviveAfterEviction(t *testing.T) {
	v, reg, _ := storeVNF(t, WithBufferCapacity(1))
	params := smallParams()
	cfg := SessionConfig{ID: 1, Params: params, Role: RoleDecoder}
	if err := v.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	v.InjectPacket(codedWire(t, params, 1, 0, 41, 1)[0])
	v.InjectPacket(codedWire(t, params, 1, 1, 43, 1)[0])
	if got := reg.Counter(MetricGenerationsEvicted, 1).Value(); got != 1 {
		t.Fatalf("evicted %d generations, want 1", got)
	}

	// Revive: reconfiguration replaces the state wholesale, so generation 0
	// decodes cleanly afterwards.
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
// — traffic past the capacity, session end, revive — and requires the
// index's invariants at every step: no panic, live records within the
// capacity, non-negative accounting, gauges consistent with the index, and
// a zero baseline after final teardown.
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

	f.Fuzz(func(t *testing.T, ops []byte) {
		sessionLifecycle(t, rings, ops)
	})
}

func sessionLifecycle(t *testing.T, rings [][][][]byte, ops []byte) {
	const capacity = 6
	params := smallParams()
	nSessions, nGens := len(rings), len(rings[0])
	v, reg, _ := storeVNF(t, WithBufferCapacity(capacity))
	for s := 0; s < nSessions; s++ {
		if err := v.Configure(SessionConfig{ID: ncproto.SessionID(s + 1), Params: params, Role: RoleDecoder}); err != nil {
			t.Fatal(err)
		}
	}
	pktIdx := make([]int, nSessions*nGens)
	for i, op := range ops {
		s := i % nSessions
		g := int(op>>4) % nGens
		if op%4 != 3 { // inject the next packet of (s, g) — may be late for a retired gen
			ring := rings[s][g]
			idx := pktIdx[s*nGens+g] % len(ring)
			pktIdx[s*nGens+g]++
			v.InjectPacket(ring[idx])
		} else { // end, and on odd rounds revive
			id := ncproto.SessionID(s + 1)
			v.EndSession(id)
			if op&0x40 != 0 {
				if err := v.Configure(SessionConfig{ID: id, Params: params, Role: RoleDecoder}); err != nil {
					t.Fatal(err)
				}
			}
		}
		n, b := v.SessionStoreStats()
		if n < 0 || n > capacity || b < 0 {
			t.Fatalf("op %d: %d generations / %d bytes, capacity %d", i, n, b, capacity)
		}
		if got := reg.Gauge(MetricSessionBytes, 1).Value(); got != b {
			t.Fatalf("op %d: gauge (%d) diverged from index accounting (%d)", i, got, b)
		}
		if got := reg.Gauge(MetricLiveGenerations, 1).Value(); got != int64(n) {
			t.Fatalf("op %d: live-generations gauge (%d) diverged from index (%d)", i, got, n)
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
// buffer capacity bounding many concurrent recoder sessions — the
// massive-multi-tenancy configuration. The ring
// interleaves sessions so consecutive packets hit different coding states,
// and wraps across generations so retired recoders recycle through the
// free lists continuously.
func BenchmarkManySessionPipeline(b *testing.B) {
	params := smallParams()
	const sessions = 1024
	ring := benchRing(b, params, sessions, 4)
	conn := newBenchConn(nil, 0)
	v := NewVNF(conn, WithSeed(77), WithBufferCapacity(2*sessions))
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
