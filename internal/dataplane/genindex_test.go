package dataplane

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"ncfn/internal/buffer"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/telemetry"
)

// readdress rewrites a wire packet's session and generation in place, so a
// few pre-encoded packets can stand for an endless stream of generations.
func readdress(pkt []byte, sess ncproto.SessionID, gen ncproto.GenerationID) {
	binary.BigEndian.PutUint16(pkt[2:4], uint16(sess))
	binary.BigEndian.PutUint32(pkt[4:8], uint32(gen))
}

// relayVNF builds an unstarted recoder VNF on a capture conn with the given
// sessions, each routed to one sink.
func relayVNF(t testing.TB, sessions int, opts ...VNFOption) (*VNF, *captureConn) {
	t.Helper()
	conn := newCaptureConn("relay")
	v := NewVNF(conn, append([]VNFOption{WithSeed(21)}, opts...)...)
	t.Cleanup(func() { v.Close() })
	for s := 1; s <= sessions; s++ {
		id := ncproto.SessionID(s)
		if err := v.Configure(SessionConfig{ID: id, Params: smallParams(), Role: RoleRecoder, Redundancy: 1}); err != nil {
			t.Fatal(err)
		}
		v.Table().Set(id, []HopGroup{{Addrs: []string{"sink"}}})
	}
	return v, conn
}

func active(t testing.TB, v *VNF, id ncproto.SessionID) int {
	t.Helper()
	st, ok := v.SessionStatsFor(id)
	if !ok {
		t.Fatalf("session %d not configured", id)
	}
	return st.GenerationsActive
}

// TestFIFORetirementLatePacket pins Fig. 5's small-buffer regime: FIFO
// retirement does not tombstone, so a late packet for a retired generation
// starts a fresh record and is forwarded verbatim as that generation's
// first packet — and, being an admission, retires the then-oldest in turn.
func TestFIFORetirementLatePacket(t *testing.T) {
	v, conn := relayVNF(t, 1, WithBufferCapacity(2))
	params := smallParams()
	wires := make([][][]byte, 3)
	for g := range wires {
		wires[g] = codedWire(t, params, 1, ncproto.GenerationID(g), int64(40+g), 3)
		v.InjectPacket(wires[g][0])
		v.InjectPacket(wires[g][1])
	}
	if got := active(t, v, 1); got != 2 {
		t.Fatalf("live generations = %d, want 2 (the capacity)", got)
	}
	if n, b := v.SessionStoreStats(); n != 2 || b != 2*int64(params.StateBytes()) {
		t.Fatalf("index holds %d generations / %d bytes, want 2 / %d", n, b, 2*params.StateBytes())
	}
	evicted := v.Telemetry().Counter(MetricGenerationsEvicted, 1).Value()
	drops := v.Stats().PacketsDropped

	sent := len(conn.pkts)
	v.InjectPacket(wires[0][2]) // generation 0 was retired when 2 arrived
	if len(conn.pkts) != sent+1 || !bytes.Equal(conn.pkts[sent], wires[0][2]) {
		t.Fatal("late packet for a FIFO-retired generation was not forwarded verbatim as a first packet")
	}
	if got := v.Stats().PacketsDropped; got != drops {
		t.Fatalf("late packet was dropped (%d drops, want %d): FIFO retirement must not tombstone", got, drops)
	}
	if got := v.Telemetry().Counter(MetricGenerationsEvicted, 1).Value(); got != evicted {
		t.Fatal("FIFO retirement was counted as an eviction")
	}
	if got := active(t, v, 1); got != 2 {
		t.Fatalf("live generations = %d after the late packet, want 2", got)
	}
	// Generation 1 was the oldest when 0 came back: its next packet is a
	// first packet again.
	sent = len(conn.pkts)
	v.InjectPacket(wires[1][2])
	if len(conn.pkts) != sent+1 || !bytes.Equal(conn.pkts[sent], wires[1][2]) {
		t.Fatal("generation retired by the late admission did not restart")
	}
}

// TestFIFOCrossSessionVictim pins the VNF-wide capacity: a new generation of
// one session retires the oldest generation of another, whose teardown is
// queued (its st.mu cannot be taken under the admitting session's) and
// applied before InjectPacket returns; the victim's record becomes that
// session's pooled spare and is accounted as such.
func TestFIFOCrossSessionVictim(t *testing.T) {
	v, conn := relayVNF(t, 2, WithBufferCapacity(2))
	params := smallParams()
	stateBytes := int64(params.StateBytes())
	a0 := codedWire(t, params, 1, 0, 60, 3)
	a1 := codedWire(t, params, 1, 1, 61, 2)
	b0 := codedWire(t, params, 2, 0, 62, 2)
	v.InjectPacket(a0[0])
	v.InjectPacket(a0[1])
	v.InjectPacket(a1[0])
	v.InjectPacket(b0[0]) // retires (1, 0)
	if a, b := active(t, v, 1), active(t, v, 2); a != 1 || b != 1 {
		t.Fatalf("live generations = %d + %d, want 1 + 1", a, b)
	}
	if n, b := v.SessionStoreStats(); n != 2 || b != 3*stateBytes {
		t.Fatalf("index holds %d generations / %d bytes, want 2 live + 1 pooled spare (%d)", n, b, 3*stateBytes)
	}
	if got := v.Telemetry().Gauge(MetricSessionBytes, 1).Value(); got != 3*stateBytes {
		t.Fatalf("session-bytes gauge = %d, want %d", got, 3*stateBytes)
	}
	// The retired generation's late packet restarts it — on the pooled
	// spare, in place of (1, 1), which is session 1's own oldest.
	sent := len(conn.pkts)
	v.InjectPacket(a0[2])
	if len(conn.pkts) != sent+1 || !bytes.Equal(conn.pkts[sent], a0[2]) {
		t.Fatal("late packet for a cross-session FIFO victim was not forwarded as a first packet")
	}
	v.EndSession(1)
	v.EndSession(2)
	if n, b := v.SessionStoreStats(); n != 0 || b != 0 {
		t.Fatalf("after teardown: %d generations / %d bytes, want 0 / 0", n, b)
	}
	if got := v.Telemetry().Gauge(MetricSessionBytes, 1).Value(); got != 0 {
		t.Fatalf("session-bytes gauge = %d after teardown, want 0", got)
	}
}

// TestFIFOCrossSessionVictimsConcurrent hammers cross-session retirement
// from concurrent injectors on separate shards (run under -race in CI):
// every admission retires some other session's generation while that
// session is itself mid-packet. The capacity must hold and the accounting
// must return to zero.
func TestFIFOCrossSessionVictimsConcurrent(t *testing.T) {
	const sessions, capacity, gens = 4, 3, 300
	v, _ := relayVNF(t, sessions, WithBufferCapacity(capacity), WithWorkers(sessions))
	params := smallParams()
	var wg sync.WaitGroup
	for s := 1; s <= sessions; s++ {
		id := ncproto.SessionID(s)
		pkts := codedWire(t, params, id, 0, int64(id), 3)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; g < gens; g++ {
				for _, p := range pkts {
					readdress(p, id, ncproto.GenerationID(g))
					v.InjectPacket(p)
				}
			}
		}()
	}
	wg.Wait()
	v.SweepSessions()
	live := 0
	for s := 1; s <= sessions; s++ {
		live += active(t, v, ncproto.SessionID(s))
	}
	if n, _ := v.SessionStoreStats(); n != capacity || live != capacity {
		t.Fatalf("index tracks %d generations, sessions hold %d, want %d (the capacity) both", n, live, capacity)
	}
	for s := 1; s <= sessions; s++ {
		v.EndSession(ncproto.SessionID(s))
	}
	if n, b := v.SessionStoreStats(); n != 0 || b != 0 {
		t.Fatalf("after teardown: %d generations / %d bytes, want 0 / 0", n, b)
	}
	if got := v.Telemetry().Gauge(MetricSessionBytes, 1).Value(); got != 0 {
		t.Fatalf("session-bytes gauge = %d after teardown, want 0", got)
	}
}

// TestEndSessionClosesStateForRacingPacket is the regression test for a
// shard that resolved a session's state just before EndSession (or a
// replacing Configure) removed it: the stale state must be marked closed in
// every configuration, session store or not, so the racing packet is dropped
// instead of recoded into dead state.
func TestEndSessionClosesStateForRacingPacket(t *testing.T) {
	for _, replace := range []bool{false, true} {
		v, conn := relayVNF(t, 1)
		params := smallParams()
		wires := codedWire(t, params, 1, 0, 80, 2)
		v.InjectPacket(wires[0])

		v.mu.RLock()
		stale := v.sessions[1] // what a shard mid-processRun still holds
		v.mu.RUnlock()
		if replace {
			if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder}); err != nil {
				t.Fatal(err)
			}
		} else {
			v.EndSession(1)
		}
		sent, drops := len(conn.pkts), v.Stats().PacketsDropped
		hdr, err := ncproto.PeekHeader(wires[1])
		if err != nil {
			t.Fatal(err)
		}
		v.processWith(v.shardFor(1), stale, wires[1], hdr)
		if len(conn.pkts) != sent {
			t.Fatalf("replace=%v: packet racing the teardown was recoded into the dead session state", replace)
		}
		if got := v.Stats().PacketsDropped; got != drops+1 {
			t.Fatalf("replace=%v: racing packet not counted as a drop (%d, want %d)", replace, got, drops+1)
		}
		if n, b := v.SessionStoreStats(); n != 0 || b != 0 {
			t.Fatalf("replace=%v: dead state still accounted: %d generations / %d bytes", replace, n, b)
		}
	}
}

// TestDeliveryOverflowCounted pins the accounting of decoded generations
// the application never collects: once Deliveries is full their bytes are
// thrown away, which must show on its own counter and in the flight
// recorder instead of hiding inside dataplane_generations_decoded.
func TestDeliveryOverflowCounted(t *testing.T) {
	conn := newCaptureConn("sink")
	v := NewVNF(conn)
	defer v.Close()
	params := smallParams()
	if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleDecoder}); err != nil {
		t.Fatal(err)
	}
	k := params.GenerationBlocks
	pkts := codedWire(t, params, 1, 0, 90, k)
	const extra = 3
	total := cap(v.deliveries) + extra
	for g := 0; g < total; g++ {
		for _, p := range pkts {
			readdress(p, 1, ncproto.GenerationID(g))
			v.InjectPacket(p)
		}
	}
	if got := v.Stats().GenerationsDone; got != uint64(total) {
		t.Fatalf("decoded %d generations, want %d", got, total)
	}
	if got := v.Telemetry().Counter(MetricDeliveryOverflow, v.workers+1).Value(); got != extra {
		t.Fatalf("%s = %d, want %d", MetricDeliveryOverflow, got, extra)
	}
	if got := len(v.Deliveries()); got != cap(v.deliveries) {
		t.Fatalf("deliveries channel holds %d, want full (%d)", got, cap(v.deliveries))
	}
	rec := v.Telemetry().Recorder(FlightRecorderName, telemetry.DefaultRecorderCapacity)
	drops := eventsOf(rec, telemetry.EventPacketDrop)
	if len(drops) != extra {
		t.Fatalf("flight recorder holds %d drop events, want %d", len(drops), extra)
	}
	for i, e := range drops {
		if e.Session != 1 || e.Gen != uint64(cap(v.deliveries)+i) || e.Value != int64(params.GenerationBytes()) {
			t.Fatalf("drop event %d = %+v, want session 1, generation %d, %d bytes",
				i, e, cap(v.deliveries)+i, params.GenerationBytes())
		}
	}
}

// steadyRelay is a recoder VNF driven one generation at a time with fresh
// generation IDs forever — the steady state of a relay, which never sees a
// generation complete and retires state only at the buffer capacity.
type steadyRelay struct {
	v    *VNF
	pkts [][]byte
	gen  ncproto.GenerationID
}

func newSteadyRelay(t testing.TB, params rlnc.Params) *steadyRelay {
	t.Helper()
	v := NewVNF(newBenchConn(nil, 0), WithSeed(77), WithWorkers(1))
	t.Cleanup(func() { v.Close() })
	if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
		t.Fatal(err)
	}
	v.Table().Set(1, []HopGroup{{Addrs: []string{"sink"}}})
	r := &steadyRelay{v: v, pkts: codedWire(t, params, 1, 0, 5, params.GenerationBlocks)}
	for i := 0; i < buffer.DefaultCapacity+8; i++ {
		r.generation()
	}
	return r
}

func (r *steadyRelay) generation() {
	for _, p := range r.pkts {
		readdress(p, 1, r.gen)
		r.v.handlePacket(p, "src")
	}
	r.gen++
}

// TestSteadyStateAllocs pins the recycling: past the buffer capacity a relay
// admits every new generation into the record it retires — arena, counters,
// index entry — and allocates nothing; a sink reuses its finished decoder
// and allocates only what the codec does to produce the Data slice it hands
// to the application. Neither depends on WithSessionStore.
func TestSteadyStateAllocs(t *testing.T) {
	relay := newSteadyRelay(t, smallParams())
	if allocs := testing.AllocsPerRun(200, relay.generation); allocs != 0 {
		t.Fatalf("relay past capacity allocated %.2f times per generation, want 0", allocs)
	}
	if n, _ := relay.v.SessionStoreStats(); n != buffer.DefaultCapacity {
		t.Fatalf("relay holds %d live generations, want the buffer capacity %d", n, buffer.DefaultCapacity)
	}

	// The sink's floor is what the codec itself allocates per generation on
	// a reused decoder: the Data slice Generation returns. The VNF must add
	// nothing on top of it.
	params := smallParams()
	pkts := codedWire(t, params, 1, 0, 6, params.GenerationBlocks)
	dec, err := rlnc.NewDecoder(params)
	if err != nil {
		t.Fatal(err)
	}
	var p ncproto.Packet
	codec := testing.AllocsPerRun(200, func() {
		dec.Reset()
		for _, w := range pkts {
			if err := ncproto.DecodeInto(&p, w, params.GenerationBlocks); err != nil {
				t.Fatal(err)
			}
			if _, err := dec.AddBatch([]rlnc.CodedBlock{{Coeffs: p.Coeffs, Payload: p.Payload}}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dec.Generation(); err != nil {
			t.Fatal(err)
		}
	})

	sink := NewVNF(newBenchConn(nil, 0), WithWorkers(1))
	defer sink.Close()
	if err := sink.Configure(SessionConfig{ID: 1, Params: params, Role: RoleDecoder}); err != nil {
		t.Fatal(err)
	}
	gen := ncproto.GenerationID(0)
	generation := func() {
		for _, w := range pkts {
			readdress(w, 1, gen)
			sink.handlePacket(w, "src")
		}
		gen++
		<-sink.Deliveries()
	}
	for i := 0; i < 16; i++ {
		generation()
	}
	if allocs := testing.AllocsPerRun(200, generation); allocs > codec {
		t.Fatalf("sink allocated %.2f times per generation, want at most the codec's own %.2f", allocs, codec)
	}

	// A window of generations in flight finishes in bursts: every member's
	// first packets arrive, then every member's last. Reuse must not depend
	// on completions and admissions taking turns.
	const window = finishedSpares
	burst := func() {
		for _, part := range [][][]byte{pkts[:1], pkts[1:]} {
			for i := 0; i < window; i++ {
				for _, w := range part {
					readdress(w, 1, gen+ncproto.GenerationID(i))
					sink.handlePacket(w, "src")
				}
			}
		}
		gen += window
		for i := 0; i < window; i++ {
			<-sink.Deliveries()
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(50, burst); allocs > window*codec {
		t.Fatalf("sink allocated %.2f times per burst of %d generations, want at most the codec's own %.2f",
			allocs, window, window*codec)
	}
	if n, b := sink.SessionStoreStats(); n != 0 || b != window*int64(params.StateBytes()) {
		t.Fatalf("idle sink holds %d generations / %d bytes, want 0 / %d pooled spares", n, b, window)
	}

	// A relay that follows the watermark gives up in-place FIFO recycling for
	// release, pool and re-admit. Worst case for the pool: the watermark
	// crosses a whole window at once, so its first packet releases eight
	// records before any of the next eight generations is admitted.
	stamped := newSteadyRelay(t, params)
	window8 := func() {
		base := stamped.gen
		for i := 0; i < window; i++ {
			for _, p := range stamped.pkts {
				readdress(p, 1, stamped.gen)
				p[1] = ncproto.DoneFlags(stamped.gen, base)
				stamped.v.handlePacket(p, "src")
			}
			stamped.gen++
		}
	}
	window8() // leaves the 1032 unstamped generations behind
	if allocs := testing.AllocsPerRun(100, window8); allocs != 0 {
		t.Fatalf("relay following the watermark allocated %.2f times per window of %d generations, want 0", allocs, window)
	}
	if n, b := stamped.v.SessionStoreStats(); n != window || b != window*int64(params.StateBytes()) {
		t.Fatalf("relay following the watermark holds %d generations / %d bytes, want the window %d and no idle spares", n, b, window)
	}
	if got := stamped.v.Telemetry().Counter(MetricGenerationsEvicted, 1).Value(); got != 0 {
		t.Fatalf("watermark retirement counted %d evictions", got)
	}
}

// BenchmarkRelaySteadyState times a relay where it actually runs: fresh
// generation IDs forever, measured only once buffer.DefaultCapacity
// generations are live, so every admission retires the oldest generation.
// BenchmarkVNFPipeline cannot see this cost: its ring replays the same
// 8 sessions x 8 generations, never fills the buffer and never admits a
// generation after the first lap — which is how the per-packet scan over
// every live generation (59 us/packet at 1024 live, against 8 us cold) went
// unnoticed behind a 3.8 us guarded figure. ns/op is per packet.
func BenchmarkRelaySteadyState(b *testing.B) {
	for _, k := range []int{4, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			params := rlnc.Params{GenerationBlocks: k, BlockSize: 1460}
			r := newSteadyRelay(b, params)
			b.SetBytes(int64(params.BlockSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				r.generation()
			}
		})
	}
}
