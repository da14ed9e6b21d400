package dataplane

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
)

// stamp rewrites a wire packet's generation and stamps it with the watermark
// done, as a source's emit would.
func stamp(pkt []byte, gen, done ncproto.GenerationID) {
	readdress(pkt, ncproto.SessionID(binary.BigEndian.Uint16(pkt[2:4])), gen)
	pkt[1] = ncproto.DoneFlags(gen, done)
}

func (s *Source) watermark() ncproto.GenerationID { return ncproto.GenerationID(s.doneBelow.Load()) }

func counter(v *VNF, name string) uint64 {
	return v.Telemetry().Counter(name, v.workers+1).Value()
}

// TestWatermarkRetiresAndForwards walks one relay through the three rules: a
// stamped arrival releases every record below the watermark into the
// session's pool, the relay stamps what it emits, and an arrival below the
// watermark leaves on every next hop unchanged without starting state.
func TestWatermarkRetiresAndForwards(t *testing.T) {
	v, conn := relayVNF(t, 1)
	v.Table().Set(1, []HopGroup{{Addrs: []string{"a"}}, {Addrs: []string{"b"}}})
	params := smallParams()
	pkts := codedWire(t, params, 1, 0, 70, 3)
	for g := ncproto.GenerationID(0); g < 4; g++ {
		stamp(pkts[0], g, 0)
		v.InjectPacket(pkts[0])
	}
	if got := active(t, v, 1); got != 4 {
		t.Fatalf("live generations = %d, want 4 before any stamp", got)
	}
	for _, p := range conn.pkts {
		if p[1] != 0 {
			t.Fatalf("relay that saw no stamp emitted flag byte %#x, want 0", p[1])
		}
	}

	sent := len(conn.pkts)
	stamp(pkts[1], 4, 3) // generations 0, 1, 2 are finished
	v.InjectPacket(pkts[1])
	st, _ := v.SessionStatsFor(1)
	if st.DoneBelow != 3 || st.GenerationsActive != 2 {
		t.Fatalf("after the stamp: watermark %d with %d live, want 3 with 2 (generations 3 and 4)", st.DoneBelow, st.GenerationsActive)
	}
	if n, b := v.SessionStoreStats(); n != 2 || b != 4*int64(params.StateBytes()) {
		t.Fatalf("index holds %d generations / %d bytes, want 2 live + 3 pooled - 1 reused = %d bytes", n, b, 4*params.StateBytes())
	}
	if got := counter(v, MetricGenerationsRetired); got != 3 {
		t.Fatalf("%s = %d, want 3", MetricGenerationsRetired, got)
	}
	if got := v.Telemetry().Counter(MetricGenerationsEvicted, 1).Value(); got != 0 {
		t.Fatalf("watermark retirement counted as %d evictions", got)
	}
	for _, p := range conn.pkts[sent:] {
		h, _ := ncproto.PeekHeader(p)
		if h.Generation != 4 || h.DoneBelow() != 3 {
			t.Fatalf("relay emission for generation %d carries watermark %d, want 4 / 3", h.Generation, h.DoneBelow())
		}
	}

	// Below the watermark: forwarded verbatim on both hops, no state, no drop.
	sent, drops := len(conn.pkts), v.Stats().PacketsDropped
	stamp(pkts[2], 1, 0)
	v.InjectPacket(pkts[2])
	if len(conn.pkts) != sent+2 || !bytes.Equal(conn.pkts[sent], pkts[2]) || !bytes.Equal(conn.pkts[sent+1], pkts[2]) ||
		conn.dsts[sent] != "a" || conn.dsts[sent+1] != "b" {
		t.Fatal("arrival below the watermark was not forwarded unchanged on every next hop")
	}
	if got := active(t, v, 1); got != 2 {
		t.Fatalf("arrival below the watermark started state: %d live, want 2", got)
	}
	if got := counter(v, MetricLateForwarded); got != 1 || v.Stats().PacketsDropped != drops {
		t.Fatalf("%s = %d (want 1), drops moved by %d (want 0)", MetricLateForwarded, got, v.Stats().PacketsDropped-drops)
	}

	// A stamp that jumps backwards changes nothing.
	stamp(pkts[0], 5, 1)
	v.InjectPacket(pkts[0])
	if st, _ := v.SessionStatsFor(1); st.DoneBelow != 3 || st.GenerationsActive != 3 {
		t.Fatalf("backward stamp: watermark %d with %d live, want 3 with 3", st.DoneBelow, st.GenerationsActive)
	}
}

// FuzzWatermark throws arbitrary flag bytes and generation ids — stamps that
// jump backwards, to 2^32-1, or land on a session no source ever fed — at a
// bounded relay and at a sink. The relay's watermark must follow exactly the
// highest stamp seen and never decrease, the index must stay inside its
// configured bounds, every data packet below the watermark must leave on every
// next hop unchanged, and the sink, which ignores stamps, must keep every
// generation it has not delivered.
func FuzzWatermark(f *testing.F) {
	params := smallParams()
	k := params.GenerationBlocks
	ring := codedWire(f, params, 1, 0, 300, k+2)

	op := func(flags byte, gen uint32, sel byte) []byte {
		b := []byte{flags, 0, 0, 0, 0, sel}
		binary.BigEndian.PutUint32(b[1:], gen)
		return b
	}
	f.Add(bytes.Join([][]byte{op(0, 0, 0), op(1<<3, 1, 1), op(2<<3, 2, 2), op(1<<3, 3, 3), op(0, 0, 4)}, nil)) // honest, then a late packet
	f.Add(bytes.Join([][]byte{op(1<<3, 40, 0), op(31<<3, 41, 1), op(9<<3, 12, 2), op(0, 39, 3)}, nil))         // jumps backwards
	f.Add(bytes.Join([][]byte{op(0, 7, 0), op(1<<3, 1<<32-1, 1), op(0, 8, 2), op(0, 1<<32-2, 0x83)}, nil))     // to 2^32-1
	f.Add(bytes.Join([][]byte{op(0xff, 5, 0x80), op(0xfb, 0, 0x81), op(31<<3, 3, 0x82)}, nil))                 // a session that never saw a source

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 6*512 {
			ops = ops[:6*512]
		}
		// Against FIFO retirement (no tombstones) and against LRU eviction
		// (tombstones the watermark has to clear), both at a bound of four.
		watermarkOps(t, ring, ops, WithBufferCapacity(4))
		watermarkOps(t, ring, ops, WithSessionStore(SessionStoreConfig{MaxGenerations: 4}))
	})
}

func watermarkOps(t *testing.T, ring [][]byte, ops []byte, bound VNFOption) {
	const maxLive = 4
	params := smallParams()
	relay, conn := relayVNF(t, 2, WithWorkers(1), bound)
	hops := []HopGroup{{Addrs: []string{"a"}}, {Addrs: []string{"b"}}}
	relay.Table().Set(1, hops)
	relay.Table().Set(2, hops)
	sink := NewVNF(newCaptureConn("sink"), WithWorkers(1))
	defer sink.Close()
	for s := ncproto.SessionID(1); s <= 2; s++ {
		if err := sink.Configure(SessionConfig{ID: s, Params: params, Role: RoleDecoder}); err != nil {
			t.Fatal(err)
		}
	}
	var watermark [3]ncproto.GenerationID
	seen := [3]map[ncproto.GenerationID]bool{nil, {}, {}}
	var late uint64
	pkt := make([]byte, len(ring[0]))
	for ; len(ops) >= 6; ops = ops[6:] {
		sess := ncproto.SessionID(1 + ops[5]>>7)
		gen := ncproto.GenerationID(binary.BigEndian.Uint32(ops[1:5]))
		copy(pkt, ring[int(ops[5]&0x7f)%len(ring)])
		readdress(pkt, sess, gen)
		pkt[1] = ops[0] &^ ncproto.FlagControl // any data packet
		hdr, _ := ncproto.PeekHeader(pkt)

		if d := hdr.DoneBelow(); d > watermark[sess] {
			watermark[sess] = d
		}
		sent := len(conn.pkts)
		relay.InjectPacket(pkt)
		st, _ := relay.SessionStatsFor(sess)
		if st.DoneBelow != watermark[sess] {
			t.Fatalf("session %d: relay watermark %d, want the highest stamp seen %d", sess, st.DoneBelow, watermark[sess])
		}
		if gen < watermark[sess] {
			late++
			if len(conn.pkts) != sent+2 || !bytes.Equal(conn.pkts[sent], pkt) || !bytes.Equal(conn.pkts[sent+1], pkt) {
				t.Fatalf("session %d generation %d below watermark %d: %d packets left the relay, want the arrival on both hops",
					sess, gen, watermark[sess], len(conn.pkts)-sent)
			}
		}
		if got := counter(relay, MetricLateForwarded); got != late {
			t.Fatalf("%s = %d, want %d", MetricLateForwarded, got, late)
		}
		n, b := relay.SessionStoreStats()
		if n > maxLive || b < 0 || b > int64(n+2*finishedSpares)*int64(params.StateBytes()) {
			t.Fatalf("relay index holds %d generations / %d bytes, the bound is %d generations", n, b, maxLive)
		}
		live := 0
		for s := ncproto.SessionID(1); s <= 2; s++ {
			ss, _ := relay.SessionStatsFor(s)
			live += ss.GenerationsActive
		}
		if live != n {
			t.Fatalf("relay sessions hold %d live generations, index tracks %d", live, n)
		}

		// The sink sees the same packet: a stamp must not release anything.
		sink.InjectPacket(pkt)
		seen[sess][gen] = true
		ss, _ := sink.SessionStatsFor(sess)
		if ss.DoneBelow != 0 {
			t.Fatalf("sink learned watermark %d: sinks ignore the stamp", ss.DoneBelow)
		}
		if want := len(seen[sess]) - int(ss.GenerationsDone); ss.GenerationsActive != want {
			t.Fatalf("sink session %d holds %d generations, want %d seen - %d delivered: an undelivered generation was released",
				sess, ss.GenerationsActive, len(seen[sess]), ss.GenerationsDone)
		}
		for len(sink.Deliveries()) > 0 {
			<-sink.Deliveries()
		}
	}
}

// frontierSource builds a source whose conn never receives, so the test can
// feed its frontier directly, and claims sent generations as sent.
func frontierSource(t *testing.T, sent ncproto.GenerationID) (*Source, *captureConn) {
	t.Helper()
	conn := newCaptureConn("V1")
	src, err := NewSource(conn, SourceConfig{Session: 1, Params: smallParams(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	src.SetHops([]HopGroup{{Addrs: []string{"relay"}}})
	src.nextGen = sent
	return src, conn
}

// TestSourceFrontier pins how the source turns ACKs into the watermark.
func TestSourceFrontier(t *testing.T) {
	check := func(src *Source, want ncproto.GenerationID, what string) {
		t.Helper()
		if got := src.watermark(); got != want {
			t.Fatalf("%s: watermark %d, want %d", what, got, want)
		}
	}
	src, conn := frontierSource(t, 2000)

	src.noteAck("O2", 2000)
	src.noteAck("O2", 1<<32-1)
	if len(src.frontiers) != 0 {
		t.Fatal("an ACK for a generation never sent created a receiver")
	}
	check(src, 0, "never-sent ACKs")

	// Out of order and duplicated, one receiver.
	for _, g := range []ncproto.GenerationID{2, 1, 1, 4, 2} {
		src.noteAck("O2", g)
	}
	check(src, 0, "generation 0 still missing")
	src.noteAck("O2", 0)
	check(src, 3, "0,1,2 acknowledged, 4 ahead")
	src.noteAck("O2", 3)
	check(src, 5, "the run ahead joined the frontier")
	src.noteAck("O2", 0)
	check(src, 5, "duplicate of an old generation")

	// A receiver first heard from after the watermark moved starts at it: the
	// watermark never goes back, and from then on waits for both.
	src.noteAck("C2", 1)
	check(src, 5, "late receiver's old ACK")
	src.noteAck("O2", 5)
	src.noteAck("O2", 6)
	check(src, 5, "waits for the second receiver")
	src.noteAck("C2", 6)
	src.noteAck("C2", 5)
	check(src, 7, "both receivers have 5 and 6")

	// One lost generation with a thousand acknowledged behind it is one run,
	// not a thousand entries, and heals in one step.
	for g := ncproto.GenerationID(8); g < 1008; g++ {
		src.noteAck("O2", g)
		src.noteAck("C2", g)
	}
	check(src, 7, "generation 7 outstanding")
	if n := len(src.frontiers["O2"]); n != 2 {
		t.Fatalf("a hole with a long run behind it is held as %d runs, want 2", n)
	}
	// Stamps: within 30 generations of the watermark a data packet carries
	// it; further ahead the flag byte says nothing.
	for _, c := range []struct{ gen, want ncproto.GenerationID }{{7, 7}, {37, 7}, {38, 0}, {3, 0}} {
		sent := len(conn.pkts)
		if err := src.ResendGeneration(c.gen, randomBytes(1, 8), 1); err != nil {
			t.Fatal(err)
		}
		h, _ := ncproto.PeekHeader(conn.pkts[sent])
		if h.DoneBelow() != c.want {
			t.Fatalf("generation %d emitted with watermark %d (flags %#x), want %d", c.gen, h.DoneBelow(), h.Flags, c.want)
		}
	}
	src.noteAck("O2", 7)
	src.noteAck("C2", 7)
	check(src, 1008, "the hole healed")

	// Hostile streams: isolated ACKs cannot grow a receiver's runs past the
	// cap, new senders cannot grow the table past its cap, and neither moves
	// the watermark.
	src, _ = frontierSource(t, 1<<20)
	for g := ncproto.GenerationID(2); g < 4096; g += 2 {
		src.noteAck("O2", g)
	}
	if n := len(src.frontiers["O2"]); n != maxAckedRuns {
		t.Fatalf("receiver holds %d runs, want the cap %d", n, maxAckedRuns)
	}
	for i := 0; i < 4*maxReceivers; i++ {
		src.noteAck(fmt.Sprintf("forged-%d", i), 0)
	}
	if n := len(src.frontiers); n != maxReceivers {
		t.Fatalf("source tracks %d receivers, want the cap %d", n, maxReceivers)
	}
	check(src, 0, "hostile ACK streams")
}

// TestSourceWatermarkSurvivesUnreadAcks pins the order in recvLoop: the
// frontier is fed before the lossy Acks() channel, so an application that
// never reads it still gets its relays' memory back.
func TestSourceWatermarkSurvivesUnreadAcks(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	src, err := NewSource(n.Host("V1"), SourceConfig{Session: 1, Params: smallParams()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	total := ncproto.GenerationID(cap(src.acks) + 500)
	src.mu.Lock()
	src.nextGen = total
	src.mu.Unlock()
	sink := n.Host("O2")
	for g := ncproto.GenerationID(0); g < total; g++ {
		if err := sink.Send("V1", ncproto.EncodeAck(ncproto.Ack{Session: 1, Generation: g})); err != nil {
			t.Fatal(err)
		}
		if g%1024 == 0 { // stay inside V1's inbox
			waitFor(t, 5*time.Second, func() bool { return src.watermark() >= g })
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return src.watermark() == total }) {
		t.Fatalf("watermark stalled at %d of %d behind a full Acks() channel (%d queued)", src.watermark(), total, len(src.acks))
	}
}

// butterfly is the Fig. 6 topology on an emulated network with the
// benchmark's quotas: k/2+2 packets per generation per edge, NC2 at every
// relay, both sinks acknowledging to V1.
type butterfly struct {
	net    *emunet.Network
	relays map[string]*VNF
	src    *Source
	sinks  [2]*MultiReceiver
}

func newButterfly(t *testing.T) *butterfly {
	t.Helper()
	b := &butterfly{net: emunet.NewNetwork(emunet.AllowDefault()), relays: map[string]*VNF{}}
	t.Cleanup(func() { b.net.Close() })
	params := smallParams()
	q := params.GenerationBlocks/2 + 2
	for name, r := range map[string]struct {
		in   int
		hops []HopGroup
	}{
		"O1": {q, []HopGroup{{Addrs: []string{"O2"}, PerGen: q}, {Addrs: []string{"T"}, PerGen: q}}},
		"C1": {q, []HopGroup{{Addrs: []string{"C2"}, PerGen: q}, {Addrs: []string{"T"}, PerGen: q}}},
		"T":  {2 * q, []HopGroup{{Addrs: []string{"V2"}, PerGen: q}}},
		"V2": {q, []HopGroup{{Addrs: []string{"O2"}, PerGen: q}, {Addrs: []string{"C2"}, PerGen: q}}},
	} {
		v := NewVNF(b.net.Host(name), WithSeed(int64(len(b.relays))+100))
		if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder, Redundancy: 2, InPerGen: r.in}); err != nil {
			t.Fatal(err)
		}
		v.Table().Set(1, r.hops)
		v.Start()
		t.Cleanup(func() { v.Close() })
		b.relays[name] = v
	}
	for i, name := range []string{"O2", "C2"} {
		r, err := newSink(b.net.Host(name), 1, params, "V1")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		b.sinks[i] = r
	}
	src, err := NewSource(b.net.Host("V1"), SourceConfig{Session: 1, Params: params, Redundancy: 2, Systematic: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	src.SetHops([]HopGroup{{Addrs: []string{"O1"}, PerGen: q}, {Addrs: []string{"C1"}, PerGen: q}})
	b.src = src
	return b
}

// TestLateSinkStillDecodes is the case that makes learned receivers safe. C2
// is cut off while generation 0 is sent, so the source hears only from O2 and
// moves the watermark past a generation C2 never got; the relays release it.
// The resend must still reach C2 — forwarded below the watermark, not dropped,
// and without any relay starting state for it again.
func TestLateSinkStillDecodes(t *testing.T) {
	b := newButterfly(t)
	genBytes := smallParams().GenerationBytes()
	data := [][]byte{randomBytes(50, genBytes), randomBytes(51, genBytes)}

	b.net.PartitionHost("C2")
	if _, err := b.src.SendGeneration(data[0], false); err != nil {
		t.Fatal(err)
	}
	// Generation 0 has to be through every relay before the partition heals,
	// or V2's share of it reaches C2 after all.
	q := uint64(smallParams().GenerationBlocks/2 + 2)
	if !waitFor(t, 5*time.Second, func() bool {
		for name, want := range map[string]uint64{"O1": 2 * q, "C1": 2 * q, "T": q, "V2": 2 * q} {
			if st, _ := b.relays[name].SessionStatsFor(1); st.PacketsOut != want {
				return false
			}
		}
		return b.src.watermark() == 1
	}) {
		t.Fatalf("watermark %d after O2 acknowledged generation 0, want 1", b.src.watermark())
	}
	b.net.HealHost("C2")
	if _, err := b.src.SendGeneration(data[1], false); err != nil { // carries the watermark to every hop
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		for _, v := range b.relays {
			if st, _ := v.SessionStatsFor(1); st.DoneBelow != 1 || st.GenerationsActive != 1 {
				return false
			}
		}
		return b.sinks[1].Generations(1) == 1 && b.src.watermark() == 2
	}) {
		t.Fatal("relays did not release generation 0 behind the watermark, or C2 did not decode generation 1")
	}
	if _, ok := b.sinks[1].GenerationData(1, 0); ok {
		t.Fatal("C2 decoded generation 0 through a partition")
	}

	if err := b.src.ResendGeneration(0, data[0], smallParams().GenerationBlocks); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return b.sinks[1].Generations(1) == 2 }) {
		t.Fatal("C2 never decoded the resent generation 0: it was blackholed below the watermark")
	}
	for i, r := range b.sinks {
		for g, want := range data {
			if got, ok := r.GenerationData(1, ncproto.GenerationID(g)); !ok || !bytes.Equal(got, want) {
				t.Fatalf("sink %d generation %d: delivered=%v, bytes differ from what was sent", i, g, ok)
			}
		}
	}
	for name, v := range b.relays {
		st, _ := v.SessionStatsFor(1)
		if st.GenerationsActive != 1 {
			t.Fatalf("%s holds %d generations after the resend, want 1: state below the watermark was resurrected", name, st.GenerationsActive)
		}
		// C2 can be done on one branch's copies before the other relays have
		// seen theirs.
		waitFor(t, 5*time.Second, func() bool { return counter(v, MetricLateForwarded) > 0 })
		if counter(v, MetricLateForwarded) == 0 || v.Stats().PacketsDropped != 0 {
			t.Fatalf("%s: %d late packets forwarded, %d dropped; want the resend forwarded and nothing dropped",
				name, counter(v, MetricLateForwarded), v.Stats().PacketsDropped)
		}
	}
}

// TestRelayLiveSetTracksWindow is the CI guard for what the whole-system
// benchmark measures as rss_mb: with ACKs flowing, every relay's live set
// follows the sender's window instead of filling the buffer capacity.
func TestRelayLiveSetTracksWindow(t *testing.T) {
	const window = 8
	total := 5000
	if testing.Short() {
		total = 500
	}
	b := newButterfly(t)
	genBytes := smallParams().GenerationBytes()
	data := make([][]byte, 16)
	for i := range data {
		data[i] = randomBytes(int64(60+i), genBytes)
	}
	type flight struct {
		acks     map[string]bool
		deadline time.Time
	}
	inFlight := map[ncproto.GenerationID]*flight{}
	base, next, peak := 0, 0, 0
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	giveUp := time.After(2 * time.Minute)
	for base < total {
		for ; next < total && next < base+window; next++ {
			gid, err := b.src.SendGeneration(data[next%len(data)], false)
			if err != nil || int(gid) != next {
				t.Fatalf("send %d: generation %d, %v", next, gid, err)
			}
			inFlight[gid] = &flight{acks: map[string]bool{}, deadline: time.Now().Add(200 * time.Millisecond)}
		}
		select {
		case a := <-b.src.acks:
			if f := inFlight[a.Generation]; f != nil {
				if f.acks[a.From] = true; len(f.acks) == 2 {
					delete(inFlight, a.Generation)
				}
			}
			for ; base < next && inFlight[ncproto.GenerationID(base)] == nil; base++ {
			}
		case now := <-tick.C:
			for gid, f := range inFlight {
				if now.After(f.deadline) {
					f.deadline = now.Add(200 * time.Millisecond)
					if err := b.src.ResendGeneration(gid, data[int(gid)%len(data)], 2); err != nil {
						t.Fatal(err)
					}
				}
			}
		case <-giveUp:
			t.Fatalf("stuck at generation %d of %d", base, total)
		}
		for name, v := range b.relays {
			n, _ := v.SessionStoreStats()
			if n > peak {
				peak = n
			}
			if n > window+8 {
				t.Fatalf("%s holds %d live generations at base %d, want at most window + 8 = %d", name, n, base, window+8)
			}
		}
	}
	for name, v := range b.relays {
		if got := v.Telemetry().Counter(MetricGenerationsEvicted, 1).Value(); got != 0 {
			t.Fatalf("%s evicted %d generations", name, got)
		}
		// Not all of them: the sinks can finish a generation from their side
		// branch alone, so T and V2 see some only below the watermark and never
		// admit them.
		if got := counter(v, MetricGenerationsRetired); got < uint64(total/2) {
			t.Fatalf("%s retired %d of %d generations by watermark, want most", name, got, total)
		}
	}
	t.Logf("peak live generations per relay: %d (window %d)", peak, window)
}

// TestSinkPrunesBehindReorderWindow covers the other caller of releaseBelow: a
// sink that ignores stamps still sheds decoders that can never complete, once
// they are a reordering window behind the generation it just delivered.
func TestSinkPrunesBehindReorderWindow(t *testing.T) {
	sink := NewVNF(newCaptureConn("sink"), WithWorkers(1))
	defer sink.Close()
	params := smallParams()
	if err := sink.Configure(SessionConfig{ID: 1, Params: params, Role: RoleDecoder}); err != nil {
		t.Fatal(err)
	}
	pkts := codedWire(t, params, 1, 0, 90, params.GenerationBlocks)
	const stale = 2*reorderWindow + 9
	for g := ncproto.GenerationID(0); g < stale; g++ {
		readdress(pkts[0], 1, g)
		sink.InjectPacket(pkts[0]) // one packet each: none of these completes
	}
	if got := active(t, sink, 1); got != stale {
		t.Fatalf("sink holds %d incomplete generations, want %d", got, stale)
	}
	const newest = stale + 100
	for _, p := range pkts {
		readdress(p, 1, newest)
		sink.InjectPacket(p)
	}
	if want := stale - (newest - reorderWindow); active(t, sink, 1) != want {
		t.Fatalf("after delivering generation %d the sink holds %d generations, want %d: everything below %d released",
			newest, active(t, sink, 1), want, newest-reorderWindow)
	}
	if n, b := sink.SessionStoreStats(); n != stale-(newest-reorderWindow) || b != int64(n+finishedSpares)*int64(params.StateBytes()) {
		t.Fatalf("index holds %d generations / %d bytes after the prune", n, b)
	}
}

// TestSourceDropsForeignSessionAcks: an ACK for another session's generation
// (two sessions sourced behind one address) neither moves this session's
// watermark nor reaches Acks().
func TestSourceDropsForeignSessionAcks(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	src, err := NewSource(n.Host("V1"), SourceConfig{Session: 1, Params: smallParams()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.mu.Lock()
	src.nextGen = 8
	src.mu.Unlock()
	sink := n.Host("O2")
	// In link order: the foreign ACK would complete generation 0, the own
	// one is for generation 5 and moves nothing on its own.
	for _, a := range []ncproto.Ack{{Session: 2, Generation: 0}, {Session: 1, Generation: 5}} {
		if err := sink.Send("V1", ncproto.EncodeAck(a)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case got := <-src.Acks():
		if got.Session != 1 || got.Generation != 5 {
			t.Fatalf("first ACK on Acks() = %+v, want session 1 generation 5", got.Ack)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("own-session ACK never reached Acks()")
	}
	if got := src.watermark(); got != 0 {
		t.Fatalf("watermark %d after a foreign ACK for generation 0, want 0", got)
	}
}
