package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ncfn/internal/buffer"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/gf"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/topology"
)

// layerTimes holds the isolated timings of one workload's (k, block, field):
// every layer's public entry points called single-threaded on the calling
// goroutine, for at least runConfig.micro each, on the packets the butterfly
// really carries (see captureTraffic). Fields are ns unless named otherwise;
// *Work fields are the bytes of GF kernel traffic one operation reports
// through TakeWork.
type layerTimes struct {
	addMulPerKiB, combinePerKiB, xorWordsPerKiB float64
	gf2DecodePerPkt                             float64

	encode, recoderAdd, recodeInto, decode      float64
	encodeWork, addWork, recodeWork, decodeWork float64
	decodeAllocsPerGen                          float64

	wireEncode, wireDecode float64

	relayEdge, relayMerge, relayCold, relayAllocs float64
	forward, sink, source                         float64
	tableRead, tablePushUs                        float64

	inprocHop, udpHop float64
	planSolveMs       float64
}

// timeLoop calls f in batches until d has passed and returns ns per call.
func timeLoop(d time.Duration, batch int, f func()) float64 {
	n := 0
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			f()
		}
		n += batch
		if el := time.Since(start); el >= d {
			return float64(el) / float64(n)
		}
	}
}

// genPackets holds wire packets of one generation, re-addressed in place to
// any (session, generation) by patching the fixed header.
type genPackets [][]byte

func (g genPackets) address(s ncproto.SessionID, id ncproto.GenerationID) {
	for _, p := range g {
		binary.BigEndian.PutUint16(p[2:4], uint16(s))
		binary.BigEndian.PutUint32(p[4:8], uint32(id))
	}
}

// blocks parses the packets into coded blocks that own their bytes.
func (g genPackets) blocks(k int) ([]rlnc.CodedBlock, error) {
	out := make([]rlnc.CodedBlock, 0, len(g))
	for _, raw := range g {
		p, err := ncproto.Decode(raw, k)
		if err != nil {
			return nil, err
		}
		out = append(out, rlnc.CodedBlock{Coeffs: p.Coeffs, Payload: p.Payload}.Clone())
	}
	return out, nil
}

// sinkConn is a PacketConn that never receives. It counts what it is sent —
// the isolated data-plane timings end at the conn boundary — and, when out
// is non-nil, keeps a copy per destination.
type sinkConn struct {
	sent   int
	out    map[string]genPackets
	once   sync.Once
	closed chan struct{}
}

func newSinkConn(capture bool) *sinkConn {
	c := &sinkConn{closed: make(chan struct{})}
	if capture {
		c.out = map[string]genPackets{}
	}
	return c
}

func (c *sinkConn) Send(dst string, pkt []byte) error {
	c.sent++
	if c.out != nil {
		c.out[dst] = append(c.out[dst], append([]byte(nil), pkt...))
	}
	return nil
}
func (c *sinkConn) LocalAddr() string { return "bench" }
func (c *sinkConn) Recv() ([]byte, string, error) {
	<-c.closed
	return nil, "", emunet.ErrClosed
}
func (c *sinkConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// traffic is one generation's wire packets on the edges of the butterfly
// that the isolated timings replay.
type traffic struct {
	toO1   genPackets // source to O1: the first q systematic packets
	toT    genPackets // O1's, then C1's, emissions to the merge relay
	toSink genPackets // O1's, then V2's, emissions to sink O2
}

// captureTraffic runs one generation through the real Source and the four
// relay VNFs, synchronously and with capturing conns, so every isolated
// timing sees the coefficient structure the pipeline really produces —
// systematic at the edge, mixed at the merge, mostly sparse at the sink —
// rather than dense random packets.
func captureTraffic(w *workload, seed int64) (*traffic, error) {
	conn := newSinkConn(true)
	src, err := newSource(w, 0, conn, seed, 0)
	if err != nil {
		return nil, err
	}
	data := make([]byte, w.params.GenerationBytes())
	rand.New(rand.NewSource(seed)).Read(data)
	_, err = src.SendGeneration(data, false)
	src.Close()
	if err != nil {
		return nil, err
	}
	relay := func(name string, in genPackets) (map[string]genPackets, error) {
		out := newSinkConn(true)
		v, err := newRelay(w, name, 1, out)
		if err != nil {
			return nil, err
		}
		for _, p := range in {
			v.InjectPacket(p)
		}
		v.Close()
		return out.out, nil
	}
	o1, err := relay("O1", conn.out["O1"])
	if err != nil {
		return nil, err
	}
	c1, err := relay("C1", conn.out["C1"])
	if err != nil {
		return nil, err
	}
	tr := &traffic{toO1: conn.out["O1"], toT: append(o1["T"], c1["T"]...)}
	t, err := relay("T", tr.toT)
	if err != nil {
		return nil, err
	}
	v2, err := relay("V2", t["V2"])
	if err != nil {
		return nil, err
	}
	tr.toSink = append(o1["O2"], v2["O2"]...)
	q := w.edgeQuota()
	if len(tr.toO1) != q || len(tr.toT) != 2*q || len(tr.toSink) != 2*q {
		return nil, fmt.Errorf("captured %d/%d/%d packets at O1/T/O2, want %d/%d/%d",
			len(tr.toO1), len(tr.toT), len(tr.toSink), q, 2*q, 2*q)
	}
	return tr, nil
}

// measureLayers takes every isolated timing for workload w: each for at
// least d, the steady-state relays after warm generations.
func measureLayers(w *workload, seed int64, warm int, d time.Duration) (*layerTimes, error) {
	tr, err := captureTraffic(w, seed)
	if err != nil {
		return nil, err
	}
	lt := &layerTimes{}
	if err := lt.measureGF(d); err != nil {
		return nil, err
	}
	if err := lt.measureCodec(w, tr, seed, d); err != nil {
		return nil, err
	}
	if err := lt.measureDataplane(w, tr, seed, warm, d); err != nil {
		return nil, err
	}
	if err := lt.measureTransport(w, d); err != nil {
		return nil, err
	}
	return lt, lt.measurePlan(d)
}

// kibOf converts ns per call over n bytes to ns per KiB.
func kibOf(nsPerCall float64, n int) float64 { return nsPerCall * 1024 / float64(n) }

func (lt *layerTimes) measureGF(d time.Duration) error {
	const block = rlnc.DefaultBlockSize
	rng := rand.New(rand.NewSource(1))
	src, dst := make([]byte, block), make([]byte, block)
	rng.Read(src)
	c := byte(2)
	lt.addMulPerKiB = kibOf(timeLoop(d, 256, func() {
		gf.AddMulSlice(dst, src, c)
		if c++; c < 2 {
			c = 2
		}
	}), block)

	const rows = 64
	srcs, cs := make([][]byte, rows), make([]byte, rows)
	for i := range srcs {
		srcs[i] = make([]byte, block)
		rng.Read(srcs[i])
		cs[i] = byte(2 + rng.Intn(254))
	}
	lt.combinePerKiB = kibOf(timeLoop(d, 16, func() { gf.CombineSlices(dst, srcs, cs) }), rows*block)

	words := gf.WordsForBytes(block)
	ws, wd := make([]uint64, words), make([]uint64, words)
	gf.PackBytes(ws, src)
	lt.xorWordsPerKiB = kibOf(timeLoop(d, 1024, func() { gf.XorWords(wd, ws) }), block)

	// The packed GF(2) decode path, on dense random packets: no workload
	// runs GF(2), so this guard is the only place a regression of it would
	// show. A few packets beyond k, because over GF(2) a random k-set is
	// often singular.
	p := rlnc.Params{GenerationBlocks: rows, BlockSize: block, Field: gf.GF2}
	data := make([]byte, p.GenerationBytes())
	rng.Read(data)
	enc, err := rlnc.NewEncoder(p, data, 1)
	if err != nil {
		return err
	}
	blocks := make([]rlnc.CodedBlock, rows+8)
	for i := range blocks {
		enc.CodedInto(&blocks[i])
	}
	lt.gf2DecodePerPkt, _, _, err = timeDecode(p, blocks, d)
	return err
}

// decodeBatch is how many packets of one generation the timings hand
// Decoder.AddBatch at once: the shard worker's drain depth.
const decodeBatch = 32

// timeDecode times Decoder.AddBatch + Generation over one generation's
// arrivals and returns ns and kernel-work bytes per packet and allocations
// per generation.
func timeDecode(p rlnc.Params, blocks []rlnc.CodedBlock, d time.Duration) (ns, work, allocs float64, err error) {
	dec, err := rlnc.NewDecoder(p)
	if err != nil {
		return 0, 0, 0, err
	}
	one := func() {
		dec.Reset()
		for i := 0; i < len(blocks) && err == nil; i += decodeBatch {
			_, err = dec.AddBatch(blocks[i:min(i+decodeBatch, len(blocks))])
		}
		if err == nil {
			_, err = dec.Generation()
		}
	}
	one()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("decode k=%d %v: %w", p.GenerationBlocks, p.Field, err)
	}
	dec.TakeWork()
	gens := 0
	perGen := timeLoop(d, 1, func() { one(); gens++ })
	work = float64(dec.TakeWork()) / float64(gens*len(blocks))
	allocs = testing.AllocsPerRun(10, one)
	return perGen / float64(len(blocks)), work, allocs, err
}

func (lt *layerTimes) measureCodec(w *workload, tr *traffic, seed int64, d time.Duration) error {
	p, k := w.params, w.params.GenerationBlocks
	data := make([]byte, p.GenerationBytes())
	rand.New(rand.NewSource(seed)).Read(data)
	enc, err := rlnc.NewEncoder(p, data, seed)
	if err != nil {
		return err
	}
	var cb rlnc.CodedBlock
	n := 0
	lt.encode = timeLoop(d, 16, func() { enc.CodedInto(&cb); n++ })
	lt.encodeWork = float64(enc.TakeWork()) / float64(n)

	// A recoder as O1 runs it: reset for a new generation (the VNF builds or
	// recycles one recoder per generation), absorb the q arrivals; then one
	// emission at full rank.
	arrivals, err := tr.toO1.blocks(k)
	if err != nil {
		return err
	}
	rec, err := rlnc.NewRecoder(p, seed)
	if err != nil {
		return err
	}
	adds := 0
	lt.recoderAdd = timeLoop(d, 1, func() {
		rec.Reset(seed)
		for _, b := range arrivals {
			if aerr := rec.Add(b); aerr != nil {
				err = aerr
			}
		}
		adds += len(arrivals)
	}) / float64(len(arrivals))
	if err != nil {
		return err
	}
	lt.addWork = float64(rec.TakeWork()) / float64(adds)
	n = 0
	lt.recodeInto = timeLoop(d, 16, func() { rec.RecodeInto(&cb); n++ })
	lt.recodeWork = float64(rec.TakeWork()) / float64(n)

	atSink, err := tr.toSink.blocks(k)
	if err != nil {
		return err
	}
	if lt.decode, lt.decodeWork, lt.decodeAllocsPerGen, err = timeDecode(p, atSink, d); err != nil {
		return err
	}

	pkt, err := ncproto.Decode(tr.toSink[len(tr.toSink)-1], k)
	if err != nil {
		return err
	}
	var wire []byte
	lt.wireEncode = timeLoop(d, 256, func() { wire = pkt.Encode(wire) })
	var into ncproto.Packet
	lt.wireDecode = timeLoop(d, 256, func() {
		if derr := ncproto.DecodeInto(&into, wire, k); derr != nil {
			err = derr
		}
	})
	return err
}

// relayBench drives one recoder-role VNF through InjectPacket, a generation
// at a time, rotating over the workload's sessions.
type relayBench struct {
	v        *dataplane.VNF
	pkts     genPackets
	sessions int
	next     int
}

func newRelayBench(w *workload, name string, sessions int, pkts genPackets) (*relayBench, error) {
	v, err := newRelay(w, name, sessions, newSinkConn(false))
	if err != nil {
		return nil, err
	}
	return &relayBench{v: v, pkts: pkts, sessions: sessions}, nil
}

// generation injects the next generation's packets.
func (b *relayBench) generation() {
	b.pkts.address(sessionID(b.next%b.sessions), ncproto.GenerationID(b.next/b.sessions))
	b.next++
	for _, p := range b.pkts {
		b.v.InjectPacket(p)
	}
}

// coldGenerations is how many generations of a fresh relay count as cold.
const coldGenerations = 64

func (lt *layerTimes) measureDataplane(w *workload, tr *traffic, seed int64, warm int, d time.Duration) error {
	p, q := w.params, w.edgeQuota()

	// Steady state: past buffer.DefaultCapacity live generations, where
	// every arrival pays the live-generation scan and a FIFO eviction. O1
	// stands for the three edge relays, T is the merge relay.
	steady := func(name string, pkts genPackets) (ns, allocs float64, err error) {
		b, err := newRelayBench(w, name, w.sessions, pkts)
		if err != nil {
			return 0, 0, err
		}
		defer b.v.Close()
		for i := 0; i < warm; i++ {
			b.generation()
		}
		ns = timeLoop(d, 1, b.generation) / float64(len(pkts))
		allocs = testing.AllocsPerRun(20, b.generation) / float64(len(pkts))
		return ns, allocs, nil
	}
	var err error
	if lt.relayEdge, lt.relayAllocs, err = steady("O1", tr.toO1); err != nil {
		return err
	}
	if lt.relayMerge, _, err = steady("T", tr.toT); err != nil {
		return err
	}

	// Cold: only the first generations of fresh relays are timed.
	var cold time.Duration
	fresh := 0
	for cold < d {
		b, err := newRelayBench(w, "O1", w.sessions, tr.toO1)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < coldGenerations; i++ {
			b.generation()
		}
		cold += time.Since(start)
		fresh++
		b.v.Close()
	}
	lt.relayCold = float64(cold) / float64(fresh*coldGenerations*q)

	// Bare forwarding at the smallest packet: 4 x 128 B.
	small := rlnc.Params{GenerationBlocks: 4, BlockSize: 128}
	fwdPkt := (&ncproto.Packet{Session: 1, Coeffs: []byte{1, 0, 0, 0}, Payload: make([]byte, small.BlockSize)}).Encode(nil)
	fwd := dataplane.NewVNF(newSinkConn(false))
	defer fwd.Close()
	if err := fwd.Configure(dataplane.SessionConfig{ID: 1, Params: small, Role: dataplane.RoleForwarder}); err != nil {
		return err
	}
	fwd.Table().Set(1, []dataplane.HopGroup{{Addrs: []string{"A"}}})
	lt.forward = timeLoop(d, 256, func() { fwd.InjectPacket(fwdPkt) })

	// Sink: the 2q arrivals of each generation, deliveries drained.
	sink := dataplane.NewVNF(newSinkConn(false), w.vnfOptions()...)
	defer sink.Close()
	if err := sink.Configure(dataplane.SessionConfig{ID: 1, Params: p, Role: dataplane.RoleDecoder}); err != nil {
		return err
	}
	gid, delivered := 0, 0
	lt.sink = timeLoop(d, 1, func() {
		tr.toSink.address(1, ncproto.GenerationID(gid))
		gid++
		for _, pkt := range tr.toSink {
			sink.InjectPacket(pkt)
		}
		select {
		case <-sink.Deliveries():
			delivered++
		default:
		}
	}) / float64(len(tr.toSink))
	if delivered != gid {
		return fmt.Errorf("sink timing: %d of %d generations decoded", delivered, gid)
	}

	// Source: SendGeneration into a counting conn.
	conn := newSinkConn(false)
	src, err := newSource(w, 0, conn, seed, 0)
	if err != nil {
		return err
	}
	defer src.Close()
	data := make([]byte, p.GenerationBytes())
	gens := 0
	perGen := timeLoop(d, 1, func() {
		if _, serr := src.SendGeneration(data, false); serr != nil {
			err = serr
		}
		gens++
	})
	if err != nil {
		return err
	}
	lt.source = perGen * float64(gens) / float64(conn.sent)

	// Forwarding-table read at the workload's session count, and a 32-entry
	// push at 512 sessions.
	ft := dataplane.NewForwardingTable()
	for s := 0; s < w.sessions; s++ {
		ft.Set(sessionID(s), relayHops(q)["O1"])
	}
	var groups []dataplane.HopGroup
	s := 0
	lt.tableRead = timeLoop(d, 1024, func() { groups = ft.AppendGroups(groups[:0], sessionID(s%w.sessions)); s++ })

	const pushSessions = 512
	pb, err := newRelayBench(w, "O1", pushSessions, tr.toO1)
	if err != nil {
		return err
	}
	defer pb.v.Close()
	entries := make(map[ncproto.SessionID][]dataplane.HopGroup, tablePushEntries)
	for s := 0; s < tablePushEntries; s++ {
		entries[sessionID(s)] = relayHops(q)["O1"]
	}
	lt.tablePushUs = timeLoop(d, 4, func() { pb.v.UpdateTable(entries) }) / 1e3
	return nil
}

// The loopback UDP timing moves udpBatchPackets datagrams of udpPacketBytes
// per iteration.
const (
	udpBatchPackets = 16
	udpPacketBytes  = 1024
)

func (lt *layerTimes) measureTransport(w *workload, d time.Duration) error {
	// One unconstrained in-process hop: Host.Send to Host.Recv.
	network := emunet.NewNetwork(emunet.AllowDefault())
	defer network.Close()
	a, b := network.Host("a"), network.Host("b")
	pkt := make([]byte, w.wireLen())
	var err error
	lt.inprocHop = timeLoop(d, 256, func() {
		if serr := a.Send("b", pkt); serr != nil {
			err = serr
			return
		}
		got, _, rerr := b.Recv()
		if rerr != nil {
			err = rerr
			return
		}
		buffer.PutPacket(got)
	})
	if err != nil {
		return err
	}

	// Loopback UDP through the batched socket path.
	registry := emunet.NewRegistry()
	tx, err := emunet.ListenUDP("tx", "127.0.0.1:0", registry, emunet.WithRxBatch(batchDepth))
	if err != nil {
		return err
	}
	defer tx.Close()
	rx, err := emunet.ListenUDP("rx", "127.0.0.1:0", registry, emunet.WithRxBatch(batchDepth))
	if err != nil {
		return err
	}
	defer rx.Close()
	registry.Register("rx", rx.UDPAddr())
	// A lost datagram would leave RecvBatch waiting forever; closing the
	// sockets well after the timing should have ended turns that into an
	// error instead of a hang.
	watchdog := time.AfterFunc(d+10*time.Second, func() { tx.Close(); rx.Close() })
	defer watchdog.Stop()
	out := make([]emunet.Datagram, udpBatchPackets)
	for i := range out {
		out[i] = emunet.Datagram{Peer: "rx", Pkt: make([]byte, udpPacketBytes)}
	}
	in := make([]emunet.Datagram, udpBatchPackets)
	perBatch := timeLoop(d, 1, func() {
		if err != nil {
			return
		}
		if _, err = tx.SendBatch(out); err != nil {
			return
		}
		for got := 0; got < udpBatchPackets && err == nil; {
			var n int
			n, err = rx.RecvBatch(in)
			for i := 0; i < n; i++ {
				buffer.PutPacket(in[i].Pkt)
			}
			got += n
		}
	})
	lt.udpHop = perBatch / udpBatchPackets
	return err
}

// measurePlan times optimize.Solve on the one-session butterfly.
func (lt *layerTimes) measurePlan(d time.Duration) error {
	g, src, dsts := topology.Butterfly()
	var dcs []optimize.DataCenter
	for _, name := range relayNames {
		dcs = append(dcs, optimize.DataCenter{ID: topology.NodeID(name), BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500})
	}
	cfg := optimize.Config{Graph: g, DataCenters: dcs, Alpha: 0.1}
	sessions := []optimize.Session{{ID: 1, Source: src, Receivers: dsts, MaxDelay: 150 * time.Millisecond}}
	var err error
	lt.planSolveMs = timeLoop(d, 1, func() {
		if _, serr := optimize.Solve(cfg, sessions); serr != nil {
			err = serr
		}
	}) / 1e6
	return err
}
