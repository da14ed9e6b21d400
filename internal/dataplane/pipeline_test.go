package dataplane

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
)

// TestPipelineMultiSessionButterflyRace drives several sessions through the
// sharded butterfly at once while the control plane churns: forwarding
// tables are re-pushed (pause/resume on every shard) and one session is
// torn down mid-flight. Run under -race this exercises every lock on the
// packet path; the functional assertion is that the surviving sessions
// still decode.
func TestPipelineMultiSessionButterflyRace(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	sessions := []ncproto.SessionID{1, 2, 3, 4}
	const endedSession = ncproto.SessionID(3)

	hopsFor := func(relay string, s ncproto.SessionID) []HopGroup {
		suffix := fmt.Sprintf("-s%d", s)
		switch relay {
		case "O1":
			return []HopGroup{
				{Addrs: []string{"O2" + suffix}, PerGen: 2},
				{Addrs: []string{"T"}, PerGen: 2},
			}
		case "C1":
			return []HopGroup{
				{Addrs: []string{"C2" + suffix}, PerGen: 2},
				{Addrs: []string{"T"}, PerGen: 2},
			}
		case "T":
			return []HopGroup{{Addrs: []string{"V2"}, PerGen: 2}}
		case "V2":
			return []HopGroup{
				{Addrs: []string{"O2" + suffix}, PerGen: 2},
				{Addrs: []string{"C2" + suffix}, PerGen: 2},
			}
		}
		t.Fatalf("unknown relay %q", relay)
		return nil
	}

	relays := make(map[string]*VNF)
	for i, name := range []string{"O1", "C1", "T", "V2"} {
		inPerGen := 2
		if name == "T" {
			inPerGen = 4
		}
		v := NewVNF(n.Host(name), WithSeed(int64(101+i)), WithWorkers(4))
		for _, s := range sessions {
			if err := v.Configure(SessionConfig{ID: s, Params: params, Role: RoleRecoder, InPerGen: inPerGen}); err != nil {
				t.Fatal(err)
			}
			v.Table().Set(s, hopsFor(name, s))
		}
		v.Start()
		t.Cleanup(func() { v.Close() })
		relays[name] = v
	}

	type rx struct {
		s    ncproto.SessionID
		o, c *MultiReceiver
	}
	var receivers []rx
	for _, s := range sessions {
		suffix := fmt.Sprintf("-s%d", s)
		o, err := newSink(n.Host("O2"+suffix), s, params, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { o.Close() })
		c, err := newSink(n.Host("C2"+suffix), s, params, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		receivers = append(receivers, rx{s: s, o: o, c: c})
	}

	const ngen = 10
	genBytes := params.GenerationBytes()
	data := make(map[ncproto.SessionID][]byte)
	var wg sync.WaitGroup
	stopChurn := make(chan struct{})

	// Control-plane churn: re-push each relay's table (same content, full
	// pause/resume on every shard) while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopChurn:
				return
			default:
			}
			for name, v := range relays {
				entries := make(map[ncproto.SessionID][]HopGroup)
				for _, s := range sessions {
					entries[s] = hopsFor(name, s)
				}
				v.UpdateTable(entries)
				v.Stats()
				v.SessionStatsFor(sessions[0])
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Tear one session down mid-flight at the merge node.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		relays["T"].EndSession(endedSession)
	}()

	for _, s := range sessions {
		data[s] = randomBytes(int64(300+int(s)), ngen*genBytes)
	}
	for _, s := range sessions {
		s, payload := s, data[s]
		src, err := NewSource(n.Host(fmt.Sprintf("V1-s%d", s)), SourceConfig{
			Session: s, Params: params, Systematic: true, Seed: int64(7 + int(s)),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { src.Close() })
		src.SetHops([]HopGroup{
			{Addrs: []string{"O1"}, PerGen: 2},
			{Addrs: []string{"C1"}, PerGen: 2},
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, sent, err := src.SendData(payload); err != nil || sent != ngen {
				t.Errorf("session %d: sent %d generations, err %v", s, sent, err)
			}
		}()
	}

	// Surviving sessions must decode (allow the same small linear-dependency
	// slack as the single-session butterfly test).
	ok := waitFor(t, 15*time.Second, func() bool {
		for _, r := range receivers {
			if r.s == endedSession {
				continue
			}
			if r.o.Generations(r.s) < ngen-2 || r.c.Generations(r.s) < ngen-2 {
				return false
			}
		}
		return true
	})
	close(stopChurn)
	wg.Wait()
	if !ok {
		for _, r := range receivers {
			t.Logf("session %d: O2=%d C2=%d of %d", r.s, r.o.Generations(r.s), r.c.Generations(r.s), ngen)
		}
		t.Fatal("surviving sessions did not decode through the sharded pipeline")
	}
	for _, r := range receivers {
		if r.s == endedSession {
			continue
		}
		for _, recv := range []*MultiReceiver{r.o, r.c} {
			for g := 0; g < ngen; g++ {
				got, ok := recv.GenerationData(r.s, ncproto.GenerationID(g))
				if !ok {
					continue
				}
				if !bytes.Equal(got, data[r.s][g*genBytes:(g+1)*genBytes]) {
					t.Fatalf("session %d generation %d content mismatch", r.s, g)
				}
			}
		}
	}
}

// TestVNFPacketPathZeroAlloc pins the tentpole's allocation claim end to
// end: once a generation's coding state and the shard scratch are warm, a
// recoder VNF processes and re-emits a packet with zero heap allocations —
// header peek, session lookup, single-pass decode, basis update, buffer
// tracking, recoded emission, wire encode, and the pooled emunet send.
func TestVNFPacketPathZeroAlloc(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	n.Host("sink") // exists so sends are routable; its inbox is never drained
	v := NewVNF(n.Host("v"), WithSeed(9), WithWorkers(1))
	if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
		t.Fatal(err)
	}
	v.Table().Set(1, []HopGroup{{Addrs: []string{"sink"}}})

	enc, err := rlnc.NewEncoder(params, randomBytes(1, params.GenerationBytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([][]byte, 8)
	for i := range pkts {
		cb := enc.Coded()
		pkts[i] = (&ncproto.Packet{
			Session: 1, Generation: 5, Coeffs: cb.Coeffs, Payload: cb.Payload,
		}).Encode(nil)
	}
	// Warm up past the sink's inbox capacity so the emulated network reaches
	// its steady state (every delivery recycles a pooled buffer) and all
	// per-generation state and shard scratch exist.
	for i := 0; i < 5000; i++ {
		v.handlePacket(pkts[i%len(pkts)], "src")
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		v.handlePacket(pkts[i%len(pkts)], "src")
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state packet path allocated %.1f times per packet, want 0", allocs)
	}
}

// benchConn is an in-memory PacketConn that serves a pre-encoded packet
// ring to Recv and counts (then discards) sends, so VNF benchmarks measure
// coding-path cost without network emulation overhead.
type benchConn struct {
	pkts  [][]byte
	limit int64
	next  atomic.Int64
	sent  atomic.Int64

	closeOnce sync.Once
	closed    chan struct{}
}

func newBenchConn(pkts [][]byte, limit int64) *benchConn {
	return &benchConn{pkts: pkts, limit: limit, closed: make(chan struct{})}
}

func (c *benchConn) Recv() ([]byte, string, error) {
	i := c.next.Add(1) - 1
	if i >= c.limit {
		<-c.closed // hold the receive loop open until the VNF closes
		return nil, "", emunet.ErrClosed
	}
	return c.pkts[i%int64(len(c.pkts))], "bench", nil
}

func (c *benchConn) Send(string, []byte) error {
	c.sent.Add(1)
	return nil
}

func (c *benchConn) LocalAddr() string { return "bench" }

func (c *benchConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// benchRing pre-encodes a ring of packets across several sessions,
// interleaved so consecutive arrivals land on different shards.
func benchRing(b *testing.B, params rlnc.Params, sessions, gens int) [][]byte {
	b.Helper()
	k := params.GenerationBlocks
	perSession := make([][][]byte, sessions)
	for s := 0; s < sessions; s++ {
		for g := 0; g < gens; g++ {
			enc, err := rlnc.NewEncoder(params, randomBytes(int64(1000+s*gens+g), params.GenerationBytes()), int64(s*gens+g))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < k; i++ {
				cb := enc.Coded()
				perSession[s] = append(perSession[s], (&ncproto.Packet{
					Session:    ncproto.SessionID(s + 1),
					Generation: ncproto.GenerationID(g),
					Coeffs:     cb.Coeffs,
					Payload:    cb.Payload,
				}).Encode(nil))
			}
		}
	}
	var ring [][]byte
	for i := 0; i < gens*k; i++ {
		for s := 0; s < sessions; s++ {
			ring = append(ring, perSession[s][i])
		}
	}
	return ring
}

func benchVNF(b *testing.B, conn emunet.PacketConn, params rlnc.Params, sessions, workers int) *VNF {
	b.Helper()
	v := NewVNF(conn, WithSeed(77), WithWorkers(workers))
	for s := 0; s < sessions; s++ {
		id := ncproto.SessionID(s + 1)
		if err := v.Configure(SessionConfig{ID: id, Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
			b.Fatal(err)
		}
		v.Table().Set(id, []HopGroup{{Addrs: []string{"sink"}}})
	}
	return v
}

// BenchmarkVNFPipeline measures single-VNF recode throughput with traffic
// spread across concurrent sessions: the serial baseline processes every
// packet inline on one goroutine (the seed data plane's structure), the
// sharded variants run the receive-dispatch pipeline with 1 and 4 workers.
// Bytes/op is coded payload through the VNF.
func BenchmarkVNFPipeline(b *testing.B) {
	params := rlnc.Params{GenerationBlocks: 4, BlockSize: 1460}
	const sessions = 8
	ring := benchRing(b, params, sessions, 8)

	b.Run("serial", func(b *testing.B) {
		conn := newBenchConn(ring, 0)
		v := benchVNF(b, conn, params, sessions, 1)
		b.SetBytes(int64(params.BlockSize))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.handlePacket(ring[i%len(ring)], "bench")
		}
	})

	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			conn := newBenchConn(ring, int64(b.N))
			v := benchVNF(b, conn, params, sessions, workers)
			b.SetBytes(int64(params.BlockSize))
			b.ResetTimer()
			v.Start()
			// Wait until every served packet has been processed by a shard.
			target := uint64(b.N)
			for {
				var done uint64
				for s := 0; s < sessions; s++ {
					if st, ok := v.SessionStatsFor(ncproto.SessionID(s + 1)); ok {
						done += st.PacketsIn
					}
				}
				if done >= target {
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			b.StopTimer()
			v.Close()
		})
	}
}
