package dataplane

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
)

// nullConn is a PacketConn whose Send discards packets without copying, so
// allocation measurements see only the sender's own work.
type nullConn struct {
	done chan struct{}
}

func newNullConn() *nullConn { return &nullConn{done: make(chan struct{})} }

func (c *nullConn) Send(string, []byte) error { return nil }

func (c *nullConn) Recv() ([]byte, string, error) {
	<-c.done
	return nil, "", emunet.ErrClosed
}

func (c *nullConn) LocalAddr() string { return "null" }

func (c *nullConn) Close() error {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	return nil
}

// TestSourceEmissionAllocsConstant is the send-side alloc regression test:
// with CodedInto and the reusable wire buffer, per-generation allocations
// must not scale with the number of packets emitted.
func TestSourceEmissionAllocsConstant(t *testing.T) {
	measure := func(redundancy int) float64 {
		src, err := NewSource(newNullConn(), SourceConfig{
			Session: 1, Params: smallParams(), Seed: 3, Redundancy: redundancy,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		src.SetHops([]HopGroup{{Addrs: []string{"sink"}}})
		data := randomBytes(4, smallParams().GenerationBytes())
		if _, err := src.SendGeneration(data, false); err != nil { // size the scratch
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := src.SendGeneration(data, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	lean := measure(0)   // 4 packets per generation
	heavy := measure(16) // 20 packets per generation
	if heavy > lean+1 {
		t.Fatalf("emission allocations scale with packet count: %.1f allocs at redundancy 16 vs %.1f at 0", heavy, lean)
	}
}

// TestSourceSteadyStateAllocs pins the source's codec reuse: one encoder,
// reset per generation, emitting into one coded block — so neither sending
// nor re-sending a generation allocates (no per-generation source blocks, no
// per-packet coefficient vectors or payload copies), systematic or not.
func TestSourceSteadyStateAllocs(t *testing.T) {
	for _, systematic := range []bool{false, true} {
		src, err := NewSource(newNullConn(), SourceConfig{
			Session: 1, Params: smallParams(), Seed: 3, Redundancy: 2, Systematic: systematic,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		src.SetHops([]HopGroup{{Addrs: []string{"sink"}}})
		data := randomBytes(4, smallParams().GenerationBytes())
		generation := func() {
			gid, err := src.SendGeneration(data, false)
			if err == nil {
				err = src.ResendGeneration(gid, data, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		generation() // size the scratch
		if allocs := testing.AllocsPerRun(50, generation); allocs != 0 {
			t.Fatalf("systematic=%v: source allocated %.1f times per generation sent and re-sent, want 0", systematic, allocs)
		}
	}
}

// TestBatchedDecoderPipeline drives several sessions through a started
// (worker-sharded) decoder VNF at full rate, so shard queues run deep and
// the run-drain + AddBatch path is exercised, and verifies every generation
// decodes to the source bytes. Run under -race this is the batched data
// path's race coverage.
func TestBatchedDecoderPipeline(t *testing.T) {
	const (
		sessions    = 4
		generations = 24
	)
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()

	dec := NewVNF(n.Host("dec"), WithSeed(9), WithWorkers(4))
	for s := 1; s <= sessions; s++ {
		if err := dec.Configure(SessionConfig{ID: ncproto.SessionID(s), Params: params, Role: RoleDecoder}); err != nil {
			t.Fatal(err)
		}
	}
	dec.Start()
	defer dec.Close()

	var mu sync.Mutex
	got := make(map[ncproto.SessionID]map[ncproto.GenerationID][]byte)
	go func() {
		for d := range dec.Deliveries() {
			mu.Lock()
			if got[d.Session] == nil {
				got[d.Session] = make(map[ncproto.GenerationID][]byte)
			}
			got[d.Session][d.Generation] = append([]byte(nil), d.Data...)
			mu.Unlock()
		}
	}()

	want := make(map[ncproto.SessionID][]byte)
	var wg sync.WaitGroup
	for s := 1; s <= sessions; s++ {
		sid := ncproto.SessionID(s)
		data := randomBytes(int64(100+s), generations*params.GenerationBytes())
		want[sid] = data
		src, err := NewSource(n.Host(fmt.Sprintf("src%d", s)), SourceConfig{
			Session: sid, Params: params, Seed: int64(s), Redundancy: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		src.SetHops([]HopGroup{{Addrs: []string{"dec"}}})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := src.SendData(data); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := 0
		for s := 1; s <= sessions; s++ {
			done += len(got[ncproto.SessionID(s)])
		}
		mu.Unlock()
		if done == sessions*generations {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for s := 1; s <= sessions; s++ {
		sid := ncproto.SessionID(s)
		if len(got[sid]) != generations {
			t.Fatalf("session %d: decoded %d of %d generations", s, len(got[sid]), generations)
		}
		genBytes := params.GenerationBytes()
		for g := 0; g < generations; g++ {
			wantGen := want[sid][g*genBytes : (g+1)*genBytes]
			gotGen, ok := got[sid][ncproto.GenerationID(g)]
			if !ok || !bytes.Equal(gotGen, wantGen) {
				t.Fatalf("session %d generation %d: decoded bytes differ", s, g)
			}
		}
	}
	if st := dec.Stats(); st.GenerationsDone != sessions*generations {
		t.Fatalf("decoder stats report %d generations, want %d", st.GenerationsDone, sessions*generations)
	}
}

// TestDecoderSerialBatchEquivalence feeds the same packet sequence through
// the serial per-packet path (handlePacket) and through a run processed by
// processRun, and checks both deliver identical generations — the dataplane
// analogue of the rlnc differential test.
func TestDecoderSerialBatchEquivalence(t *testing.T) {
	params := smallParams()
	data := randomBytes(42, params.GenerationBytes())
	enc, err := rlnc.NewEncoder(params, data, 7)
	if err != nil {
		t.Fatal(err)
	}
	var wires [][]byte
	for i := 0; i < params.GenerationBlocks+2; i++ {
		cb := enc.Coded()
		wires = append(wires, (&ncproto.Packet{
			Session: 1, Generation: 3, Coeffs: cb.Coeffs, Payload: cb.Payload,
		}).Encode(nil))
	}

	build := func(name string) *VNF {
		n := emunet.NewNetwork(emunet.AllowDefault())
		t.Cleanup(func() { n.Close() })
		v := NewVNF(n.Host(name), WithWorkers(1))
		if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleDecoder}); err != nil {
			t.Fatal(err)
		}
		return v
	}

	serial := build("serial")
	for _, w := range wires {
		serial.handlePacket(w, "peer")
	}

	batched := build("batched")
	sh := batched.shards[0]
	jobs := make([]pktJob, len(wires))
	for i, w := range wires {
		hdr, err := ncproto.PeekHeader(w)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = pktJob{pkt: w, hdr: hdr}
	}
	batched.processRun(sh, jobs)

	var sDel, bDel Delivery
	select {
	case sDel = <-serial.Deliveries():
	default:
		t.Fatal("serial path delivered nothing")
	}
	select {
	case bDel = <-batched.Deliveries():
	default:
		t.Fatal("batched path delivered nothing")
	}
	if !bytes.Equal(sDel.Data, bDel.Data) || !bytes.Equal(sDel.Data, data) {
		t.Fatal("batched delivery differs from serial delivery or source")
	}
	ss := serial.Stats()
	bs := batched.Stats()
	if ss.GenerationsDone != bs.GenerationsDone || ss.PacketsDropped != bs.PacketsDropped {
		t.Fatalf("stats diverge: serial %+v batched %+v", ss, bs)
	}
}
