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
	"ncfn/internal/telemetry"
)

// captureConn records every Send in order; Recv is never used (tests drive
// the VNF through InjectPacket).
type captureConn struct {
	addr  string
	mu    sync.Mutex
	dsts  []string
	pkts  [][]byte
	close chan struct{}
	once  sync.Once
}

func newCaptureConn(addr string) *captureConn {
	return &captureConn{addr: addr, close: make(chan struct{})}
}

func (c *captureConn) Send(dst string, pkt []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dsts = append(c.dsts, dst)
	c.pkts = append(c.pkts, append([]byte(nil), pkt...))
	return nil
}

func (c *captureConn) Recv() ([]byte, string, error) {
	<-c.close
	return nil, "", emunet.ErrClosed
}

func (c *captureConn) LocalAddr() string { return c.addr }

func (c *captureConn) Close() error {
	c.once.Do(func() { close(c.close) })
	return nil
}

// TestTableRCUAtomicBatches pins snapshot atomicity: concurrent readers of a
// table being rewritten by whole-batch pushes must always observe one
// consistent version — every session pointing at the same generation of
// addresses — never a half-applied batch.
func TestTableRCUAtomicBatches(t *testing.T) {
	tab := NewForwardingTable()
	const sessions = 16
	push := func(tag string) {
		entries := map[ncproto.SessionID][]HopGroup{}
		for s := 1; s <= sessions; s++ {
			entries[ncproto.SessionID(s)] = []HopGroup{{Addrs: []string{tag}}}
		}
		tab.ApplyBatch(entries)
	}
	push("v0")

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hops []string
			for !stop.Load() {
				want := ""
				for s := 1; s <= sessions; s++ {
					hops = tab.AppendNextHops(hops[:0], ncproto.SessionID(s), 7)
					if len(hops) != 1 {
						errs <- fmt.Sprintf("session %d: %d hops", s, len(hops))
						return
					}
					if want == "" {
						want = hops[0]
					}
					// Reader raced a push: a later session may already show
					// the next version, but never a torn entry.
					if hops[0] != want && hops[0] != "" {
						want = hops[0]
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		push(fmt.Sprintf("v%d", i+1))
	}
	stop.Store(true)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	if got := tab.Version(); got < 201 {
		t.Fatalf("table version = %d, want >= 201", got)
	}
}

// TestUpdateTableCountsSwaps pins that every table push counts as one swap.
func TestUpdateTableCountsSwaps(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	reg := telemetry.NewRegistry()
	v := NewVNF(n.Host("v"), WithTelemetry(reg))
	v.Start()
	defer v.Close()

	v.UpdateTable(map[ncproto.SessionID][]HopGroup{1: {{Addrs: []string{"x"}}}})
	v.UpdateTable(map[ncproto.SessionID][]HopGroup{1: {{Addrs: []string{"y"}}}})
	if got := reg.Counter(MetricTableSwaps, 1).Value(); got != 2 {
		t.Fatalf("table swaps = %d, want 2", got)
	}
}

// pauseUpdateTable is the reference the RCU table push is held against:
// every shard stopped for the swap, the way drain stops them. Locks are
// taken in shard order, so it cannot deadlock against workers that each
// hold only their own shard's lock.
func (v *VNF) pauseUpdateTable(entries map[ncproto.SessionID][]HopGroup) {
	for _, sh := range v.shards {
		sh.pauseMu.Lock()
	}
	defer func() {
		for i := len(v.shards) - 1; i >= 0; i-- {
			v.shards[i].pauseMu.Unlock()
		}
	}()
	v.table.ApplyBatch(entries)
}

// differentialTrace drives one recoder VNF through a fixed packet trace with
// table pushes interleaved at fixed packet indices, and returns the exact
// emission sequence (destination + wire bytes, in order).
func differentialTrace(t *testing.T, pause bool) ([]string, [][]byte) {
	t.Helper()
	params := smallParams()
	conn := newCaptureConn("relay")
	v := NewVNF(conn, WithSeed(42))
	defer v.Close()
	update := v.UpdateTable
	if pause {
		update = v.pauseUpdateTable
	}

	const sessions = 3
	for s := 1; s <= sessions; s++ {
		if err := v.Configure(SessionConfig{ID: ncproto.SessionID(s), Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
			t.Fatal(err)
		}
	}
	push := func(tag string) {
		entries := map[ncproto.SessionID][]HopGroup{}
		for s := 1; s <= sessions; s++ {
			entries[ncproto.SessionID(s)] = []HopGroup{{Addrs: []string{"sink-" + tag}}}
		}
		update(entries)
	}
	push("a")

	k := params.GenerationBlocks
	idx := 0
	for g := 0; g < 6; g++ {
		for s := 1; s <= sessions; s++ {
			enc, err := rlnc.NewEncoder(params, randomBytes(int64(100+10*g+s), params.GenerationBytes()), int64(g*sessions+s))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k+1; i++ {
				cb := enc.Coded()
				wire := (&ncproto.Packet{
					Session:    ncproto.SessionID(s),
					Generation: ncproto.GenerationID(g),
					Coeffs:     cb.Coeffs,
					Payload:    cb.Payload,
				}).Encode(nil)
				v.InjectPacket(wire)
				idx++
				// Interleaved controller pushes, same packet indices in both
				// modes: flip the whole table between two hop sets.
				if idx%7 == 0 {
					push("b")
				} else if idx%11 == 0 {
					push("a")
				}
			}
		}
	}
	return conn.dsts, conn.pkts
}

// TestTableSwapDifferentialRCUvsPause pins the RCU read path bit-identical
// to a pause-locked swap (pauseUpdateTable): the same packet trace with the
// same interleaved table pushes produces the same forwarding decisions — the
// identical sequence of (destination, wire bytes) emissions.
func TestTableSwapDifferentialRCUvsPause(t *testing.T) {
	rcuDst, rcuPkt := differentialTrace(t, false)
	pseDst, psePkt := differentialTrace(t, true)
	if len(rcuDst) == 0 {
		t.Fatal("trace produced no emissions")
	}
	if len(rcuDst) != len(pseDst) {
		t.Fatalf("emission count differs: rcu %d, pause %d", len(rcuDst), len(pseDst))
	}
	for i := range rcuDst {
		if rcuDst[i] != pseDst[i] {
			t.Fatalf("emission %d destination differs: rcu %q, pause %q", i, rcuDst[i], pseDst[i])
		}
		if !bytes.Equal(rcuPkt[i], psePkt[i]) {
			t.Fatalf("emission %d bytes differ between rcu and pause paths", i)
		}
	}
}

// TestTableSwapConcurrentDifferential runs the same end-to-end transfer —
// src → recoder relay → decoder receiver — under RCU pushes and under
// pause-locked ones (pauseUpdateTable) while a goroutine hammers semantically
// identical table pushes, and requires every generation to decode in both.
// Under -race this is also the memory-safety proof for lock-free reads racing
// copy-on-write publishes.
func TestTableSwapConcurrentDifferential(t *testing.T) {
	run := func(pause bool) int {
		n := emunet.NewNetwork(emunet.AllowDefault())
		defer n.Close()
		params := smallParams()
		relay := NewVNF(n.Host("relay"), WithSeed(5))
		update := relay.UpdateTable
		if pause {
			update = relay.pauseUpdateTable
		}
		if err := relay.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
			t.Fatal(err)
		}
		relay.Table().Set(1, []HopGroup{{Addrs: []string{"recv"}}})
		relay.Start()
		defer relay.Close()

		src, err := NewSource(n.Host("src"), SourceConfig{
			Session: 1, Params: params, Systematic: true, Seed: 3, Redundancy: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		recv, err := newSink(n.Host("recv"), 1, params, "src")
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		src.SetHops([]HopGroup{{Addrs: []string{"relay"}}})

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Push the same forwarding semantics over and over (plus churn on
			// unrelated sessions) so correctness is mode-independent while the
			// swap machinery runs hot.
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				update(map[ncproto.SessionID][]HopGroup{
					1:                            {{Addrs: []string{"recv"}}},
					ncproto.SessionID(100 + i%8): {{Addrs: []string{"elsewhere"}}},
				})
			}
		}()

		const gens = 20
		data := randomBytes(9, gens*params.GenerationBytes())
		if _, _, err := src.SendData(data); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool { return recv.Generations(1) == gens })
		close(stop)
		wg.Wait()
		return recv.Generations(1)
	}

	if rcuGens, pauseGens := run(false), run(true); rcuGens != 20 || pauseGens != 20 {
		t.Fatalf("decode verdicts differ under concurrent pushes: rcu %d/20, pause %d/20", rcuGens, pauseGens)
	}
}

// BenchmarkTableRead measures the lock-free per-packet lookup against a
// populated table, alone and while a writer continuously publishes updates —
// the forwarding-path cost the RCU design optimizes for.
func BenchmarkTableRead(b *testing.B) {
	tab := NewForwardingTable()
	const sessions = 4096
	entries := map[ncproto.SessionID][]HopGroup{}
	for s := 1; s <= sessions; s++ {
		entries[ncproto.SessionID(s)] = []HopGroup{
			{Addrs: []string{"a", "b", "c"}, PerGen: 2},
			{Addrs: []string{"d"}},
		}
	}
	tab.ApplyBatch(entries)

	b.Run("steady", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var hops []string
			var s ncproto.SessionID
			for pb.Next() {
				s = (s + 1) % sessions
				hops = tab.AppendNextHops(hops[:0], s+1, 7)
			}
			_ = hops
		})
	})
	b.Run("contended", func(b *testing.B) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tab.Set(1, []HopGroup{{Addrs: []string{"a"}}})
				}
			}
		}()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var hops []string
			var s ncproto.SessionID
			for pb.Next() {
				s = (s + 1) % sessions
				hops = tab.AppendNextHops(hops[:0], s+1, 7)
			}
			_ = hops
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}
