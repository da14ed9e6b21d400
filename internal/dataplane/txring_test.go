package dataplane

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ncfn/internal/emunet"
	"ncfn/internal/rlnc"
)

// batchRecorder is a BatchPacketConn double that records every SendBatch
// call, for pinning the coalescer's flush policy and ordering.
type batchRecorder struct {
	batches [][]emunet.Datagram
	sends   []emunet.Datagram
}

func (r *batchRecorder) Send(dst string, pkt []byte) error {
	r.sends = append(r.sends, emunet.Datagram{Peer: dst, Pkt: append([]byte(nil), pkt...)})
	return nil
}

func (r *batchRecorder) SendBatch(batch []emunet.Datagram) (int, error) {
	cp := make([]emunet.Datagram, len(batch))
	for i, d := range batch {
		cp[i] = emunet.Datagram{Peer: d.Peer, Pkt: append([]byte(nil), d.Pkt...)}
	}
	r.batches = append(r.batches, cp)
	return len(batch), nil
}

func (r *batchRecorder) RecvBatch(buf []emunet.Datagram) (int, error) { return 0, emunet.ErrClosed }
func (r *batchRecorder) Recv() ([]byte, string, error)                { return nil, "", emunet.ErrClosed }
func (r *batchRecorder) LocalAddr() string                            { return "rec" }
func (r *batchRecorder) Close() error                                 { return nil }

func TestTxCoalescerDisabled(t *testing.T) {
	rec := &batchRecorder{}
	if c := newTxCoalescer(rec, 1); c != nil {
		t.Fatal("depth 1 should disable coalescing")
	}
	if c := newTxCoalescer(rec, 0); c != nil {
		t.Fatal("depth 0 should disable coalescing")
	}
	// A plain PacketConn (no batch path) disables coalescing too.
	net := emunet.NewNetwork(emunet.AllowDefault())
	defer net.Close()
	if c := newTxCoalescer(net.Host("h"), 8); c != nil {
		t.Fatal("non-batch conn should disable coalescing")
	}
}

func TestTxCoalescerFlushPolicy(t *testing.T) {
	rec := &batchRecorder{}
	c := newTxCoalescer(rec, 4)
	if c == nil {
		t.Fatal("coalescer not built over a BatchPacketConn")
	}
	pkt := func(i int) []byte { return []byte(fmt.Sprintf("p%02d", i)) }
	// Three packets to A: under depth, nothing flushes.
	for i := 0; i < 3; i++ {
		if err := c.add("A", pkt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.batches) != 0 {
		t.Fatalf("flushed early: %d batches", len(rec.batches))
	}
	if c.pending() != 3 {
		t.Fatalf("pending = %d, want 3", c.pending())
	}
	// Fourth hits the depth: ring flushes as one batch, in order.
	if err := c.add("A", pkt(3)); err != nil {
		t.Fatal(err)
	}
	if len(rec.batches) != 1 || len(rec.batches[0]) != 4 {
		t.Fatalf("want one 4-packet batch, got %v", rec.batches)
	}
	for i, d := range rec.batches[0] {
		if d.Peer != "A" || string(d.Pkt) != string(pkt(i)) {
			t.Fatalf("batch[%d] = %q->%q, want A->%q (order broken?)", i, d.Peer, d.Pkt, pkt(i))
		}
	}
	// Mixed destinations under depth, then a drain flush: per-destination
	// batches in first-use order, each FIFO.
	c.add("B", pkt(10))
	c.add("C", pkt(20))
	c.add("B", pkt(11))
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if c.pending() != 0 {
		t.Fatalf("pending after flush = %d", c.pending())
	}
	// Ring A flushes first (first-use order) but is empty; B then C follow.
	if len(rec.batches) != 3 {
		t.Fatalf("want 3 batches total, got %d", len(rec.batches))
	}
	b1, b2 := rec.batches[1], rec.batches[2]
	if len(b1) != 2 || b1[0].Peer != "B" || string(b1[0].Pkt) != "p10" || string(b1[1].Pkt) != "p11" {
		t.Fatalf("B ring wrong: %v", b1)
	}
	if len(b2) != 1 || b2[0].Peer != "C" || string(b2[0].Pkt) != "p20" {
		t.Fatalf("C ring wrong: %v", b2)
	}
}

// TestUDPPipelineCoalesced runs the full source -> recoder -> receiver
// pipeline over loopback UDP with tx coalescing on at every stage, and
// checks the decoded bytes match — the end-to-end twin of the emunet
// differential test.
func TestUDPPipelineCoalesced(t *testing.T) {
	params := rlnc.Params{GenerationBlocks: 8, BlockSize: 256}
	registry := emunet.NewRegistry()
	srcConn, err := emunet.ListenUDP("cz-src", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	relayConn, err := emunet.ListenUDP("cz-relay", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	recvConn, err := emunet.ListenUDP("cz-recv", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}

	relay := NewVNF(relayConn, WithSeed(5), WithTxCoalesce(16))
	if err := relay.Configure(SessionConfig{ID: 9, Params: params, Role: RoleRecoder, Redundancy: 2}); err != nil {
		t.Fatal(err)
	}
	relay.Table().Set(9, []HopGroup{{Addrs: []string{"cz-recv"}}})
	relay.Start()
	defer relay.Close()

	// Paced: an unpaced batched source can outrun the relay's kernel rx
	// buffer, and UDP drops beyond the redundancy budget make the decode
	// count nondeterministic.
	src, err := NewSource(srcConn, SourceConfig{
		Session: 9, Params: params, Systematic: true, Redundancy: 2, Seed: 2, TxBatch: 16,
		RateMbps: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetHops([]HopGroup{{Addrs: []string{"cz-relay"}}})

	recv, err := newSink(recvConn, 9, params, "cz-src")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	const ngen = 16
	data := randomBytes(42, ngen*params.GenerationBytes())
	if _, sent, err := src.SendData(data); err != nil || sent != ngen {
		t.Fatalf("send: %d, %v", sent, err)
	}
	if !waitFor(t, 10*time.Second, func() bool { return recv.Generations(9) == ngen }) {
		t.Fatalf("decoded %d of %d generations with coalescing", recv.Generations(9), ngen)
	}
	got, ok := recv.Data(9, ngen)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("coalesced UDP pipeline data mismatch")
	}
}

// BenchmarkUDPPipeline measures the real-socket pipeline end to end:
// source -> recoding VNF -> receiver on loopback, one full generation
// decoded per iteration, per-packet sends vs depth-16 coalescing.
func BenchmarkUDPPipeline(b *testing.B) {
	for _, depth := range []int{1, 16} {
		b.Run(fmt.Sprintf("txbatch=%d", depth), func(b *testing.B) {
			params := rlnc.Params{GenerationBlocks: 8, BlockSize: 256}
			registry := emunet.NewRegistry()
			srcConn, err := emunet.ListenUDP("b-src", "127.0.0.1:0", registry)
			if err != nil {
				b.Fatal(err)
			}
			relayConn, err := emunet.ListenUDP("b-relay", "127.0.0.1:0", registry)
			if err != nil {
				b.Fatal(err)
			}
			recvConn, err := emunet.ListenUDP("b-recv", "127.0.0.1:0", registry)
			if err != nil {
				b.Fatal(err)
			}
			relay := NewVNF(relayConn, WithSeed(5), WithWorkers(1), WithTxCoalesce(depth))
			if err := relay.Configure(SessionConfig{ID: 4, Params: params, Role: RoleRecoder, Redundancy: 2}); err != nil {
				b.Fatal(err)
			}
			relay.Table().Set(4, []HopGroup{{Addrs: []string{"b-recv"}}})
			relay.Start()
			defer relay.Close()
			src, err := NewSource(srcConn, SourceConfig{
				Session: 4, Params: params, Systematic: true, Redundancy: 2, Seed: 2, TxBatch: depth,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			src.SetHops([]HopGroup{{Addrs: []string{"b-relay"}}})
			recv, err := newSink(recvConn, 4, params, "")
			if err != nil {
				b.Fatal(err)
			}
			defer recv.Close()

			gen := randomBytes(7, params.GenerationBytes())
			b.SetBytes(int64(len(gen)))
			b.ResetTimer()
			done := 0
			for i := 0; i < b.N; i++ {
				if _, err := src.SendGeneration(gen, false); err != nil {
					b.Fatal(err)
				}
				// Redundancy 2 over lossless loopback: every generation
				// decodes; wait for this one before sending the next so the
				// measurement is per-generation latency, not queue fill.
				deadline := time.Now().Add(10 * time.Second)
				for recv.Generations(4) <= done {
					if time.Now().After(deadline) {
						b.Fatalf("generation %d never decoded", i)
					}
					// Sleep, don't spin: a busy-wait pins the only P on a
					// small machine and the netpoller then only runs on
					// sysmon's ~10ms retake, flooring every iteration.
					time.Sleep(20 * time.Microsecond)
				}
				done = recv.Generations(4)
			}
		})
	}
}
