package dataplane

import (
	"bytes"
	"testing"
	"time"

	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
)

// TestUDPPipeline runs source -> recoding VNF -> receiver over real UDP
// sockets on the loopback interface: the same code path the emulated
// experiments exercise, bound to kernel sockets.
func TestUDPPipeline(t *testing.T) {
	params := smallParams()
	registry := emunet.NewRegistry()

	srcConn, err := emunet.ListenUDP("udp-src", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	relayConn, err := emunet.ListenUDP("udp-relay", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	recvConn, err := emunet.ListenUDP("udp-recv", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}

	relay := NewVNF(relayConn, WithSeed(5))
	if err := relay.Configure(SessionConfig{ID: 7, Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
		t.Fatal(err)
	}
	relay.Table().Set(7, []HopGroup{{Addrs: []string{"udp-recv"}}})
	relay.Start()
	defer relay.Close()

	src, err := NewSource(srcConn, SourceConfig{Session: 7, Params: params, Systematic: true, Redundancy: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetHops([]HopGroup{{Addrs: []string{"udp-relay"}}})

	recv, err := newSink(recvConn, 7, params, "udp-src")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	const ngen = 12
	data := randomBytes(77, ngen*params.GenerationBytes())
	if _, sent, err := src.SendData(data); err != nil || sent != ngen {
		t.Fatalf("send: %d, %v", sent, err)
	}
	if !waitFor(t, 10*time.Second, func() bool { return recv.Generations(7) == ngen }) {
		t.Fatalf("decoded %d of %d generations over UDP", recv.Generations(7), ngen)
	}
	got, ok := recv.Data(7, ngen)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("UDP pipeline data mismatch")
	}
	// ACKs must have flowed back to the source over UDP too.
	select {
	case ack := <-src.acks:
		if ack.Session != 7 {
			t.Fatalf("ack for wrong session: %+v", ack)
		}
		if ack.From != "udp-recv" {
			t.Fatalf("ack from %q, want udp-recv", ack.From)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ACK over UDP")
	}
}

// TestUDPGenerationDispatch checks that two VNF instances behind one hop
// group split generations consistently over real sockets.
func TestUDPGenerationDispatch(t *testing.T) {
	params := smallParams()
	registry := emunet.NewRegistry()
	srcConn, err := emunet.ListenUDP("d-src", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	defer srcConn.Close()
	var sinks []*emunet.UDPConn
	for _, name := range []string{"d-a", "d-b"} {
		c, err := emunet.ListenUDP(name, "127.0.0.1:0", registry)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sinks = append(sinks, c)
	}

	src, err := NewSource(srcConn, SourceConfig{Session: 3, Params: params, Systematic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetHops([]HopGroup{{Addrs: []string{"d-a", "d-b"}}})

	const ngen = 16
	if _, _, err := src.SendData(randomBytes(5, ngen*params.GenerationBytes())); err != nil {
		t.Fatal(err)
	}

	// Collect which instance saw which generation; packets of one
	// generation must all land on the same instance.
	genOwner := make(map[ncproto.GenerationID]int)
	deadline := time.After(10 * time.Second)
	total := 0
	want := ngen * params.GenerationBlocks
	results := make(chan struct {
		idx int
		gid ncproto.GenerationID
	}, want)
	for i, c := range sinks {
		go func(idx int, c *emunet.UDPConn) {
			for {
				pkt, _, err := c.Recv()
				if err != nil {
					return
				}
				p, err := ncproto.Decode(pkt, params.GenerationBlocks)
				if err != nil {
					continue
				}
				results <- struct {
					idx int
					gid ncproto.GenerationID
				}{idx, p.Generation}
			}
		}(i, c)
	}
	for total < want {
		select {
		case r := <-results:
			if owner, seen := genOwner[r.gid]; seen && owner != r.idx {
				t.Fatalf("generation %d split across instances %d and %d", r.gid, owner, r.idx)
			}
			genOwner[r.gid] = r.idx
			total++
		case <-deadline:
			t.Fatalf("received %d of %d packets", total, want)
		}
	}
	// With 16 generations both instances should have seen some.
	seen := map[int]bool{}
	for _, idx := range genOwner {
		seen[idx] = true
	}
	if len(seen) != 2 {
		t.Fatalf("dispatch did not spread generations: %v", genOwner)
	}
}
