package transfer

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/rlnc"
)

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	_, _ = rand.New(rand.NewSource(seed)).Read(b) // never fails
	return b
}

func smallParams() rlnc.Params {
	return rlnc.Params{GenerationBlocks: 4, BlockSize: 64}
}

// sink builds a receiving endpoint on conn carrying session 1.
func sink(t *testing.T, conn emunet.PacketConn, params rlnc.Params, srcAddr string) *dataplane.MultiReceiver {
	t.Helper()
	r := dataplane.NewMultiReceiver(conn)
	t.Cleanup(func() { r.Close() })
	if err := r.AddSession(1, params, srcAddr); err != nil {
		t.Fatal(err)
	}
	return r
}

// multicastEnv wires src -> relay -> {r1, r2} over the emulated network.
func multicastEnv(t *testing.T, lossy bool) (*dataplane.Source, []*dataplane.MultiReceiver) {
	t.Helper()
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	params := smallParams()
	if lossy {
		n.SetLink("src", "relay", emunet.LinkConfig{Loss: emunet.NewUniformLoss(0.3, 11), QueuePackets: 10000})
	}

	relay := dataplane.NewVNF(n.Host("relay"), dataplane.WithSeed(5))
	if err := relay.Configure(dataplane.SessionConfig{ID: 1, Params: params, Role: dataplane.RoleRecoder, Redundancy: 1}); err != nil {
		t.Fatal(err)
	}
	relay.Table().Set(1, []dataplane.HopGroup{
		{Addrs: []string{"r1"}},
		{Addrs: []string{"r2"}},
	})
	relay.Start()
	t.Cleanup(func() { relay.Close() })

	src, err := dataplane.NewSource(n.Host("src"), dataplane.SourceConfig{
		Session: 1, Params: params, Systematic: true, Seed: 3, Redundancy: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	src.SetHops([]dataplane.HopGroup{{Addrs: []string{"relay"}}})

	var recvs []*dataplane.MultiReceiver
	for _, name := range []string{"r1", "r2"} {
		recvs = append(recvs, sink(t, n.Host(name), params, "src"))
	}
	return src, recvs
}

func TestMulticastReliableDelivery(t *testing.T) {
	src, recvs := multicastEnv(t, false)
	data := randomBytes(1, 10*smallParams().GenerationBytes())
	stats, err := Multicast(src, data, MulticastConfig{
		Receivers:  []string{"r1", "r2"},
		AckTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generations != 10 {
		t.Fatalf("generations = %d", stats.Generations)
	}
	for _, r := range recvs {
		got, ok := r.Data(1, 10)
		if !ok || !bytes.Equal(got, data) {
			t.Fatal("receiver data mismatch")
		}
	}
	if stats.GoodputMbps <= 0 {
		t.Fatalf("goodput = %v", stats.GoodputMbps)
	}
}

func TestMulticastSurvivesLoss(t *testing.T) {
	src, recvs := multicastEnv(t, true)
	data := randomBytes(2, 8*smallParams().GenerationBytes())
	stats, err := Multicast(src, data, MulticastConfig{
		Receivers:  []string{"r1", "r2"},
		AckTimeout: 150 * time.Millisecond,
		MaxRounds:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resent == 0 {
		t.Log("warning: no resends despite 30% loss (lucky run)")
	}
	for _, r := range recvs {
		got, ok := r.Data(1, 8)
		if !ok || !bytes.Equal(got, data) {
			t.Fatal("receiver data mismatch under loss")
		}
	}
}

func TestMulticastEmptyData(t *testing.T) {
	src, _ := multicastEnv(t, false)
	stats, err := Multicast(src, nil, MulticastConfig{Receivers: []string{"r1", "r2"}})
	if err != nil || stats.Generations != 0 {
		t.Fatalf("empty transfer: %+v, %v", stats, err)
	}
}

func TestMulticastNoReceivers(t *testing.T) {
	src, _ := multicastEnv(t, false)
	if _, err := Multicast(src, []byte{1}, MulticastConfig{}); err == nil {
		t.Fatal("no receivers accepted")
	}
}

func TestMulticastGivesUp(t *testing.T) {
	src, _ := multicastEnv(t, false)
	data := randomBytes(3, smallParams().GenerationBytes())
	// Expect an ACK from a receiver that does not exist.
	_, err := Multicast(src, data, MulticastConfig{
		Receivers:  []string{"r1", "r2", "ghost"},
		AckTimeout: 30 * time.Millisecond,
		MaxRounds:  2,
	})
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
}

func TestTCPTransferClean(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	sink := NewTCPSink(n.Host("dst"))
	defer sink.Close()
	src := n.Host("src")
	defer src.Close()
	data := randomBytes(4, 100_000)
	stats, err := TCPSend(src, "dst", data, TCPConfig{MSS: 1000, RTO: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Data(), data) {
		t.Fatal("tcp data mismatch")
	}
	if stats.GoodputMbps <= 0 {
		t.Fatalf("goodput = %v", stats.GoodputMbps)
	}
}

func TestTCPTransferRateLimited(t *testing.T) {
	n := emunet.NewNetwork()
	defer n.Close()
	// 8 Mbps bottleneck: 100 KB should take ~100 ms; throughput must be
	// near the link rate, not the CPU rate.
	n.SetLink("src", "dst", emunet.LinkConfig{RateBps: 8e6, QueuePackets: 64})
	n.SetLink("dst", "src", emunet.LinkConfig{})
	sink := NewTCPSink(n.Host("dst"))
	defer sink.Close()
	src := n.Host("src")
	data := randomBytes(5, 100_000)
	stats, err := TCPSend(src, "dst", data, TCPConfig{MSS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Data(), data) {
		t.Fatal("tcp data mismatch")
	}
	if stats.GoodputMbps > 9 {
		t.Fatalf("goodput %v exceeds an 8 Mbps link", stats.GoodputMbps)
	}
}

func TestTCPTransferUnderLossRetransmits(t *testing.T) {
	n := emunet.NewNetwork()
	defer n.Close()
	n.SetLink("src", "dst", emunet.LinkConfig{Loss: emunet.NewUniformLoss(0.1, 6), QueuePackets: 10000})
	n.SetLink("dst", "src", emunet.LinkConfig{})
	sink := NewTCPSink(n.Host("dst"))
	defer sink.Close()
	src := n.Host("src")
	data := randomBytes(6, 60_000)
	stats, err := TCPSend(src, "dst", data, TCPConfig{MSS: 1000, RTO: 30 * time.Millisecond, Deadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Data(), data) {
		t.Fatal("tcp data mismatch under loss")
	}
	if stats.Retransmits == 0 {
		t.Fatal("no retransmits despite 10% loss")
	}
}

// TestTCPLossyIsSlowerThanClean asserts what makes the lossy run slower, in
// counters that machine load cannot invert: the clean link drops nothing;
// the seeded 5 % link drops segments, and a dropped segment comes back only
// through the RTO branch, so the sender reports retransmissions and cannot
// finish in less than one RTO. The two goodputs are not compared: both are
// wall clock, and under load the emulated link delivers out of order, the
// go-back-N sink discards, and the clean run times out as often as the
// lossy one (44-58 against 51-65 timeouts over ten runs each).
func TestTCPLossyIsSlowerThanClean(t *testing.T) {
	const rto = 50 * time.Millisecond
	run := func(loss float64) (TCPStats, emunet.Stats) {
		n := emunet.NewNetwork()
		defer n.Close()
		cfg := emunet.LinkConfig{RateBps: 20e6, QueuePackets: 256}
		if loss > 0 {
			cfg.Loss = emunet.NewUniformLoss(loss, 9)
		}
		n.SetLink("src", "dst", cfg)
		n.SetLink("dst", "src", emunet.LinkConfig{})
		sink := NewTCPSink(n.Host("dst"))
		defer sink.Close()
		data := randomBytes(7, 200_000)
		stats, err := TCPSend(n.Host("src"), "dst", data, TCPConfig{
			MSS: 1000, RTO: rto, Deadline: 60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.Data(), data) {
			t.Fatalf("loss %.2f: sink holds %d bytes that are not the %d sent", loss, sink.Bytes(), len(data))
		}
		link, _ := n.LinkStats("src", "dst")
		return stats, link
	}
	if _, link := run(0); link.Dropped != 0 {
		t.Fatalf("clean link dropped %d segments, want 0", link.Dropped)
	}
	stats, link := run(0.05)
	if link.Dropped == 0 {
		t.Fatal("the seeded 5% loss dropped nothing")
	}
	if stats.Retransmits == 0 || stats.Elapsed < rto {
		t.Fatalf("%d segments dropped, yet %d retransmissions in %v: a drop is recovered only by a %v timeout",
			link.Dropped, stats.Retransmits, stats.Elapsed, rto)
	}
}

func TestTCPDeadline(t *testing.T) {
	n := emunet.NewNetwork()
	defer n.Close()
	// Black hole: data flows in, no ACKs come back.
	n.SetLink("src", "dst", emunet.LinkConfig{})
	n.Host("dst") // no sink running
	src := n.Host("src")
	_, err := TCPSend(src, "dst", randomBytes(8, 10_000), TCPConfig{
		MSS: 1000, RTO: 20 * time.Millisecond, Deadline: 200 * time.Millisecond,
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

func TestTCPEmptyData(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	sink := NewTCPSink(n.Host("dst"))
	defer sink.Close()
	stats, err := TCPSend(n.Host("src"), "dst", nil, TCPConfig{})
	if err != nil || stats.Bytes != 0 {
		t.Fatalf("empty: %+v, %v", stats, err)
	}
}

func TestTCPSinkIgnoresGarbage(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	sink := NewTCPSink(n.Host("dst"))
	defer sink.Close()
	src := n.Host("src")
	if err := src.Send("dst", []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := src.Send("dst", []byte{}); err != nil {
		t.Fatal(err)
	}
	data := randomBytes(9, 5000)
	if _, err := TCPSend(src, "dst", data, TCPConfig{MSS: 1000}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Data(), data) {
		t.Fatal("garbage disturbed the stream")
	}
}

func TestTCPSinkCloseIdempotent(t *testing.T) {
	n := emunet.NewNetwork()
	defer n.Close()
	sink := NewTCPSink(n.Host("dst"))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}
