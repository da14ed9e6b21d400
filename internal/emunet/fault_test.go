package emunet

import (
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncfn/internal/telemetry"
)

// sendSeq sends count sequence-numbered packets from src to dst.
func sendSeq(t *testing.T, src *Host, dst string, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		pkt := make([]byte, 8)
		binary.BigEndian.PutUint64(pkt, uint64(i))
		if err := src.Send(dst, pkt); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

// recvSeq receives exactly count packets at h and returns their sequence
// numbers in arrival order, failing the test on timeout.
func recvSeq(t *testing.T, h *Host, count int, timeout time.Duration) []uint64 {
	t.Helper()
	seqs := make([]uint64, 0, count)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(seqs) < count {
			pkt, _, err := h.Recv()
			if err != nil {
				return
			}
			seqs = append(seqs, binary.BigEndian.Uint64(pkt))
		}
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("received %d/%d packets before timeout", len(seqs), count)
	}
	return seqs
}

// linkCounts reads the directed link's admitted and dropped packet counts
// from the network's telemetry registry.
func linkCounts(reg *telemetry.Registry, link string) (tx, dropped uint64) {
	snap := reg.Snapshot()
	return snap.Counters[MetricLinkTxPrefix+link], snap.Counters[MetricLinkDropPrefix+link]
}

// inversions counts adjacent pairs delivered out of send order.
func inversions(seqs []uint64) int {
	n := 0
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			n++
		}
	}
	return n
}

// multisetOfRange checks that seqs is exactly {0..count-1} with the given
// multiplicity bounds (minCopies ≤ copies ≤ maxCopies per sequence number).
func multisetOfRange(t *testing.T, seqs []uint64, count, minCopies, maxCopies int) {
	t.Helper()
	got := make(map[uint64]int)
	for _, s := range seqs {
		if s >= uint64(count) {
			t.Fatalf("unknown sequence number %d", s)
		}
		got[s]++
	}
	for i := 0; i < count; i++ {
		c := got[uint64(i)]
		if c < minCopies || c > maxCopies {
			t.Fatalf("sequence %d delivered %d times, want %d..%d", i, c, minCopies, maxCopies)
		}
	}
}

// TestFaultModes drives each netem-style impairment through a fixed-seed
// link and asserts its observable signature: jitter permutes but never
// loses or corrupts, and duplication only adds identical copies.
func TestFaultModes(t *testing.T) {
	const count = 400
	cases := []struct {
		name string
		cfg  LinkConfig
		// check inspects the arrival order.
		check func(t *testing.T, seqs []uint64)
	}{
		{
			name: "duplicate",
			cfg:  LinkConfig{DuplicateProb: 0.25},
			check: func(t *testing.T, seqs []uint64) {
				multisetOfRange(t, seqs, count, 1, 2)
				if len(seqs) <= count {
					t.Fatalf("DuplicateProb=0.25 delivered no extra copies (%d)", len(seqs))
				}
				if len(seqs) >= 2*count {
					t.Fatalf("every packet duplicated at prob 0.25 (%d)", len(seqs))
				}
			},
		},
		{
			name: "jitter",
			cfg:  LinkConfig{Jitter: 4 * time.Millisecond, QueuePackets: 1024},
			check: func(t *testing.T, seqs []uint64) {
				multisetOfRange(t, seqs, count, 1, 1)
				if inversions(seqs) == 0 {
					t.Fatal("4ms jitter on back-to-back sends produced an in-order stream")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork()
			defer n.Close()
			src := n.Host("src")
			dst := n.Host("dst")
			n.SetLink("src", "dst", tc.cfg)
			sendSeq(t, src, "dst", count)
			want := count
			if tc.cfg.DuplicateProb > 0 {
				// Duplicate deliveries are inline on this zero-delay link, so
				// every copy is already queued once sendSeq returns.
				want = dst.inbox.pending()
			}
			tc.check(t, recvSeq(t, dst, want, 5*time.Second))
		})
	}
}

func TestPartitionLinkBlackholes(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := NewNetwork(AllowDefault(), WithTelemetry(reg))
	defer n.Close()
	src := n.Host("a")
	dst := n.Host("b")

	// Healthy link first: packet flows.
	sendSeq(t, src, "b", 1)
	recvSeq(t, dst, 1, time.Second)

	n.PartitionLink("a", "b")
	if !n.Partitioned("a", "b") {
		t.Fatal("Partitioned(a,b) = false after PartitionLink")
	}
	_, before := linkCounts(reg, "a->b")
	if err := src.Send("b", []byte("lost")); err != nil {
		t.Fatalf("send into partition returned error %v, want silent drop", err)
	}
	if _, after := linkCounts(reg, "a->b"); after != before+1 {
		t.Fatalf("partition drop not counted: %d -> %d", before, after)
	}
	if dst.inbox.pending() != 0 {
		t.Fatal("partitioned link delivered a packet")
	}

	// Reverse direction unaffected by a directed partition.
	sendSeq(t, dst, "a", 1)
	recvSeq(t, src, 1, time.Second)

	n.HealLink("a", "b")
	if n.Partitioned("a", "b") {
		t.Fatal("Partitioned(a,b) = true after HealLink")
	}
	sendSeq(t, src, "b", 1)
	recvSeq(t, dst, 1, time.Second)
}

func TestPartitionHostIsolatesBothDirections(t *testing.T) {
	n := NewNetwork(AllowDefault())
	defer n.Close()
	a := n.Host("a")
	b := n.Host("b")
	c := n.Host("c")

	n.PartitionHost("b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("send to isolated host errored: %v", err)
	}
	if err := b.Send("a", []byte("y")); err != nil {
		t.Fatalf("send from isolated host errored: %v", err)
	}
	if a.inbox.pending() != 0 {
		t.Fatal("isolated host's packet delivered")
	}
	if b.inbox.pending() != 0 {
		t.Fatal("packet delivered to isolated host")
	}

	// Unrelated pairs still communicate.
	sendSeq(t, a, "c", 1)
	recvSeq(t, c, 1, time.Second)

	n.HealHost("b")
	sendSeq(t, a, "b", 1)
	recvSeq(t, b, 1, time.Second)
}

func TestPartitionBothAndHealAll(t *testing.T) {
	n := NewNetwork(AllowDefault())
	defer n.Close()
	n.Host("a")
	n.Host("b")
	n.PartitionBoth("a", "b")
	if !n.Partitioned("a", "b") || !n.Partitioned("b", "a") {
		t.Fatal("PartitionBoth left a direction open")
	}
	n.PartitionHost("c")
	n.HealAll()
	if n.Partitioned("a", "b") || n.Partitioned("b", "a") || n.Partitioned("c", "a") {
		t.Fatal("HealAll left a fault active")
	}
}

// TestBurstLossRecurrence is the regression for the paper's Fig. 9 process
// P_n = 25%·P_{n−1} + P with the realized-outcome reading: conditioned on
// the previous packet being lost the loss probability is P+0.25, conditioned
// on it being delivered it is P, and the stationary rate is P/(1−0.25).
func TestBurstLossRecurrence(t *testing.T) {
	const (
		p       = 0.05
		samples = 200_000
	)
	m := NewBurstLoss(p, 42)
	if m.Corr != 0.25 {
		t.Fatalf("Corr = %v, want the paper's 0.25", m.Corr)
	}
	var (
		lossAfterLoss, afterLoss int
		lossAfterOK, afterOK     int
		losses                   int
	)
	prev := false
	for i := 0; i < samples; i++ {
		lost := m.Drop()
		if lost {
			losses++
		}
		if i > 0 {
			if prev {
				afterLoss++
				if lost {
					lossAfterLoss++
				}
			} else {
				afterOK++
				if lost {
					lossAfterOK++
				}
			}
		}
		prev = lost
	}
	condLoss := float64(lossAfterLoss) / float64(afterLoss)
	condOK := float64(lossAfterOK) / float64(afterOK)
	stationary := float64(losses) / float64(samples)

	if want := p + 0.25; condLoss < want-0.02 || condLoss > want+0.02 {
		t.Errorf("P(loss|prev lost) = %.4f, want %.2f ± 0.02", condLoss, want)
	}
	if condOK < p-0.01 || condOK > p+0.01 {
		t.Errorf("P(loss|prev ok) = %.4f, want %.2f ± 0.01", condOK, p)
	}
	if want := p / 0.75; stationary < want-0.01 || stationary > want+0.01 {
		t.Errorf("stationary loss rate = %.4f, want %.4f ± 0.01", stationary, want)
	}
}

// TestFaultDecisionDeterminism re-runs seeded impairments and asserts the
// fault decisions (which packets are dropped, which duplicated) repeat
// exactly — the property the chaos harness depends on for replay. Arrival
// order needs no seed: a link without jitter is FIFO
// (TestFaultFreeLinksAreFIFO).
func TestFaultDecisionDeterminism(t *testing.T) {
	const count = 2000
	run := func() (seqs []uint64, tx, dropped uint64) {
		reg := telemetry.NewRegistry()
		n := NewNetwork(WithTelemetry(reg))
		defer n.Close()
		src := n.Host("s")
		dst := n.Host("d")
		n.SetLink("s", "d", LinkConfig{DuplicateProb: 0.3, Loss: NewUniformLoss(0.2, 7)})
		sendSeq(t, src, "d", count)
		// The link is neither rate-limited nor delayed: every surviving copy
		// is in the inbox once sendSeq returns.
		seqs = recvSeq(t, dst, dst.inbox.pending(), 5*time.Second)
		tx, dropped = linkCounts(reg, "s->d")
		return seqs, tx, dropped
	}
	a, aTx, aDrop := run()
	b, bTx, bDrop := run()
	if aDrop == 0 || len(a) <= int(aTx) {
		t.Fatalf("%d dropped and %d copies of %d admitted: the seeded impairments did nothing", aDrop, len(a), aTx)
	}
	if aTx != bTx || aDrop != bDrop || !slices.Equal(a, b) {
		t.Fatalf("identical seeded runs diverged: %d/%d admitted, %d/%d dropped, %d/%d delivered",
			aTx, bTx, aDrop, bDrop, len(a), len(b))
	}

	// Seeded loss models repeat their exact drop sequence.
	m1 := NewBurstLoss(0.1, 7)
	m2 := NewBurstLoss(0.1, 7)
	for i := 0; i < 10_000; i++ {
		if m1.Drop() != m2.Drop() {
			t.Fatalf("BurstLoss drop sequences diverged at packet %d", i)
		}
	}
	u1 := NewUniformLoss(0.1, 7)
	u2 := NewUniformLoss(0.1, 7)
	for i := 0; i < 10_000; i++ {
		if u1.Drop() != u2.Drop() {
			t.Fatalf("UniformLoss drop sequences diverged at packet %d", i)
		}
	}
}

// TestFaultFreeLinksAreFIFO sends 10^5 sequence-numbered packets from two
// concurrent senders through one delayed link while busy goroutines keep
// every P occupied: a link without jitter delivers each sender's packets in
// the order it sent them, with none lost, on a delay-only link and on a
// rate-limited one.
func TestFaultFreeLinksAreFIFO(t *testing.T) {
	const (
		senders = 2
		per     = 50_000
		window  = 1024 // packets in flight, below both queue bounds
	)
	for _, tc := range []struct {
		name string
		cfg  LinkConfig
	}{
		{"delay", LinkConfig{Delay: time.Millisecond, QueuePackets: window}},
		{"rate+delay", LinkConfig{RateBps: 100e6, Delay: time.Millisecond, QueuePackets: window}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork()
			defer n.Close()
			src, dst := n.Host("src"), n.Host("dst")
			n.SetLink("src", "dst", tc.cfg)

			var stop atomic.Bool
			var busy sync.WaitGroup
			for i := 0; i < runtime.GOMAXPROCS(0); i++ {
				busy.Add(1)
				go func() {
					defer busy.Done()
					for !stop.Load() {
						runtime.Gosched()
					}
				}()
			}
			defer func() { stop.Store(true); busy.Wait() }()

			done := make(chan struct{})
			defer close(done)
			go func() {
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					dst.Close()
				}
			}()
			credit := make(chan struct{}, window)
			for s := 0; s < senders; s++ {
				go func(s byte) {
					pkt := make([]byte, 16)
					pkt[0] = s
					for i := uint64(0); i < per; i++ {
						select {
						case credit <- struct{}{}:
						case <-done:
							return
						}
						binary.BigEndian.PutUint64(pkt[8:], i)
						src.Send("dst", pkt)
					}
				}(byte(s))
			}
			var seen [senders][per]bool
			last := [senders]int{-1, -1}
			inv := 0
			for got := 0; got < senders*per; got++ {
				pkt, _, err := dst.Recv()
				if err != nil {
					t.Fatalf("received %d of %d packets before timeout", got, senders*per)
				}
				s, seq := pkt[0], int(binary.BigEndian.Uint64(pkt[8:]))
				if seen[s][seq] {
					t.Fatalf("sender %d: packet %d arrived twice", s, seq)
				}
				seen[s][seq] = true
				if seq < last[s] {
					inv++
				}
				last[s] = seq
				<-credit
			}
			if inv != 0 {
				t.Fatalf("%d inversions in %d packets", inv, senders*per)
			}
		})
	}
}
