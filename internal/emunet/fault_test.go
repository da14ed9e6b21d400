package emunet

import (
	"encoding/binary"
	"testing"
	"time"
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
// link and asserts its observable signature: reordering and jitter permute
// but never lose or corrupt, duplication only adds identical copies, and
// partitions blackhole silently.
func TestFaultModes(t *testing.T) {
	const count = 400
	cases := []struct {
		name string
		cfg  LinkConfig
		// check inspects the arrival order and link stats.
		check func(t *testing.T, seqs []uint64, st Stats)
	}{
		{
			name: "reorder",
			cfg:  LinkConfig{ReorderProb: 0.3, ReorderDelay: 3 * time.Millisecond, QueuePackets: 1024},
			check: func(t *testing.T, seqs []uint64, st Stats) {
				multisetOfRange(t, seqs, count, 1, 1)
				if inversions(seqs) == 0 {
					t.Fatal("ReorderProb=0.3 produced an in-order stream")
				}
				if st.Reordered == 0 {
					t.Fatal("no packets counted as reordered")
				}
				if st.Reordered == uint64(count) {
					t.Fatalf("all %d packets reordered at prob 0.3", count)
				}
			},
		},
		{
			name: "reorder-default-delay",
			cfg:  LinkConfig{ReorderProb: 0.5, QueuePackets: 1024}, // zero delay selects DefaultReorderDelay
			check: func(t *testing.T, seqs []uint64, st Stats) {
				multisetOfRange(t, seqs, count, 1, 1)
				if inversions(seqs) == 0 {
					t.Fatal("default hold-back produced an in-order stream")
				}
			},
		},
		{
			name: "duplicate",
			cfg:  LinkConfig{DuplicateProb: 0.25},
			check: func(t *testing.T, seqs []uint64, st Stats) {
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
			check: func(t *testing.T, seqs []uint64, st Stats) {
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
			seqs := recvSeq(t, dst, want, 5*time.Second)
			st, _ := n.LinkStats("src", "dst")
			tc.check(t, seqs, st)
		})
	}
}

func TestPartitionLinkBlackholes(t *testing.T) {
	n := NewNetwork(AllowDefault())
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
	before, _ := n.LinkStats("a", "b")
	if err := src.Send("b", []byte("lost")); err != nil {
		t.Fatalf("send into partition returned error %v, want silent drop", err)
	}
	after, _ := n.LinkStats("a", "b")
	if after.Dropped != before.Dropped+1 {
		t.Fatalf("partition drop not counted: %d -> %d", before.Dropped, after.Dropped)
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
// fault decisions (which packets are held back, which are dropped) repeat
// exactly — the property the chaos harness depends on for replay. Arrival
// ORDER of concurrently-due timers is scheduler territory and deliberately
// not asserted here.
func TestFaultDecisionDeterminism(t *testing.T) {
	run := func() Stats {
		n := NewNetwork()
		defer n.Close()
		src := n.Host("s")
		dst := n.Host("d")
		n.SetLink("s", "d", LinkConfig{ReorderProb: 0.4, ReorderDelay: 2 * time.Millisecond, QueuePackets: 1024})
		sendSeq(t, src, "d", 200)
		recvSeq(t, dst, 200, 5*time.Second)
		st, _ := n.LinkStats("s", "d")
		return st
	}
	a, b := run(), run()
	if a.Reordered == 0 {
		t.Fatal("no packets reordered at prob 0.4")
	}
	if a.Reordered != b.Reordered || a.Sent != b.Sent || a.Dropped != b.Dropped {
		t.Fatalf("identical seeded runs diverged: %+v vs %+v", a, b)
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
