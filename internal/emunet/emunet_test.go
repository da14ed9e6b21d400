package emunet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ncfn/internal/buffer"
)

func TestHostRoundTrip(t *testing.T) {
	n := NewNetwork(AllowDefault())
	defer n.Close()
	a := n.Host("a")
	b := n.Host("b")
	if err := a.Send("b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	pkt, src, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(pkt) != "hi" || src != "a" {
		t.Fatalf("got %q from %q", pkt, src)
	}
}

func TestHostIdempotent(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	if n.Host("x") != n.Host("x") {
		t.Fatal("Host not idempotent")
	}
}

func TestSendUnknownHost(t *testing.T) {
	n := NewNetwork(AllowDefault())
	defer n.Close()
	if err := n.Host("a").Send("ghost", []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestSendNoLinkWithoutDefault(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	n.Host("a")
	n.Host("b")
	if err := n.Host("a").Send("b", []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	n := NewNetwork(AllowDefault())
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	buf := []byte("abc")
	a.Send("b", buf)
	buf[0] = 'X'
	pkt, _, _ := b.Recv()
	if string(pkt) != "abc" {
		t.Fatal("Send did not copy the buffer")
	}
}

func TestLinkDelay(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	n.SetLink("a", "b", LinkConfig{Delay: 50 * time.Millisecond})
	start := time.Now()
	a.Send("b", []byte("x"))
	_, _, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("packet arrived after %v, want >= ~50ms", elapsed)
	}
}

func TestLinkRateLimiting(t *testing.T) {
	// 100 packets of 1000 bytes over a 1 Mbps link need ~0.8s of
	// serialization; measure that delivery is spread out accordingly.
	n := NewNetwork()
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	n.SetLink("a", "b", LinkConfig{RateBps: 1e6, QueuePackets: 1000})
	pkt := make([]byte, 1000)
	start := time.Now()
	for i := 0; i < 100; i++ {
		a.Send("b", pkt)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 700*time.Millisecond {
		t.Fatalf("100x1000B over 1Mbps took %v, want >= ~0.8s", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("rate limiter too slow: %v", elapsed)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a := n.Host("a")
	n.Host("b")
	n.SetLink("a", "b", LinkConfig{RateBps: 1e3, QueuePackets: 4})
	pkt := make([]byte, 1000)
	for i := 0; i < 50; i++ {
		if err := a.Send("b", pkt); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := n.LinkStats("a", "b")
	if !ok {
		t.Fatal("no link stats")
	}
	if st.Dropped == 0 {
		t.Fatal("expected tail drops on overloaded link")
	}
}

func TestUniformLossDropsApproximately(t *testing.T) {
	m := NewUniformLoss(0.3, 1)
	drops := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if m.Drop() {
			drops++
		}
	}
	rate := float64(drops) / trials
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("uniform loss rate %.3f, want ~0.30", rate)
	}
}

func TestBurstLossStationaryRate(t *testing.T) {
	// With feedback p_loss = P + 0.25*prev, stationary rate ~ P/(1-0.25).
	m := NewBurstLoss(0.03, 2)
	drops := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if m.Drop() {
			drops++
		}
	}
	rate := float64(drops) / trials
	want := 0.03 / 0.75
	if rate < want*0.8 || rate > want*1.2 {
		t.Fatalf("burst loss rate %.4f, want ~%.4f", rate, want)
	}
}

func TestBurstLossIsBursty(t *testing.T) {
	// Conditional loss probability after a loss must exceed the marginal
	// rate (that is what makes it bursty).
	m := NewBurstLoss(0.02, 3)
	lossAfterLoss, losses, total := 0, 0, 200000
	prev := false
	for i := 0; i < total; i++ {
		lost := m.Drop()
		if lost {
			losses++
			if prev {
				lossAfterLoss++
			}
		}
		prev = lost
	}
	marginal := float64(losses) / float64(total)
	conditional := float64(lossAfterLoss) / float64(losses)
	if conditional <= marginal*2 {
		t.Fatalf("conditional %.4f not much larger than marginal %.4f", conditional, marginal)
	}
}

func TestBurstLossClampsProbability(t *testing.T) {
	m := NewBurstLoss(0.9, 4)
	for i := 0; i < 1000; i++ {
		m.Drop() // must not panic even when p would exceed 1
	}
}

func TestLinkLossIntegration(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	n.SetLink("a", "b", LinkConfig{Loss: NewUniformLoss(0.5, 5), QueuePackets: 10000})
	const sent = 2000
	for i := 0; i < sent; i++ {
		a.Send("b", []byte{1})
	}
	// Zero rate and delay: deliveries are synchronous, so the inbox holds
	// all survivors already.
	received := b.inbox.pending()
	if received < sent*35/100 || received > sent*65/100 {
		t.Fatalf("received %d of %d with 50%% loss", received, sent)
	}
}

func TestSetLinkUpdatesExisting(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	n.Host("a")
	n.Host("b")
	n.SetLink("a", "b", LinkConfig{RateBps: 100})
	n.SetLink("a", "b", LinkConfig{RateBps: 200})
	cfg, ok := n.LinkConfigOf("a", "b")
	if !ok || cfg.RateBps != 200 {
		t.Fatalf("link config not updated: %+v %v", cfg, ok)
	}
}

func TestLinkConfigOfAbsent(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	if _, ok := n.LinkConfigOf("x", "y"); ok {
		t.Fatal("absent link reported present")
	}
}

func TestDuplexLink(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	n.SetDuplexLink("a", "b", LinkConfig{})
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("a", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if pkt, _, _ := b.Recv(); string(pkt) != "x" {
		t.Fatal("b did not get x")
	}
	if pkt, _, _ := a.Recv(); string(pkt) != "y" {
		t.Fatal("a did not get y")
	}
}

func TestRecvAfterCloseDrainsThenErrors(t *testing.T) {
	n := NewNetwork(AllowDefault())
	a, b := n.Host("a"), n.Host("b")
	a.Send("b", []byte("x"))
	// Give the synchronous delivery a moment (no delay: synchronous).
	b.Close()
	pkt, _, err := b.Recv()
	if err != nil || string(pkt) != "x" {
		t.Fatalf("drain failed: %q %v", pkt, err)
	}
	if _, _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	n.Close()
}

func TestSendAfterNetworkClose(t *testing.T) {
	n := NewNetwork(AllowDefault())
	a := n.Host("a")
	n.Host("b")
	n.Close()
	if err := a.Send("b", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestNetworkCloseIdempotent(t *testing.T) {
	n := NewNetwork()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseCancelsInFlight(t *testing.T) {
	n := NewNetwork()
	a := n.Host("a")
	n.Host("b")
	n.SetLink("a", "b", LinkConfig{Delay: time.Hour})
	a.Send("b", []byte("x"))
	done := make(chan struct{})
	go func() {
		n.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on in-flight delivery")
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := NewNetwork(AllowDefault())
	defer n.Close()
	dst := n.Host("sink")
	const senders, per = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		src := n.Host(string(rune('a' + s)))
		go func(h *Host) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Send("sink", []byte{byte(i)})
			}
		}(src)
	}
	wg.Wait()
	// Default links deliver synchronously: every packet is queued by now.
	if got := dst.inbox.pending(); got != senders*per {
		t.Fatalf("received %d of %d", got, senders*per)
	}
}

// pending counts the packets b holds that no consumer has taken yet.
func (b *inbox) pending() int {
	b.rmu.Lock()
	defer b.rmu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.batch) - b.next + len(b.q)
}

func TestUDPRoundTrip(t *testing.T) {
	reg := NewRegistry()
	a, err := ListenUDP("alpha", "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("beta", "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Send("beta", []byte("over udp")); err != nil {
		t.Fatal(err)
	}
	pkt, src, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(pkt) != "over udp" || src != "alpha" {
		t.Fatalf("got %q from %q", pkt, src)
	}
	if a.LocalAddr() != "alpha" {
		t.Fatal("LocalAddr wrong")
	}
	if a.UDPAddr() == nil {
		t.Fatal("UDPAddr nil")
	}
}

func TestUDPSendUnknown(t *testing.T) {
	reg := NewRegistry()
	a, err := ListenUDP("a", "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("nobody", []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestUDPCloseUnblocksRecv(t *testing.T) {
	reg := NewRegistry()
	a, err := ListenUDP("a", "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, _, err := a.Recv()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestUDPCloseIdempotent(t *testing.T) {
	reg := NewRegistry()
	a, err := ListenUDP("a", "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryLookup(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.Lookup("x"); ok {
		t.Fatal("empty registry found name")
	}
}

func TestJitterReordersPackets(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	n.SetLink("a", "b", LinkConfig{Delay: 5 * time.Millisecond, Jitter: 30 * time.Millisecond})
	const sent = 40
	for i := 0; i < sent; i++ {
		a.Send("b", []byte{byte(i)})
	}
	order := make([]byte, 0, sent)
	for i := 0; i < sent; i++ {
		pkt, _, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, pkt[0])
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("30ms jitter produced zero reordering across 40 packets (astronomically unlikely)")
	}
}

func TestJitterBoundsDelay(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	n.SetLink("a", "b", LinkConfig{Delay: 10 * time.Millisecond, Jitter: 20 * time.Millisecond})
	start := time.Now()
	a.Send("b", []byte{1})
	if _, _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 8*time.Millisecond {
		t.Fatalf("packet arrived before base delay: %v", elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("packet delayed far past delay+jitter: %v", elapsed)
	}
}

func TestDuplicationDeliversExtraCopies(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	n.SetLink("a", "b", LinkConfig{DuplicateProb: 1.0})
	a.Send("b", []byte{7})
	for i := 0; i < 2; i++ {
		pkt, _, err := b.Recv()
		if err != nil || pkt[0] != 7 {
			t.Fatalf("copy %d: %v %v", i, pkt, err)
		}
	}
}

// TestInboxSizedByUse pins that a host's receive queue is sized by what it
// has held, not by its limit: an idle inbox owns no slots, a burst grows it
// to about the burst, and a full one drops past hostInbox, counting the
// batch its consumer took last.
func TestInboxSizedByUse(t *testing.T) {
	n := NewNetwork(AllowDefault())
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	slots := func() int { return cap(b.inbox.q) + cap(b.inbox.batch) }
	if s := slots(); s != 0 {
		t.Fatalf("idle inbox holds %d slots", s)
	}
	const burst = 10
	for i := 0; i < burst; i++ {
		a.Send("b", []byte{byte(i)})
	}
	for i := 0; i < burst; i++ {
		if pkt, _, err := b.Recv(); err != nil || pkt[0] != byte(i) {
			t.Fatalf("packet %d: %v %v", i, pkt, err)
		}
	}
	if s := slots(); s > 4*burst {
		t.Fatalf("a %d-packet burst left %d slots", burst, s)
	}
	for i := 0; i < hostInbox+10; i++ {
		a.Send("b", []byte{1})
	}
	if got := b.inbox.pending(); got != hostInbox-burst {
		t.Fatalf("full inbox holds %d, want %d", got, hostInbox-burst)
	}
}

// TestRouteNotCachedOnFailure pins that a refused send leaves nothing in the
// sender's route cache: once SetLink adds the link, the next send goes out.
func TestRouteNotCachedOnFailure(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	if err := a.Send("b", []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	n.SetLink("a", "b", LinkConfig{})
	if err := a.Send("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if pkt, _, _ := b.Recv(); string(pkt) != "y" {
		t.Fatalf("got %q", pkt)
	}
}

// TestHostSendRecvZeroAlloc pins the unconstrained hop's steady state: a
// resolved route, a pooled copy and an inbox slot already grown, so a
// Send/Recv pair allocates nothing.
func TestHostSendRecvZeroAlloc(t *testing.T) {
	n := NewNetwork(AllowDefault())
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	pkt := make([]byte, 1460)
	hop := func() {
		if err := a.Send("b", pkt); err != nil {
			t.Fatal(err)
		}
		got, _, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		buffer.PutPacket(got)
	}
	hop()
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Fatalf("Send+Recv allocates %.1f per packet", allocs)
	}
}

// TestInboxConcurrentSendRecv drives one host's inbox from several senders
// while its consumer drains it, then closes it under a blocked Recv: every
// packet arrives once, and the blocked Recv returns ErrClosed.
func TestInboxConcurrentSendRecv(t *testing.T) {
	n := NewNetwork(AllowDefault())
	defer n.Close()
	dst := n.Host("sink")
	const senders, per = 4, 500
	got := make(chan int, 1)
	go func() {
		seen := make(map[[3]byte]bool, senders*per)
		for len(seen) < senders*per {
			pkt, _, err := dst.Recv()
			if err != nil {
				break
			}
			seen[[3]byte(pkt)] = true
		}
		got <- len(seen)
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(h *Host, s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Send("sink", []byte{byte(s), byte(i), byte(i >> 8)})
			}
		}(n.Host(string(rune('a'+s))), s)
	}
	wg.Wait()
	if g := <-got; g != senders*per {
		t.Fatalf("received %d distinct of %d", g, senders*per)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := dst.Recv()
		errc <- err
	}()
	dst.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked Recv after Close: %v, want ErrClosed", err)
	}
}
