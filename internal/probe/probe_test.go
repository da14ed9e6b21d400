package probe

import (
	"errors"
	"testing"
	"time"

	"ncfn/internal/emunet"
)

func TestPingMeasuresRTT(t *testing.T) {
	n := emunet.NewNetwork()
	defer n.Close()
	n.SetDuplexLink("a", "b", emunet.LinkConfig{Delay: 20 * time.Millisecond})
	resp := NewResponder(n.Host("b"))
	defer resp.Close()
	p := NewProber(n.Host("a"), nil)
	defer p.Close()

	res, err := p.Ping("b", 5, 64, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Received != 5 {
		t.Fatalf("received %d of 5", res.Received)
	}
	// RTT should be ~40ms (2x20ms one-way).
	if res.Avg < 35*time.Millisecond || res.Avg > 200*time.Millisecond {
		t.Fatalf("avg RTT = %v, want ~40ms", res.Avg)
	}
	if res.Min > res.Avg || res.Avg > res.Max {
		t.Fatalf("min/avg/max inconsistent: %+v", res)
	}
}

func TestPingTimeout(t *testing.T) {
	n := emunet.NewNetwork()
	defer n.Close()
	n.SetLink("a", "void", emunet.LinkConfig{}) // no responder listening
	n.Host("void")
	p := NewProber(n.Host("a"), nil)
	defer p.Close()
	_, err := p.Ping("void", 2, 64, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestPingUnknownTarget(t *testing.T) {
	n := emunet.NewNetwork()
	defer n.Close()
	p := NewProber(n.Host("a"), nil)
	defer p.Close()
	if _, err := p.Ping("ghost", 1, 64, time.Second); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestPingWithLossPartialResults(t *testing.T) {
	n := emunet.NewNetwork()
	defer n.Close()
	n.SetLink("a", "b", emunet.LinkConfig{Loss: emunet.NewUniformLoss(0.5, 3)})
	n.SetLink("b", "a", emunet.LinkConfig{})
	resp := NewResponder(n.Host("b"))
	defer resp.Close()
	p := NewProber(n.Host("a"), nil)
	defer p.Close()
	res, err := p.Ping("b", 20, 64, 30*time.Millisecond)
	if err != nil && res.Received == 0 {
		t.Skip("all pings lost (unlucky seed)")
	}
	if res.Received >= res.Sent {
		t.Fatalf("expected some loss: %+v", res)
	}
}

func TestResponderIgnoresGarbage(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	resp := NewResponder(n.Host("b"))
	defer resp.Close()
	a := n.Host("a")
	if err := a.Send("b", []byte{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte{0xFF, 1, 2}); err != nil {
		t.Fatal(err)
	}
	// Then a real ping must still work.
	p := NewProber(a, nil)
	defer p.Close()
	if _, err := p.Ping("b", 1, 64, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestProberCloseIdempotent(t *testing.T) {
	n := emunet.NewNetwork()
	defer n.Close()
	p := NewProber(n.Host("a"), nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewResponder(n.Host("b"))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
