package controller

import (
	"net"
	"testing"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
)

// TestServeControlStream drives a daemon through a full control session
// over an in-memory byte stream: settings, peer registration, forwarding
// table, start, and shutdown — the exact path cmd/ncd serves over TCP.
func TestServeControlStream(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	d := NewDaemon(n.Host("node"), nil)
	defer d.Close()
	registry := emunet.NewRegistry()

	client, server := net.Pipe()
	defer client.Close()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeControlStream(server, d, registry)
		server.Close()
	}()

	sendAndAwait := func(m *Message) {
		t.Helper()
		if err := m.Encode(client); err != nil {
			t.Fatal(err)
		}
		ack := make([]byte, 1)
		if err := client.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Read(ack); err != nil || ack[0] != 0x06 {
			t.Fatalf("ack: %v %v", ack, err)
		}
	}

	sendAndAwait(&Message{
		Signal: NCSettings,
		Peers:  map[string]string{"next-hop": "127.0.0.1:9999"},
		Settings: &dataplane.SessionConfig{
			ID: 5, Params: smallParams(), Role: dataplane.RoleRecoder,
		},
	})
	if _, ok := registry.Lookup("next-hop"); !ok {
		t.Fatal("peer binding not registered")
	}
	sendAndAwait(&Message{
		Signal: NCForwardTab,
		Table:  map[ncproto.SessionID][]dataplane.HopGroup{5: {{Addrs: []string{"next-hop"}}}},
	})
	sendAndAwait(&Message{Signal: NCStart})
	if d.VNF().Table().AppendNextHops(nil, 5, 0)[0] != "next-hop" {
		t.Fatal("table not applied through the stream")
	}

	// Closing the client ends the stream cleanly.
	client.Close()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after stream closed")
	}
}

func TestServeControlStreamBadPeer(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	d := NewDaemon(n.Host("node"), nil)
	defer d.Close()
	client, server := net.Pipe()
	defer client.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- ServeControlStream(server, d, emunet.NewRegistry()) }()
	msg := &Message{Signal: NCStart, Peers: map[string]string{"x": "not-an-address:xx:yy"}}
	if err := msg.Encode(client); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("bad peer address accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not fail on bad peer")
	}
}

func TestServeControlStreamApplyError(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	d := NewDaemon(n.Host("node"), nil)
	defer d.Close()
	client, server := net.Pipe()
	defer client.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- ServeControlStream(server, d, nil) }()
	// NC_SETTINGS without a payload must surface as an error.
	if err := (&Message{Signal: NCSettings}).Encode(client); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("apply error swallowed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not fail on apply error")
	}
}
