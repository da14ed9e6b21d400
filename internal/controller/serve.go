package controller

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"ncfn/internal/emunet"
)

// DefaultPushTimeout bounds a table/settings push when the caller's context
// carries no deadline. Table III measures table updates completing in tens
// of milliseconds; ten seconds is generous for any healthy daemon, so a
// push that exceeds it indicates a dead peer, not a slow one.
const DefaultPushTimeout = 10 * time.Second

// PushMessages sends control messages to a daemon over its TCP control
// connection and waits for the daemon's one-byte ack after each — the
// client half of ServeControlStream. The exchange is bounded by ctx: its
// deadline (or DefaultPushTimeout from now, when it has none) is installed
// as the connection deadline, and cancelling ctx aborts an in-flight push.
// A push to a crashed daemon therefore fails quickly instead of blocking
// the control plane forever.
func PushMessages(ctx context.Context, conn net.Conn, msgs ...*Message) error {
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(DefaultPushTimeout)
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return fmt.Errorf("controller: set push deadline: %w", err)
	}
	defer func() { _ = conn.SetDeadline(time.Time{}) }()
	stop := context.AfterFunc(ctx, func() {
		// Wake any blocked read/write immediately on cancellation.
		_ = conn.SetDeadline(time.Unix(1, 0))
	})
	defer stop()
	ack := make([]byte, 1)
	for _, m := range msgs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := m.Encode(conn); err != nil {
			return fmt.Errorf("controller: push: %w", err)
		}
		if _, err := io.ReadFull(conn, ack); err != nil {
			return fmt.Errorf("controller: await push ack: %w", err)
		}
	}
	return nil
}

// ServeControlStream applies a controller's message stream (length-prefixed
// JSON, as produced by Message.Encode) to a daemon until the stream ends or
// the daemon shuts down. Peer bindings in messages are registered in the
// given UDP name registry (nil to ignore them). Each applied message is
// acknowledged with a single 0x06 byte. cmd/ncd serves every accepted
// control connection through this function.
func ServeControlStream(c net.Conn, d *Daemon, registry *emunet.Registry) error {
	for {
		msg, err := DecodeMessage(c)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if err := registerPeers(registry, msg.Peers); err != nil {
			return err
		}
		if err := d.Apply(msg); err != nil {
			return err
		}
		if _, err := c.Write([]byte{0x06}); err != nil {
			return fmt.Errorf("controller: write ack: %w", err)
		}
		if d.Closed() {
			return nil
		}
	}
}

// registerPeers binds each peer name to its resolved UDP address in the
// registry (nil ignores the bindings).
func registerPeers(registry *emunet.Registry, peers map[string]string) error {
	if registry == nil {
		return nil
	}
	for peer, addr := range peers {
		udpAddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("controller: resolve peer %s=%s: %w", peer, addr, err)
		}
		registry.Register(peer, udpAddr)
	}
	return nil
}
