package emunet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ncfn/internal/buffer"
)

// Common errors.
var (
	// ErrClosed is returned by operations on a closed conn or network.
	ErrClosed = errors.New("emunet: closed")
	// ErrNoRoute is returned when sending to an address with no host.
	ErrNoRoute = errors.New("emunet: no such host")
)

// PacketConn is the datagram interface the data plane runs on. It is
// implemented both by emulated hosts (this package) and by UDP sockets
// (ncfn/internal/emunet UDPConn), so the VNF code is substrate-agnostic.
type PacketConn interface {
	// Send transmits one datagram to dst. It never blocks on the network;
	// packets the link cannot accept are dropped, like UDP.
	Send(dst string, pkt []byte) error
	// Recv blocks until a datagram arrives and returns it with the
	// sender's address. It returns ErrClosed after Close. The returned
	// buffer is owned by the caller; callers on the hot path should return
	// it with buffer.PutPacket once parsed (not doing so merely falls back
	// to GC).
	Recv() ([]byte, string, error)
	// LocalAddr returns this endpoint's address.
	LocalAddr() string
	// Close releases the endpoint and unblocks pending Recv calls.
	Close() error
}

// Network is an in-process datagram network. Hosts are identified by
// string addresses; directed links between hosts carry the impairments of
// their LinkConfig. A link must be configured (SetLink) before traffic can
// flow between two hosts unless AllowDefault is set.
//
// The tables below are written under mu and read by Send only on a host's
// first packet to each destination: hosts and links, once created, are never
// replaced, so each host keeps the records it resolved (Host.routes) and the
// packet path takes no network-wide lock while no partition fault is active.
type Network struct {
	mu    sync.Mutex
	hosts map[string]*Host
	links map[[2]string]*link
	// partHosts and partLinks are the active partition faults (fault.go):
	// isolated hosts and blackholed directed links. faulted says whether
	// either holds anything, so Send consults them only while one does.
	partHosts map[string]bool
	partLinks map[[2]string]bool
	faulted   atomic.Bool
	// allowDefault, when true, lets unconfigured pairs communicate over a
	// perfect link. Tests use it; experiments configure links explicitly.
	allowDefault bool
	closed       atomic.Bool
	wg           sync.WaitGroup
	timers       map[*time.Timer]struct{}
	// tel is the attached instrument set (WithTelemetry); nil records
	// nothing.
	tel *netTelemetry
}

// Option configures a Network.
type Option func(*Network)

// AllowDefault lets hosts without an explicit link exchange packets over a
// perfect (infinite-rate, zero-delay, lossless) link.
func AllowDefault() Option {
	return func(n *Network) { n.allowDefault = true }
}

// NewNetwork returns an empty network.
func NewNetwork(opts ...Option) *Network {
	n := &Network{
		hosts:     make(map[string]*Host),
		links:     make(map[[2]string]*link),
		partHosts: make(map[string]bool),
		partLinks: make(map[[2]string]bool),
		timers:    make(map[*time.Timer]struct{}),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// hostInbox bounds a host's pending packets, like a socket receive buffer.
const hostInbox = 4096

// Host registers (or returns the existing) host with the given address.
func (n *Network) Host(addr string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.hosts[addr]; ok {
		return h
	}
	h := &Host{net: n, addr: addr, inbox: newInbox(hostInbox)}
	n.hosts[addr] = h
	return h
}

// SetLink installs or replaces the directed link from src to dst.
func (n *Network) SetLink(src, dst string, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[[2]string{src, dst}]; ok {
		l.setConfig(cfg)
		return
	}
	n.newLinkLocked(src, dst, cfg)
}

// newLinkLocked creates the directed link src->dst. Callers hold mu.
func (n *Network) newLinkLocked(src, dst string, cfg LinkConfig) *link {
	l := &link{cfg: cfg}
	n.instrumentLinkLocked(src, dst, l)
	n.links[[2]string{src, dst}] = l
	return l
}

// SetDuplexLink installs the same configuration in both directions. Loss
// models are stateful, so each direction gets its own copy only if the
// caller passes a fresh model; for stateless configs this is safe to share.
func (n *Network) SetDuplexLink(a, b string, cfg LinkConfig) {
	n.SetLink(a, b, cfg)
	n.SetLink(b, a, cfg)
}

// LinkStats returns counters for the directed link, or false if none.
func (n *Network) LinkStats(src, dst string) (Stats, bool) {
	n.mu.Lock()
	l, ok := n.links[[2]string{src, dst}]
	n.mu.Unlock()
	if !ok {
		return Stats{}, false
	}
	return l.stats(), true
}

// LinkConfigOf returns the directed link's configuration, or false.
func (n *Network) LinkConfigOf(src, dst string) (LinkConfig, bool) {
	n.mu.Lock()
	l, ok := n.links[[2]string{src, dst}]
	n.mu.Unlock()
	if !ok {
		return LinkConfig{}, false
	}
	return l.config(), true
}

// Close shuts the network down: all hosts' Recv calls unblock and pending
// deliveries are cancelled. Close blocks until in-flight delivery timers
// have been reaped.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed.Load() {
		n.mu.Unlock()
		return nil
	}
	n.closed.Store(true)
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	timers := make([]*time.Timer, 0, len(n.timers))
	for t := range n.timers {
		timers = append(timers, t)
	}
	n.mu.Unlock()
	for _, t := range timers {
		if t.Stop() {
			// The delivery callback will never run; settle its wg slot.
			n.wg.Done()
		}
	}
	for _, h := range hosts {
		h.Close()
	}
	n.wg.Wait()
	return nil
}

// Host is one endpoint of the emulated network.
type Host struct {
	net   *Network
	addr  string
	inbox *inbox
	// routes caches, per destination this host has sent to, its route.
	// Reads take no lock; entries are added under the network mutex.
	routes sync.Map // string -> route
}

// route is a resolved destination: the peer and the directed link to it.
type route struct {
	peer *Host
	link *link
}

var _ PacketConn = (*Host)(nil)

// LocalAddr implements PacketConn.
func (h *Host) LocalAddr() string { return h.addr }

// Send implements PacketConn. The packet is copied; the caller may reuse
// the buffer immediately.
func (h *Host) Send(dst string, pkt []byte) error {
	n := h.net
	if n.closed.Load() {
		return ErrClosed
	}
	r, err := h.route(dst)
	if err != nil {
		return err
	}
	l := r.link
	if n.faulted.Load() && n.Partitioned(h.addr, dst) {
		l.drop()
		return nil // blackholed, like UDP into a partition: no error
	}
	wait, copies, ok := l.admit(len(pkt))
	if !ok {
		return nil // dropped, like UDP: no error to the sender
	}
	// Each delivery gets its own pooled copy: the receiver owns the buffer
	// it is handed (and may recycle it via buffer.PutPacket), so duplicated
	// packets must not share backing storage.
	var bufs [2][]byte
	for c := 0; c < copies; c++ {
		b := buffer.GetPacket(len(pkt))
		copy(b, pkt)
		bufs[c] = b
	}
	if wait <= 0 {
		for c := 0; c < copies; c++ {
			r.peer.deliver(datagram{src: h.addr, pkt: bufs[c]})
		}
		return nil
	}
	n.mu.Lock()
	if n.closed.Load() {
		n.mu.Unlock()
		l.release()
		for c := 0; c < copies; c++ {
			buffer.PutPacket(bufs[c])
		}
		return ErrClosed
	}
	n.wg.Add(1)
	var timer *time.Timer
	timer = time.AfterFunc(wait, func() {
		defer n.wg.Done()
		l.release()
		for c := 0; c < copies; c++ {
			r.peer.deliver(datagram{src: h.addr, pkt: bufs[c]})
		}
		n.mu.Lock()
		delete(n.timers, timer)
		n.mu.Unlock()
	})
	n.timers[timer] = struct{}{}
	n.mu.Unlock()
	return nil
}

// route returns dst's cached route, resolving it on first use.
func (h *Host) route(dst string) (route, error) {
	if r, ok := h.routes.Load(dst); ok {
		return r.(route), nil
	}
	return h.resolve(dst)
}

// resolve looks dst up in the network's tables and caches the result.
func (h *Host) resolve(dst string) (route, error) {
	n := h.net
	n.mu.Lock()
	defer n.mu.Unlock()
	peer, ok := n.hosts[dst]
	if !ok {
		return route{}, fmt.Errorf("%w: %q", ErrNoRoute, dst)
	}
	l, ok := n.links[[2]string{h.addr, dst}]
	if !ok {
		if !n.allowDefault {
			return route{}, fmt.Errorf("%w: no link %s->%s", ErrNoRoute, h.addr, dst)
		}
		l = n.newLinkLocked(h.addr, dst, LinkConfig{})
	}
	r := route{peer: peer, link: l}
	h.routes.Store(dst, r)
	return r, nil
}

// deliver places a datagram in the host's inbox, dropping it if the inbox
// is full (receiver-side buffer overflow) or the host is closed. Dropped
// datagrams return their buffers to the packet pool.
func (h *Host) deliver(d datagram) {
	if !h.inbox.put(d) {
		buffer.PutPacket(d.pkt)
	}
}

// Recv implements PacketConn. Packets already queued when the host closes
// are still returned, then ErrClosed.
func (h *Host) Recv() ([]byte, string, error) {
	var d [1]Datagram
	_, err := h.inbox.get(d[:])
	return d[0].Pkt, d[0].Peer, err
}

// Close implements PacketConn.
func (h *Host) Close() error {
	h.inbox.close()
	return nil
}
