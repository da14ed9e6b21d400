package emunet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ncfn/internal/buffer"
	"ncfn/internal/telemetry"
)

// UDPConn adapts a real UDP socket to the PacketConn interface, so the same
// data-plane code that runs on the emulated network can be deployed over
// the loopback interface or a real network. Addresses are logical names
// resolved through a shared registry (the deployment's "forwarding table of
// IP addresses" in paper terms).
//
// The receive path mimics the paper's DPDK poll-mode design as closely as a
// kernel socket allows: a dedicated goroutine blocks in the receive syscall
// in a tight loop and hands packets to the consumer over a buffered
// channel, keeping the socket drained. On linux the loop pulls up to the
// configured rx batch depth per recvmmsg syscall (WithRxBatch); elsewhere —
// or under WithPortableIO — it falls back to one ReadFromUDP per packet.
//
// UDPConn also implements BatchPacketConn: SendBatch moves many datagrams
// per sendmmsg syscall on linux and degrades to a per-packet loop on other
// platforms, with identical bytes on the wire either way.
type UDPConn struct {
	name     string
	conn     *net.UDPConn
	registry *Registry
	inbox    *inbox

	// tx is the platform batch sender (nil when unavailable or disabled by
	// WithPortableIO); rxBatch > 1 selects the recvmmsg read loop.
	tx      batchSender
	rxBatch int

	tel udpTelemetry

	closeOnce sync.Once
	done      chan struct{}
	readerWG  sync.WaitGroup
}

var (
	_ PacketConn      = (*UDPConn)(nil)
	_ BatchPacketConn = (*UDPConn)(nil)
)

// addrKey is a UDP address in comparable form: the 16-byte IPv6(-mapped)
// representation plus the port. It keys the registry's reverse index, so
// the receive path resolves a sender to its logical name with one map
// lookup and zero allocations regardless of registry size.
type addrKey struct {
	ip   [16]byte
	port int
}

// keyOf converts a UDP address to its reverse-index key. The second result
// is false for addresses with no usable IP (nothing to index).
func keyOf(addr *net.UDPAddr) (addrKey, bool) {
	ip := addr.IP.To16()
	if ip == nil {
		return addrKey{}, false
	}
	var k addrKey
	copy(k.ip[:], ip)
	k.port = addr.Port
	return k, true
}

// Registry maps logical node names to UDP addresses. It is safe for
// concurrent use.
type Registry struct {
	mu    sync.RWMutex
	addrs map[string]*net.UDPAddr
	// rev is the reverse index maintained by Register: address key to
	// logical name. The rx path does one RLock + map hit per packet instead
	// of a linear scan.
	rev map[addrKey]string
}

// NewRegistry returns an empty name registry.
func NewRegistry() *Registry {
	return &Registry{
		addrs: make(map[string]*net.UDPAddr),
		rev:   make(map[addrKey]string),
	}
}

// Register associates a logical name with a UDP address. Re-registering a
// name replaces its binding (and moves the reverse index with it).
func (r *Registry) Register(name string, addr *net.UDPAddr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.addrs[name]; ok {
		if k, ok := keyOf(old); ok && r.rev[k] == name {
			delete(r.rev, k)
		}
	}
	r.addrs[name] = addr
	if k, ok := keyOf(addr); ok {
		r.rev[k] = name
	}
}

// Lookup resolves a logical name.
func (r *Registry) Lookup(name string) (*net.UDPAddr, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.addrs[name]
	return a, ok
}

// reverse finds the logical name for a UDP address via the reverse index
// (O(1), allocation-free on the hit path). Unregistered addresses format
// themselves, so traffic from unknown peers still carries a usable source.
func (r *Registry) reverse(addr *net.UDPAddr) string {
	if k, ok := keyOf(addr); ok {
		if name, ok := r.reverseKey(k); ok {
			return name
		}
	}
	return addr.String()
}

// reverseKey resolves an address key to its logical name.
func (r *Registry) reverseKey(k addrKey) (string, bool) {
	r.mu.RLock()
	name, ok := r.rev[k]
	r.mu.RUnlock()
	return name, ok
}

// udpConfig collects ListenUDP's options.
type udpConfig struct {
	reg      *telemetry.Registry
	rxBatch  int
	inbox    int
	portable bool
}

// UDPOption configures ListenUDP.
type UDPOption func(*udpConfig)

// WithUDPTelemetry attaches the socket's instruments — syscall and packet
// counters, the per-syscall batch-size histogram, the rx-overflow drop
// counter, and the drop flight recorder — to the given registry instead of
// a private one, so a daemon serves one merged snapshot.
func WithUDPTelemetry(reg *telemetry.Registry) UDPOption {
	return func(c *udpConfig) {
		if reg != nil {
			c.reg = reg
		}
	}
}

// WithRxBatch sets the receive ring depth: how many datagrams one recvmmsg
// syscall may pull on linux. Values <= 1 (and every non-linux platform)
// select the portable one-ReadFromUDP-per-packet loop. The default is
// DefaultRxBatch.
func WithRxBatch(n int) UDPOption {
	return func(c *udpConfig) { c.rxBatch = n }
}

// WithPortableIO forces the portable single-packet syscall path even where
// the batched sendmmsg/recvmmsg path is available. The two paths are
// byte-identical on the wire (the differential test pins them); this knob
// exists for that pinning and for diagnosing platform-specific behavior.
func WithPortableIO() UDPOption {
	return func(c *udpConfig) { c.portable = true }
}

// DefaultRxBatch is the default receive ring depth on platforms with
// recvmmsg: deep enough that a loaded socket amortizes the syscall across
// a full tx ring's worth of arrivals, small enough to keep the ring's
// preallocated buffers (depth x 64 KiB) modest.
const DefaultRxBatch = 16

// ListenUDP opens a UDP socket on addr (e.g. "127.0.0.1:0"), registers it
// under name, and returns the PacketConn.
func ListenUDP(name, addr string, registry *Registry, opts ...UDPOption) (*UDPConn, error) {
	cfg := udpConfig{rxBatch: DefaultRxBatch, inbox: 4096}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.reg == nil {
		cfg.reg = telemetry.NewRegistry()
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("emunet: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("emunet: listen %q: %w", addr, err)
	}
	local, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("emunet: unexpected local address type %T", conn.LocalAddr())
	}
	// A batched sender can legally put a whole coalesced burst on loopback
	// in one syscall; the default rx buffer (a couple hundred KB) then
	// drops the tail whenever the receiver is briefly descheduled. Size
	// the kernel buffers for burst absorption — best effort, silently
	// capped by the kernel when unprivileged.
	setSocketBuffers(conn)
	registry.Register(name, local)
	u := &UDPConn{
		name:     name,
		conn:     conn,
		registry: registry,
		inbox:    newInbox(cfg.inbox),
		done:     make(chan struct{}),
		tel:      newUDPTelemetry(cfg.reg),
	}
	if !cfg.portable {
		// Platform hook: nil on non-linux builds, so every caller falls
		// back to the portable loop without build tags of its own.
		u.tx = newBatchSender(conn)
		if cfg.rxBatch > 1 && batchIOSupported {
			u.rxBatch = cfg.rxBatch
		}
	}
	u.readerWG.Add(1)
	go u.readLoop()
	return u, nil
}

// Read-loop error handling: transient socket errors back off exponentially
// (bounded) instead of spinning hot; permanent errors (a closed or
// unrecoverable socket) exit the loop.
const (
	readBackoffMin = time.Millisecond
	readBackoffMax = 100 * time.Millisecond
)

// readErr classifies a receive error and applies backoff. It reports
// whether the read loop should keep polling: false means exit (conn closed
// via Close, socket permanently dead), true means a bounded backoff was
// taken and the loop may retry.
func (u *UDPConn) readErr(backoff *time.Duration, err error) bool {
	select {
	case <-u.done:
		return false
	default:
	}
	if errors.Is(err, net.ErrClosed) {
		// The socket died underneath a live conn (not via Close): nothing
		// will ever arrive again, so exit instead of spinning on EBADF.
		return false
	}
	u.tel.readErrs.Inc(udpRxCell)
	if *backoff < readBackoffMin {
		*backoff = readBackoffMin
	} else if *backoff *= 2; *backoff > readBackoffMax {
		*backoff = readBackoffMax
	}
	timer := time.NewTimer(*backoff)
	defer timer.Stop()
	select {
	case <-u.done:
		return false
	case <-timer.C:
		return true
	}
}

// readLoop is the poll-mode receive goroutine.
func (u *UDPConn) readLoop() {
	defer u.readerWG.Done()
	if u.rxBatch > 1 {
		if u.readLoopBatched(u.rxBatch) {
			return
		}
		// Ring setup failed (exotic socket state); fall through to the
		// portable loop rather than dropping the conn.
	}
	u.readLoopPortable()
}

// readLoopPortable receives one datagram per syscall — the reference
// behavior every platform shares.
func (u *UDPConn) readLoopPortable() {
	buf := make([]byte, 65536)
	var backoff time.Duration
	for {
		n, from, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			if !u.readErr(&backoff, err) {
				return
			}
			continue
		}
		backoff = 0
		u.tel.syscalls.Inc(udpRxCell)
		u.tel.batch.Observe(1)
		pkt := buffer.GetPacket(n)
		copy(pkt, buf[:n])
		u.deliver(pkt, u.registry.reverse(from))
	}
}

// deliver hands one received packet to the consumer, dropping (with
// accounting) when the inbox is full — the userspace twin of a kernel
// socket-buffer overflow.
func (u *UDPConn) deliver(pkt []byte, src string) {
	if u.inbox.put(datagram{src: src, pkt: pkt}) {
		u.tel.rxPkts.Inc(udpRxCell)
		return
	}
	buffer.PutPacket(pkt)
	select {
	case <-u.done:
		return
	default:
	}
	// Consumer too slow: drop, as a kernel buffer would — but never
	// silently. The counter feeds emunet_udp_rx_dropped and the flight
	// recorder keeps the when.
	u.tel.rxDropped.Inc(udpRxCell)
	u.tel.rec.Record(time.Now().UnixNano(), telemetry.EventPacketDrop, u.name, 0, 0, 1)
}

// LocalAddr implements PacketConn.
func (u *UDPConn) LocalAddr() string { return u.name }

// UDPAddr returns the socket's bound address.
func (u *UDPConn) UDPAddr() *net.UDPAddr {
	a, _ := u.conn.LocalAddr().(*net.UDPAddr)
	return a
}

// Send implements PacketConn.
func (u *UDPConn) Send(dst string, pkt []byte) error {
	addr, ok := u.registry.Lookup(dst)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRoute, dst)
	}
	if _, err := u.conn.WriteToUDP(pkt, addr); err != nil {
		return fmt.Errorf("emunet: send to %q: %w", dst, err)
	}
	u.tel.syscalls.Inc(udpTxCell)
	u.tel.txPkts.Inc(udpTxCell)
	return nil
}

// SendBatch implements BatchPacketConn: on linux the batch goes out in
// sendmmsg calls of up to the batch length; elsewhere (or under
// WithPortableIO) it loops the single-packet path. Unroutable destinations
// are skipped (counted in the returned error) and do not block the rest of
// the batch.
func (u *UDPConn) SendBatch(batch []Datagram) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	if u.tx != nil {
		return u.tx.sendBatch(u, batch)
	}
	return u.sendBatchPortable(batch)
}

// sendBatchPortable is the fallback SendBatch: the single-packet path in a
// loop, byte-identical on the wire to the syscall-batched path.
func (u *UDPConn) sendBatchPortable(batch []Datagram) (int, error) {
	sent := 0
	var firstErr error
	for _, d := range batch {
		if err := u.Send(d.Peer, d.Pkt); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}

// RecvBatch implements BatchPacketConn: it blocks for the first datagram,
// then fills buf with what else the inbox had taken in the same swap.
func (u *UDPConn) RecvBatch(buf []Datagram) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	return u.inbox.get(buf)
}

// Recv implements PacketConn. Packets queued before Close are still
// returned, then ErrClosed.
func (u *UDPConn) Recv() ([]byte, string, error) {
	var d [1]Datagram
	_, err := u.inbox.get(d[:])
	return d[0].Pkt, d[0].Peer, err
}

// Close implements PacketConn. It joins the reader goroutine.
func (u *UDPConn) Close() error {
	var err error
	u.closeOnce.Do(func() {
		close(u.done)
		u.inbox.close()
		err = u.conn.Close()
		u.readerWG.Wait()
	})
	return err
}
