package controller

import (
	"fmt"
	"sync"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/simclock"
)

// Daemon is the per-node control agent of Sec. III-A: "a daemon program
// runs on each network coding node". It owns the node's VNF, applies
// control messages from the controller (start/stop sessions, forwarding
// table updates, settings), and implements the τ-delayed shutdown on
// NC_VNF_END.
type Daemon struct {
	vnf   *dataplane.VNF
	clock simclock.Clock

	mu         sync.Mutex
	started    bool
	stopTimer  <-chan time.Time
	stopCancel chan struct{}
	closed     bool

	// Lifecycle state (see lifecycle.go): draining marks an in-progress
	// graceful drain; deployVersion tracks the last versioned deploy file
	// applied by Reload, enforcing reload monotonicity.
	draining      bool
	deployVersion int
}

// NewDaemon builds a daemon managing a VNF on the given conn.
func NewDaemon(conn emunet.PacketConn, clk simclock.Clock, opts ...dataplane.VNFOption) *Daemon {
	if clk == nil {
		clk = simclock.Real{}
	}
	return &Daemon{
		vnf:   dataplane.NewVNF(conn, opts...),
		clock: clk,
	}
}

// VNF exposes the managed coding function.
func (d *Daemon) VNF() *dataplane.VNF { return d.vnf }

// Apply executes one control message. Each apply's latency is observed
// into the VNF registry's apply-latency histogram, so a daemon snapshot
// shows how long control pushes take to take effect (Table III's
// table-update cost).
func (d *Daemon) Apply(m *Message) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("controller: daemon closed")
	}
	if d.draining && (m.Signal == NCSettings || m.Signal == NCStart) {
		// A draining daemon is on its way out: refuse anything that would
		// grow its state or re-open it (the VNF-level admission gate backs
		// this up for NC_SETTINGS).
		return fmt.Errorf("%s refused: %w", m.Signal, ErrAlreadyDraining)
	}
	start := d.clock.Now()
	defer func() {
		d.vnf.Telemetry().Histogram(MetricApplyNs).Observe(d.clock.Now().Sub(start).Nanoseconds())
	}()
	switch m.Signal {
	case NCSettings:
		if m.Settings == nil {
			return fmt.Errorf("controller: NC_SETTINGS without settings")
		}
		return d.vnf.Configure(*m.Settings)
	case NCStart:
		d.cancelShutdownLocked()
		if !d.started {
			d.vnf.Start()
			d.started = true
		}
		return nil
	case NCForwardTab:
		d.vnf.UpdateTable(m.Table)
		return nil
	case NCVNFEnd:
		tau := m.ShutdownAfter
		d.scheduleShutdownLocked(tau)
		return nil
	case NCVNFStart:
		// VM-level launches are handled by the controller's cloud pools;
		// at the daemon this is a no-op acknowledgement.
		return nil
	case NCSessionEnd:
		d.vnf.EndSession(m.Session)
		return nil
	default:
		return fmt.Errorf("controller: unknown signal %d", int(m.Signal))
	}
}

// scheduleShutdownLocked arms the τ shutdown timer. A subsequent NC_START
// within τ cancels it ("VNF reuse helps mitigate the overhead of launching
// new VNFs").
func (d *Daemon) scheduleShutdownLocked(tau time.Duration) {
	d.cancelShutdownLocked()
	cancel := make(chan struct{})
	d.stopCancel = cancel
	timer := d.clock.After(tau)
	go func() {
		select {
		case <-timer:
			d.mu.Lock()
			if d.stopCancel == cancel {
				d.stopCancel = nil
				d.closed = true
				d.mu.Unlock()
				d.vnf.Close()
				return
			}
			d.mu.Unlock()
		case <-cancel:
		}
	}()
}

func (d *Daemon) cancelShutdownLocked() {
	if d.stopCancel != nil {
		close(d.stopCancel)
		d.stopCancel = nil
	}
}

// Closed reports whether the daemon shut its VNF down.
func (d *Daemon) Closed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// Close shuts the daemon and its VNF down immediately.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.cancelShutdownLocked()
	d.closed = true
	d.mu.Unlock()
	return d.vnf.Close()
}
