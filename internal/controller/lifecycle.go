package controller

import (
	"errors"
	"fmt"
	"time"
)

// Drain / reload error taxonomy. The admin endpoint maps these onto HTTP
// statuses (409 for lifecycle conflicts), and ncctl prints them verbatim.
var (
	// ErrAlreadyDraining rejects a second drain (or a reload) on a daemon
	// whose drain is already in progress.
	ErrAlreadyDraining = errors.New("controller: daemon already draining")
	// ErrDaemonClosed rejects lifecycle operations on a closed daemon.
	ErrDaemonClosed = errors.New("controller: daemon closed")
	// ErrStaleVersion rejects a reload whose deploy-file version is not
	// newer than the version already applied.
	ErrStaleVersion = errors.New("controller: stale deploy version")
)

// StartDrain moves the daemon into graceful drain: the VNF stops admitting
// new sessions and new generations (dataplane.VNF.Drain), in-flight
// generations keep flushing, and a background waiter closes the daemon once
// the pipeline quiesces — or when the deadline expires, whichever comes
// first. The call itself returns immediately; progress is observable
// through the dataplane_drain_* instruments and Closed.
//
// While draining, NC_SETTINGS and NC_START messages are refused, so a
// racing controller cannot re-open a daemon that is on its way out.
func (d *Daemon) StartDrain(deadline time.Duration) error {
	return d.startDrain(deadline, nil)
}

// startDrain is StartDrain with an optional hook that runs after the drain
// completed and the daemon closed (the /restart exec handoff); Closed waits
// for it.
func (d *Daemon) startDrain(deadline time.Duration, onClosed func()) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrDaemonClosed
	}
	if d.draining {
		d.mu.Unlock()
		return ErrAlreadyDraining
	}
	d.draining = true
	var hookDone chan struct{}
	if onClosed != nil {
		hookDone = make(chan struct{})
		d.hookDone = hookDone
	}
	d.mu.Unlock()
	d.vnf.Drain()
	go func() {
		d.vnf.WaitQuiesced(deadline)
		_ = d.Close()
		if onClosed != nil {
			onClosed()
			close(hookDone)
		}
	}()
	return nil
}

// Draining reports whether StartDrain has been called.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// DeployVersion returns the version of the last deploy file applied by
// Reload (zero before any versioned reload).
func (d *Daemon) DeployVersion() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deployVersion
}

// checkReloadable admits or refuses a reload under the daemon lock:
// lifecycle conflicts first, then version monotonicity. On success the new
// version is claimed immediately, so two racing reloads of the same
// versioned file cannot both apply.
func (d *Daemon) checkReloadable(version int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDaemonClosed
	}
	if d.draining {
		return fmt.Errorf("%w: reload refused", ErrAlreadyDraining)
	}
	if version != 0 {
		if version <= d.deployVersion {
			return fmt.Errorf("%w: have %d, got %d", ErrStaleVersion, d.deployVersion, version)
		}
		d.deployVersion = version
	}
	return nil
}
