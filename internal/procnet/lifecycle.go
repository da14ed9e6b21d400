package procnet

import (
	"fmt"
	"os"
	"time"

	"ncfn/internal/controller"
	"ncfn/internal/dataplane"
)

// admin is the harness's client for every daemon's admin endpoint.
var admin = controller.AdminClient{Timeout: 5 * time.Second}

// Drain starts a graceful drain on this daemon.
func (d *Daemon) Drain(deadline time.Duration) error {
	_, err := admin.Post(d.Admin, "/drain?deadline="+deadline.String(), nil)
	return err
}

// WaitQuiesced waits until the daemon's drained pipeline reports quiescence
// through the dataplane_drain_state gauge. A completed drain closes the
// daemon — and with it the admin endpoint — so a dead process also counts
// as quiesced; only a still-running daemon that never reaches quiescence
// times out.
func (d *Daemon) WaitQuiesced(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for {
		if d.exited() {
			return nil
		}
		snap, err := Stats(d.Admin)
		if err == nil {
			if snap.Gauges[dataplane.MetricDrainState] == dataplane.DrainStateQuiesced {
				return nil
			}
			last = fmt.Errorf("procnet: %s drain state %d", d.Name, snap.Gauges[dataplane.MetricDrainState])
		} else {
			// Unreachable mid-drain: the daemon may be between closing its
			// listeners and process exit — keep polling until it is reaped.
			last = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("procnet: %s never quiesced: %w", d.Name, last)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// WaitExit waits for the daemon process to exit and returns its exit error
// (nil for a clean exit — e.g. a completed drain).
func (d *Daemon) WaitExit(timeout time.Duration) error {
	select {
	case <-d.waitDone:
		return d.waitErr
	case <-time.After(timeout):
		return fmt.Errorf("procnet: %s did not exit within %v\n%s", d.Name, timeout, d.Output())
	}
}

// Signal sends sig (e.g. syscall.SIGTERM to start a graceful drain) to the
// daemon process.
func (d *Daemon) Signal(sig os.Signal) error {
	return d.cmd.Process.Signal(sig)
}

// Restart drives one daemon through a drain-and-exec-handoff restart and
// waits for the replacement to come back healthy on the same (pinned)
// addresses. The PID is preserved across the handoff, so Stop/WaitExit keep
// working afterwards. The replacement starts blank: reconfigure it (ncctl
// start, or a reload) before sending traffic.
func (d *Daemon) Restart(drainDeadline, wait time.Duration) error {
	if _, err := admin.Post(d.Admin, "/restart?deadline="+drainDeadline.String(), nil); err != nil {
		return fmt.Errorf("procnet: restart %s: %w", d.Name, err)
	}
	if err := admin.WaitHealthy(d.Admin, time.Now().Add(wait)); err != nil {
		return fmt.Errorf("procnet: restart %s: %w", d.Name, err)
	}
	return nil
}
