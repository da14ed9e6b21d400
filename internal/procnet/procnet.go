// Package procnet launches the repository's real binaries — ncd daemons
// and the ncctl controller CLI — as separate OS processes on loopback, so
// tests and experiments can exercise the true multi-process deployment of
// Sec. III-A: one process per network node, coded traffic on real UDP
// sockets, deploy files, lifecycle requests and telemetry over each
// daemon's admin HTTP endpoint.
//
// The harness builds the binaries with `go build` (cached by the go build
// cache, so repeated runs relink at most), starts each daemon with
// `-readyfile` and waits for the daemon to publish its kernel-assigned
// ports, and reads progress through each daemon's /stats snapshot.
package procnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"ncfn/internal/telemetry"
)

// Binaries holds the built executable paths.
type Binaries struct {
	Ncd   string
	Ncctl string
}

// ModuleRoot walks up from dir (or the working directory when dir is
// empty) to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("procnet: go.mod not found above working directory")
		}
		dir = parent
	}
}

// Build compiles ncd and ncctl into dir and returns their paths. The go
// tool must be on PATH (it is wherever the repo itself builds).
func Build(dir string) (Binaries, error) {
	root, err := ModuleRoot("")
	if err != nil {
		return Binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "ncfn/cmd/ncd", "ncfn/cmd/ncctl")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return Binaries{}, fmt.Errorf("procnet: go build: %v\n%s", err, out)
	}
	return Binaries{
		Ncd:   filepath.Join(dir, "ncd"),
		Ncctl: filepath.Join(dir, "ncctl"),
	}, nil
}

// readyInfo mirrors ncd's -readyfile JSON document.
type readyInfo struct {
	Data  string `json:"data"`
	Admin string `json:"admin"`
}

// Daemon is one running ncd process with its bound addresses.
type Daemon struct {
	Name  string
	Data  string // UDP data-plane address
	Admin string // HTTP admin address: the daemon's only control surface
	// Control repeats Admin. It is kept only because benchmark/deploy.go
	// reads it.
	Control string

	cmd *exec.Cmd
	log *bytes.Buffer

	// waitDone closes once the process is reaped; waitErr then holds the
	// exit error. A single background reaper owns cmd.Wait so Stop,
	// WaitExit, and the readiness loop can all observe exit safely. Note an
	// ncd /restart exec handoff keeps the PID, so the reaper keeps waiting
	// across restarts and fires only on real process exit.
	waitDone chan struct{}
	waitErr  error
}

// exited reports (without blocking) whether the process has been reaped.
func (d *Daemon) exited() bool {
	select {
	case <-d.waitDone:
		return true
	default:
		return false
	}
}

// StartDaemon launches `bin -name name` with kernel-assigned loopback
// ports and batch depth batch, then waits (up to 10s) for the readyfile to
// report the bound addresses. dir holds the readyfile; batch <= 1 selects
// the portable one-syscall-per-packet path.
func StartDaemon(bin, name, dir string, batch int) (*Daemon, error) {
	ready := filepath.Join(dir, name+".ready")
	_ = os.Remove(ready)
	d := &Daemon{Name: name, log: &bytes.Buffer{}, waitDone: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-name", name,
		"-data", "127.0.0.1:0",
		"-admin", "127.0.0.1:0",
		"-batch", strconv.Itoa(batch),
		"-readyfile", ready,
	)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("procnet: start %s: %w", name, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.waitDone)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := os.ReadFile(ready)
		if err == nil {
			var info readyInfo
			if err := json.Unmarshal(raw, &info); err != nil {
				d.Stop()
				return nil, fmt.Errorf("procnet: %s readyfile: %w", name, err)
			}
			d.Data, d.Admin, d.Control = info.Data, info.Admin, info.Admin
			return d, nil
		}
		if d.exited() || time.Now().After(deadline) {
			out := d.Output()
			d.Stop()
			return nil, fmt.Errorf("procnet: %s never became ready\n%s", name, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Stop kills the daemon process and reaps it. Safe to call twice.
func (d *Daemon) Stop() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill()
	}
	<-d.waitDone
}

// Output returns the daemon's combined stdout/stderr so far (for failure
// diagnostics).
func (d *Daemon) Output() string { return d.log.String() }

// Stats fetches and parses one daemon's /stats telemetry snapshot.
func Stats(adminAddr string) (snap telemetry.Snapshot, err error) {
	err = admin.Get(adminAddr, "/stats", &snap)
	return snap, err
}

// RunCtl invokes the ncctl binary with a deployment config: `ncctl -config
// cfgPath [flags...] <command>`, returning its combined output. Extra
// flags (e.g. "-tau", "1ms") go before the command, as ncctl's flag
// parsing requires.
func RunCtl(bin, cfgPath, command string, flags ...string) (string, error) {
	all := append(append([]string{"-config", cfgPath}, flags...), command)
	cmd := exec.Command(bin, all...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return string(out), fmt.Errorf("procnet: ncctl %s: %v\n%s", command, err, out)
	}
	return string(out), nil
}
