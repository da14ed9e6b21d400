// Command ncd is the network coding daemon: it runs one coding VNF over a
// real UDP socket, mirroring the per-node daemon of Sec. III-A, and takes
// every control request on one HTTP admin endpoint.
//
//	ncd -name relay1 -data 127.0.0.1:7001 -admin 127.0.0.1:8001
//
// The controller (cmd/ncctl) configures it by POSTing a deploy file to
// /reload: the daemon applies the file's diff against its live state
// (NC_SETTINGS, NC_FORWARD_TAB, NC_SESSION_END), registers the file's peer
// name→address bindings so forwarding tables can name nodes, and starts
// the VNF (NC_START) once the file gives this node a role. POST /stop?tau=
// applies NC_VNF_END. See PROTOCOL.md §4.
//
// Lifecycle: SIGTERM/SIGINT starts a graceful drain (stop admitting new
// sessions and generations, flush in-flight ones, then close) bounded by
// -drain-deadline; a second signal exits immediately. The admin endpoint
// adds POST /drain and /restart (drain, then exec a fresh ncd on the same
// bound addresses). The process exits once the daemon closes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"ncfn/internal/controller"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/gf"
	"ncfn/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ncd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// First, before anything binds: a restart's exec handoff that never
	// reaches this line shows in the log as its absence.
	log.Printf("ncd: pid %d argv %q", os.Getpid(), args)
	fs := flag.NewFlagSet("ncd", flag.ContinueOnError)
	name := fs.String("name", "", "this node's logical name (required)")
	dataAddr := fs.String("data", "127.0.0.1:0", "UDP address for coded traffic")
	adminAddr := fs.String("admin", "127.0.0.1:0", "HTTP address for the admin endpoint (/reload, /stop, /drain, /restart, /stats, /debug/pprof)")
	batch := fs.Int("batch", emunet.DefaultRxBatch,
		"datagram I/O batch depth: recvmmsg ring size and per-destination tx coalescing depth (1 = one syscall per packet)")
	drainDeadline := fs.Duration("drain-deadline", controller.DefaultDrainDeadline,
		"how long a graceful drain (SIGTERM, /drain, /restart) waits for in-flight generations before closing anyway")
	readyFile := fs.String("readyfile", "",
		"write a JSON {\"data\",\"admin\"} address file once both sockets are up (for process harnesses); empty disables it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return errors.New("-name is required")
	}

	// Register for shutdown signals before any socket opens, so a SIGTERM
	// arriving during startup is queued rather than killing the process
	// mid-bind; the handler goroutine starts once the daemon exists.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	reg := telemetry.NewRegistry()
	registry := emunet.NewRegistry()
	udpOpts := []emunet.UDPOption{emunet.WithUDPTelemetry(reg), emunet.WithRxBatch(*batch)}
	if *batch <= 1 {
		udpOpts = append(udpOpts, emunet.WithPortableIO())
	}
	conn, err := emunet.ListenUDP(*name, *dataAddr, registry, udpOpts...)
	if err != nil {
		return err
	}
	daemon := controller.NewDaemon(conn, nil,
		dataplane.WithTelemetry(reg), dataplane.WithTxCoalesce(*batch))
	defer daemon.Close()

	ln, err := net.Listen("tcp", *adminAddr)
	if err != nil {
		return fmt.Errorf("admin listen: %w", err)
	}
	defer ln.Close()
	reg.PublishExpvar("ncd_" + *name)
	log.Printf("ncd %s: data %s admin http://%s gf kernel %s", *name, conn.UDPAddr(), ln.Addr(), gf.KernelName())

	if *readyFile != "" {
		// Both sockets are up: publish the bound addresses so a launching
		// harness can stop guessing ports. Write-then-rename keeps readers
		// from seeing a partial file.
		if err := writeReadyFile(*readyFile, readyInfo{
			Data:  conn.UDPAddr().String(),
			Admin: ln.Addr().String(),
		}); err != nil {
			return fmt.Errorf("readyfile: %w", err)
		}
	}

	// stopWatch ends the helper goroutines when run returns (tests run
	// several daemons in one process).
	stopWatch := make(chan struct{})
	defer close(stopWatch)

	// SIGTERM/SIGINT start a graceful drain: the VNF refuses new sessions
	// and generations, in-flight generations flush, and the drain waiter
	// closes the daemon at quiescence (or the deadline). A second signal
	// skips the grace period and exits immediately.
	go func() {
		var sig os.Signal
		select {
		case sig = <-sigc:
		case <-stopWatch:
			return
		}
		log.Printf("ncd %s: %v: draining (deadline %s)", *name, sig, *drainDeadline)
		if err := daemon.StartDrain(*drainDeadline); err != nil {
			// Already draining or closed: nothing left to start.
			log.Printf("ncd %s: drain: %v", *name, err)
		}
		select {
		case sig = <-sigc:
			log.Printf("ncd %s: %v: immediate exit", *name, sig)
			os.Exit(1)
		case <-stopWatch:
		}
	}()

	// When the daemon closes — τ shutdown (/stop), drain completion, or
	// /restart — close the admin listener so the server below returns.
	go func() {
		ticker := time.NewTicker(200 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case <-ticker.C:
				if daemon.Closed() {
					ln.Close()
					return
				}
			}
		}
	}()

	err = controller.ServeAdmin(ln, controller.AdminConfig{
		Daemon:        daemon,
		Registry:      reg,
		Node:          *name,
		Peers:         registry,
		DrainDeadline: *drainDeadline,
		Restart: execHandoff(*name, conn.UDPAddr().String(), ln.Addr().String(),
			*batch, *drainDeadline, *readyFile),
	})
	if daemon.Closed() {
		return nil
	}
	return fmt.Errorf("admin serve: %w", err)
}

// execHandoff builds the /restart hook: replace this process with a fresh
// ncd pinned to the same bound addresses. The exec closes every inherited
// socket (Go sets CLOEXEC), freeing the ports for the replacement, and
// preserves the PID so a supervising harness's Wait keeps working.
func execHandoff(name, data, admin string, batch int, drainDeadline time.Duration, readyFile string) func() {
	return func() {
		exe, err := os.Executable()
		if err != nil {
			log.Printf("ncd %s: restart: %v", name, err)
			os.Exit(1)
		}
		argv := []string{exe,
			"-name", name,
			"-data", data,
			"-admin", admin,
			"-batch", strconv.Itoa(batch),
			"-drain-deadline", drainDeadline.String(),
		}
		if readyFile != "" {
			argv = append(argv, "-readyfile", readyFile)
		}
		log.Printf("ncd %s: restart: exec handoff", name)
		if err := syscall.Exec(exe, argv, os.Environ()); err != nil {
			log.Printf("ncd %s: restart exec: %v", name, err)
			os.Exit(1)
		}
	}
}

// readyInfo is the address set a daemon advertises once its sockets are
// bound (the -readyfile contents).
type readyInfo struct {
	Data  string `json:"data"`
	Admin string `json:"admin"`
}

// writeReadyFile atomically publishes the daemon's bound addresses.
func writeReadyFile(path string, info readyInfo) error {
	raw, err := json.Marshal(info)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
