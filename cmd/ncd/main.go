// Command ncd is the network coding daemon: it runs one coding VNF over a
// real UDP socket and accepts control messages (NC_SETTINGS, NC_START,
// NC_FORWARD_TAB, NC_VNF_END) on a TCP control port, mirroring the
// per-node daemon of Sec. III-A.
//
//	ncd -name relay1 -data 127.0.0.1:7001 -control 127.0.0.1:8001
//
// The controller (cmd/ncctl) connects to the control port and streams
// length-prefixed JSON messages. Peer name→address bindings arrive in the
// same stream (the "peers" map), so forwarding tables can reference nodes
// by name.
//
// Lifecycle: SIGTERM/SIGINT starts a graceful drain (stop admitting new
// sessions and generations, flush in-flight ones, then close) bounded by
// -drain-deadline; a second signal exits immediately. The admin endpoint
// adds POST /drain, /reload (hot-apply a deploy-file diff) and /restart
// (drain, then exec a fresh ncd on the same bound addresses).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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
	fs := flag.NewFlagSet("ncd", flag.ContinueOnError)
	name := fs.String("name", "", "this node's logical name (required)")
	dataAddr := fs.String("data", "127.0.0.1:0", "UDP address for coded traffic")
	controlAddr := fs.String("control", "127.0.0.1:0", "TCP address for control messages")
	adminAddr := fs.String("admin", "", "HTTP address for the admin endpoint (/stats, /drain, /reload, /restart, /debug/pprof); empty disables it")
	batch := fs.Int("batch", emunet.DefaultRxBatch,
		"datagram I/O batch depth: recvmmsg ring size and per-destination tx coalescing depth (1 = one syscall per packet)")
	drainDeadline := fs.Duration("drain-deadline", controller.DefaultDrainDeadline,
		"how long a graceful drain (SIGTERM, /drain, /restart) waits for in-flight generations before closing anyway")
	readyFile := fs.String("readyfile", "",
		"write a JSON {\"data\",\"control\",\"admin\"} address file once all listeners are up (for process harnesses); empty disables it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return errors.New("-name is required")
	}

	// Register for shutdown signals before any listener opens, so a SIGTERM
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

	ln, err := net.Listen("tcp", *controlAddr)
	if err != nil {
		return fmt.Errorf("control listen: %w", err)
	}
	defer ln.Close()
	log.Printf("ncd %s: data %s control %s gf kernel %s", *name, conn.UDPAddr(), ln.Addr(), gf.KernelName())

	adminBound := ""
	if *adminAddr != "" {
		adminLn, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		defer adminLn.Close()
		reg.PublishExpvar("ncd_" + *name)
		adminBound = adminLn.Addr().String()
		go controller.ServeAdmin(adminLn, controller.AdminConfig{
			Daemon:        daemon,
			Registry:      reg,
			Node:          *name,
			Peers:         registry,
			DrainDeadline: *drainDeadline,
			Restart: execHandoff(*name, conn.UDPAddr().String(), ln.Addr().String(),
				adminBound, *batch, *drainDeadline, *readyFile),
		})
		log.Printf("ncd %s: admin http://%s/stats", *name, adminBound)
	}

	if *readyFile != "" {
		// Every listener is up: publish the bound addresses so a launching
		// harness can stop guessing ports. Write-then-rename keeps readers
		// from seeing a partial file.
		if err := writeReadyFile(*readyFile, readyInfo{
			Data:    conn.UDPAddr().String(),
			Control: ln.Addr().String(),
			Admin:   adminBound,
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

	// When the daemon closes — τ shutdown (NC_VNF_END), drain completion,
	// or /restart — unblock Accept so the process exits.
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

	for {
		c, err := ln.Accept()
		if err != nil {
			if daemon.Closed() {
				return nil
			}
			return fmt.Errorf("control accept: %w", err)
		}
		err = controller.ServeControlStream(c, daemon, registry)
		c.Close()
		if err != nil && !errors.Is(err, io.EOF) {
			log.Printf("ncd %s: control session: %v", *name, err)
		}
		if daemon.Closed() {
			return nil
		}
	}
}

// execHandoff builds the /restart hook: replace this process with a fresh
// ncd pinned to the same bound addresses. The exec closes every inherited
// socket (Go sets CLOEXEC), freeing the ports for the replacement, and
// preserves the PID so a supervising harness's Wait keeps working.
func execHandoff(name, data, control, admin string, batch int, drainDeadline time.Duration, readyFile string) func() {
	return func() {
		exe, err := os.Executable()
		if err != nil {
			log.Printf("ncd %s: restart: %v", name, err)
			os.Exit(1)
		}
		argv := []string{exe,
			"-name", name,
			"-data", data,
			"-control", control,
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

// readyInfo is the address set a daemon advertises once its listeners are
// bound (the -readyfile contents).
type readyInfo struct {
	Data    string `json:"data"`
	Control string `json:"control"`
	Admin   string `json:"admin,omitempty"`
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
