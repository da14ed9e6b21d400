// Command ncctl is the central controller CLI. It reaches every ncd
// daemon at the address the deploy file's "admin" section names, and only
// there: it configures daemons by POSTing the file to their /reload
// endpoints (each applies the file's diff against its live state, so a
// blank daemon cold-starts), and it drives the operational lifecycle —
// τ-delayed stops, graceful drains, and one-at-a-time rolling restarts.
// The deployment schema is controller.DeployFile (see deploy.example.json).
//
// Usage:
//
//	ncctl -config deploy.json start            # POST the file to every /reload
//	ncctl -config deploy.json -tau 10m stop    # POST /stop: NC_VNF_END with τ
//	ncctl -config deploy.json stats            # per-node /stats snapshots
//	ncctl -config deploy.json drain            # POST /drain to every node
//	ncctl -config deploy.json reload           # the same as start
//	ncctl -config deploy.json rolling-restart  # restart→healthy→reload, one node at a time
//
// -nodes restricts any command to a comma-separated node subset (e.g. only
// the relays, never the decoders).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"ncfn/internal/controller"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ncctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ncctl", flag.ContinueOnError)
	configPath := fs.String("config", "", "deployment JSON (required)")
	tau := fs.Duration("tau", 10*time.Minute, "shutdown delay for stop")
	timeout := fs.Duration("timeout", controller.DefaultPushTimeout, "per-request timeout")
	nodesFlag := fs.String("nodes", "", "comma-separated node subset (default: every node with an admin address)")
	drainDeadline := fs.Duration("drain-deadline", controller.DefaultDrainDeadline,
		"drain deadline passed to /drain and /restart")
	wait := fs.Duration("wait", time.Minute,
		"how long rolling-restart waits for each node to drain, restart, and come back healthy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return errors.New("-config is required")
	}
	if fs.NArg() != 1 {
		return errors.New("expected one command: start | stop | stats | drain | reload | rolling-restart")
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	f, err := controller.ParseDeployFile(raw)
	if err != nil {
		return fmt.Errorf("parse %s: %w", *configPath, err)
	}
	nodes, err := selectNodes(f, *nodesFlag)
	if err != nil {
		return err
	}
	c := controller.AdminClient{Timeout: *timeout}
	switch cmd := fs.Arg(0); cmd {
	case "start", "reload":
		return start(c, f, raw, nodes, os.Stdout)
	case "stop":
		return stop(c, f, nodes, *tau, os.Stdout)
	case "stats":
		return stats(c, f, nodes, os.Stdout)
	case "drain":
		return drain(c, f, nodes, *drainDeadline, os.Stdout)
	case "rolling-restart":
		return rollingRestart(c, f, raw, nodes, *drainDeadline, *wait, os.Stdout)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// selectNodes resolves the -nodes filter against the deploy file's admin
// addresses: empty means every node that has one, and every named node
// must have one.
func selectNodes(f *controller.DeployFile, filter string) ([]string, error) {
	if len(f.Admin) == 0 {
		return nil, errors.New(`config has no "admin" section (map node -> ncd -admin address)`)
	}
	if filter == "" {
		return f.Nodes(), nil
	}
	var nodes []string
	for _, n := range strings.Split(filter, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, ok := f.Admin[n]; !ok {
			return nil, fmt.Errorf(`-nodes: %q has no "admin" address in the deploy file`, n)
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, errors.New("-nodes selected no nodes")
	}
	slices.Sort(nodes)
	return nodes, nil
}

// start POSTs the deploy file to each node's /reload: the daemon applies
// the file's diff against its live state and starts once the file gives it
// a role. Against a blank daemon that is the cold start; against a running
// one, only what changed.
func start(c controller.AdminClient, f *controller.DeployFile, raw []byte, nodes []string, w io.Writer) error {
	for _, node := range nodes {
		sum, err := c.Post(f.Admin[node], "/reload", raw)
		if err != nil {
			return fmt.Errorf("node %s: %w", node, err)
		}
		fmt.Fprintf(w, "configured %s: %s\n", node, strings.TrimSpace(string(sum)))
	}
	return nil
}

// stop POSTs /stop to each node: NC_VNF_END, so the daemon shuts down
// after τ unless a reload gives it a role first.
func stop(c controller.AdminClient, f *controller.DeployFile, nodes []string, tau time.Duration, w io.Writer) error {
	for _, node := range nodes {
		if _, err := c.Post(f.Admin[node], "/stop?tau="+tau.String(), nil); err != nil {
			return fmt.Errorf("node %s: %w", node, err)
		}
		fmt.Fprintf(w, "stopping %s in %v\n", node, tau)
	}
	return nil
}

// stats fetches each node's /stats document and prints it. A dead daemon
// delays the report by at most one request timeout before it is reported
// as unreachable, and the walk goes on.
func stats(c controller.AdminClient, f *controller.DeployFile, nodes []string, w io.Writer) error {
	var firstErr error
	for _, node := range nodes {
		var doc json.RawMessage
		if err := c.Get(f.Admin[node], "/stats", &doc); err != nil {
			fmt.Fprintf(w, "%s: unreachable: %v\n", node, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("node %s: %w", node, err)
			}
			continue
		}
		fmt.Fprintf(w, "%s: %s\n", node, doc)
	}
	return firstErr
}

// drain POSTs /drain to each node: it stops admitting new sessions and
// generations, flushes in flight, and exits at quiescence (or the
// deadline).
func drain(c controller.AdminClient, f *controller.DeployFile, nodes []string, deadline time.Duration, w io.Writer) error {
	for _, node := range nodes {
		if _, err := c.Post(f.Admin[node], "/drain?deadline="+deadline.String(), nil); err != nil {
			return fmt.Errorf("node %s: %w", node, err)
		}
		fmt.Fprintf(w, "draining %s (deadline %v)\n", node, deadline)
	}
	return nil
}

// rollingRestart walks the nodes one at a time: trigger /restart (drain,
// then exec handoff onto the same addresses), wait for the replacement to
// come back healthy, and reload the deploy file into it — only then move to
// the next node. The handoff re-binds the same addresses, so upstream
// tables that name the node stay valid. One node is down at any moment, so
// a redundancy-1 session keeps decoding throughout.
func rollingRestart(c controller.AdminClient, f *controller.DeployFile, raw []byte, nodes []string,
	drainDeadline, wait time.Duration, w io.Writer) error {
	for _, node := range nodes {
		addr := f.Admin[node]
		if _, err := c.Post(addr, "/restart?deadline="+drainDeadline.String(), nil); err != nil {
			return fmt.Errorf("node %s: %w", node, err)
		}
		if err := c.WaitHealthy(addr, time.Now().Add(wait)); err != nil {
			return fmt.Errorf("node %s: replacement never came back: %w", node, err)
		}
		if _, err := c.Post(addr, "/reload", raw); err != nil {
			return fmt.Errorf("node %s: reconfigure: %w", node, err)
		}
		fmt.Fprintf(w, "restarted %s\n", node)
	}
	return nil
}
