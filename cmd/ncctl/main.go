// Command ncctl is the central controller CLI: it pushes session settings,
// peer bindings, and forwarding tables to running ncd daemons over their
// TCP control ports, and drives the operational lifecycle — graceful
// drains, deploy-file hot-reloads, and one-at-a-time rolling restarts —
// over their admin endpoints. The deployment schema is
// controller.DeployFile (see deploy.example.json).
//
// Usage:
//
//	ncctl -config deploy.json start            # NC_SETTINGS + NC_FORWARD_TAB + NC_START
//	ncctl -config deploy.json stop -tau 10m    # NC_VNF_END with τ
//	ncctl -config deploy.json stats            # per-node /stats snapshots
//	ncctl -config deploy.json drain            # POST /drain to every node
//	ncctl -config deploy.json reload           # POST the file to every /reload
//	ncctl -config deploy.json rolling-restart  # drain→restart→cold start, one node at a time
//
// -nodes restricts drain/reload/rolling-restart to a comma-separated node
// subset (e.g. only the relays, never the decoders).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
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
	timeout := fs.Duration("timeout", controller.DefaultPushTimeout, "per-daemon push timeout")
	nodesFlag := fs.String("nodes", "", "comma-separated node subset for drain/reload/rolling-restart (default: all daemons)")
	drainDeadline := fs.Duration("drain-deadline", controller.DefaultDrainDeadline,
		"drain deadline passed to /drain and /restart")
	wait := fs.Duration("wait", time.Minute,
		"how long rolling-restart waits for each node to drain, restart, and come back healthy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > 0 {
		pushTimeout = *timeout
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
	switch cmd := fs.Arg(0); cmd {
	case "start":
		return start(f, os.Stdout)
	case "stop":
		return stop(f, *tau, os.Stdout)
	case "stats":
		return stats(f, os.Stdout)
	case "drain":
		nodes, err := selectNodes(f, *nodesFlag)
		if err != nil {
			return err
		}
		return drain(f, nodes, *drainDeadline, os.Stdout)
	case "reload":
		nodes, err := selectNodes(f, *nodesFlag)
		if err != nil {
			return err
		}
		return reload(f, raw, nodes, os.Stdout)
	case "rolling-restart":
		nodes, err := selectNodes(f, *nodesFlag)
		if err != nil {
			return err
		}
		return rollingRestart(f, nodes, *drainDeadline, *wait, os.Stdout)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// selectNodes resolves the -nodes filter against the deploy file's daemon
// list: empty means every daemon, and every named node must exist.
func selectNodes(f *controller.DeployFile, filter string) ([]string, error) {
	if filter == "" {
		return f.Nodes(), nil
	}
	var nodes []string
	for _, n := range strings.Split(filter, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, ok := f.Daemons[n]; !ok {
			return nil, fmt.Errorf("-nodes: %q is not in the deploy file's daemons", n)
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, errors.New("-nodes selected no nodes")
	}
	sort.Strings(nodes)
	return nodes, nil
}

// pushTimeout bounds each individual RPC — the dial, every message push,
// and every stats fetch separately — so -timeout means "how long one
// exchange may take", not a budget the whole command shares (see -timeout).
var pushTimeout = controller.DefaultPushTimeout

// push sends messages to one daemon, waiting for per-message acks. Each
// message is its own RPC with a fresh deadline: a daemon that acks slowly
// (but within the timeout) cannot starve the messages behind it.
func push(daemonAddr string, msgs []*controller.Message) error {
	dialCtx, dialCancel := context.WithTimeout(context.Background(), pushTimeout)
	d := net.Dialer{}
	c, err := d.DialContext(dialCtx, "tcp", daemonAddr)
	dialCancel()
	if err != nil {
		return fmt.Errorf("dial %s: %w", daemonAddr, err)
	}
	defer c.Close()
	for _, m := range msgs {
		ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
		err := controller.PushMessages(ctx, c, m)
		cancel()
		if err != nil {
			return fmt.Errorf("push to %s: %w", daemonAddr, err)
		}
	}
	return nil
}

// pushRetry pushes with dial retries until the deadline: after a restart the
// replacement daemon's control port may take a moment to come back.
func pushRetry(daemonAddr string, msgs []*controller.Message, deadline time.Time) error {
	for {
		err := push(daemonAddr, msgs)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stats fetches each daemon's telemetry snapshot from its admin endpoint
// and prints it. Every fetch is bounded by the per-RPC timeout, so one
// dead daemon delays the report by at most one timeout before it is
// reported as unreachable.
func stats(f *controller.DeployFile, w io.Writer) error {
	if len(f.Admin) == 0 {
		return errors.New(`config has no "admin" section (map node -> ncd -admin address)`)
	}
	nodes := make([]string, 0, len(f.Admin))
	for n := range f.Admin {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	client := &http.Client{Timeout: pushTimeout}
	var firstErr error
	for _, node := range nodes {
		raw, err := fetchStats(client, f.Admin[node])
		if err != nil {
			fmt.Fprintf(w, "%s: unreachable: %v\n", node, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("node %s: %w", node, err)
			}
			continue
		}
		fmt.Fprintf(w, "%s: %s\n", node, raw)
	}
	return firstErr
}

// fetchStats GETs one admin endpoint's /stats document.
func fetchStats(client *http.Client, addr string) ([]byte, error) {
	resp, err := client.Get("http://" + addr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// adminPost POSTs to one admin endpoint and returns the status and body.
func adminPost(client *http.Client, addr, pathAndQuery string, body []byte) (int, []byte, error) {
	resp, err := client.Post("http://"+addr+pathAndQuery, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, raw, nil
}

// adminAddr resolves one node's admin endpoint.
func adminAddr(f *controller.DeployFile, node string) (string, error) {
	addr, ok := f.Admin[node]
	if !ok {
		return "", fmt.Errorf(`node %s has no "admin" address in the deploy file`, node)
	}
	return addr, nil
}

// start cold-starts every daemon: settings (the first carrying the peer
// bindings), one table push, and NC_START.
func start(f *controller.DeployFile, w io.Writer) error {
	for _, node := range f.Nodes() {
		msgs, err := f.ColdStart(node)
		if err != nil {
			return err
		}
		if len(msgs) == 0 {
			continue
		}
		if err := push(f.Daemons[node], msgs); err != nil {
			return fmt.Errorf("node %s: %w", node, err)
		}
		fmt.Fprintf(w, "started %s (%d messages)\n", node, len(msgs))
	}
	return nil
}

// stop sends NC_VNF_END with τ to every daemon.
func stop(f *controller.DeployFile, tau time.Duration, w io.Writer) error {
	for _, node := range f.Nodes() {
		msg := &controller.Message{Signal: controller.NCVNFEnd, ShutdownAfter: tau}
		if err := push(f.Daemons[node], []*controller.Message{msg}); err != nil {
			return fmt.Errorf("node %s: %w", node, err)
		}
		fmt.Fprintf(w, "stopping %s in %v\n", node, tau)
	}
	return nil
}

// drain POSTs /drain to the selected nodes: each stops admitting new
// sessions and generations, flushes in flight, and exits at quiescence (or
// the deadline).
func drain(f *controller.DeployFile, nodes []string, deadline time.Duration, w io.Writer) error {
	client := &http.Client{Timeout: pushTimeout}
	for _, node := range nodes {
		addr, err := adminAddr(f, node)
		if err != nil {
			return err
		}
		code, body, err := adminPost(client, addr, "/drain?deadline="+deadline.String(), nil)
		if err != nil {
			return fmt.Errorf("node %s: %w", node, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("node %s: drain: %d %s", node, code, strings.TrimSpace(string(body)))
		}
		fmt.Fprintf(w, "draining %s (deadline %v)\n", node, deadline)
	}
	return nil
}

// reload POSTs the deploy file to the selected nodes' /reload endpoints;
// each daemon diffs it against its live state and hot-applies the changes
// without a restart.
func reload(f *controller.DeployFile, raw []byte, nodes []string, w io.Writer) error {
	client := &http.Client{Timeout: pushTimeout}
	for _, node := range nodes {
		addr, err := adminAddr(f, node)
		if err != nil {
			return err
		}
		code, body, err := adminPost(client, addr, "/reload", raw)
		if err != nil {
			return fmt.Errorf("node %s: %w", node, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("node %s: reload: %d %s", node, code, strings.TrimSpace(string(body)))
		}
		fmt.Fprintf(w, "reloaded %s: %s\n", node, strings.TrimSpace(string(body)))
	}
	return nil
}

// drainStatusDoc mirrors the admin /drain status document.
type drainStatusDoc struct {
	State    string `json:"state"`
	Draining bool   `json:"draining"`
}

// waitHealthy polls one admin endpoint until it reports a running (not
// draining) daemon — i.e. until the restarted replacement process answers —
// or the deadline passes.
func waitHealthy(client *http.Client, addr string, deadline time.Time) error {
	var lastErr error
	for {
		lastErr = func() error {
			resp, err := client.Get("http://" + addr + "/drain")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %s", resp.Status)
			}
			var st drainStatusDoc
			if err := json.Unmarshal(raw, &st); err != nil {
				return err
			}
			if st.Draining || st.State != "running" {
				// Still the outgoing process.
				return fmt.Errorf("state %s", st.State)
			}
			return nil
		}()
		if lastErr == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return lastErr
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// rollingRestart walks the selected nodes one at a time: trigger /restart
// (drain, then exec handoff onto the same addresses), wait for the
// replacement to come back healthy, and cold-start it over its control
// port — only then move to the next node. The handoff re-binds the same
// addresses, so upstream tables that name the node stay valid. One node is
// down at any moment, so a redundancy-1 session keeps decoding throughout.
func rollingRestart(f *controller.DeployFile, nodes []string, drainDeadline, wait time.Duration, w io.Writer) error {
	client := &http.Client{Timeout: pushTimeout}
	for _, node := range nodes {
		addr, err := adminAddr(f, node)
		if err != nil {
			return err
		}
		code, body, err := adminPost(client, addr, "/restart?deadline="+drainDeadline.String(), nil)
		if err != nil {
			return fmt.Errorf("node %s: restart: %w", node, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("node %s: restart: %d %s", node, code, strings.TrimSpace(string(body)))
		}
		deadline := time.Now().Add(wait)
		if err := waitHealthy(client, addr, deadline); err != nil {
			return fmt.Errorf("node %s: replacement never came back: %w", node, err)
		}
		// The replacement starts blank: cold-start it with dial retries
		// while its control listener finishes coming up.
		msgs, err := f.ColdStart(node)
		if err != nil {
			return err
		}
		if len(msgs) > 0 {
			if err := pushRetry(f.Daemons[node], msgs, deadline); err != nil {
				return fmt.Errorf("node %s: reconfigure: %w", node, err)
			}
		}
		fmt.Fprintf(w, "restarted %s\n", node)
	}
	return nil
}
