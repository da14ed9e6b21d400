package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ncfn/internal/controller"
	"ncfn/internal/emunet"
	"ncfn/internal/telemetry"
)

// testDeploy is a two-node deployment: a recoding relay feeding a decoder.
func testDeploy() *controller.DeployFile {
	return &controller.DeployFile{
		Version: 1,
		Sessions: []controller.DeploySession{{
			ID: 1, Blocks: 4, BlockSize: 64, Redundancy: 1,
			Roles:    map[string]string{"relay1": "recoder", "recv1": "decoder"},
			InPerGen: map[string]int{"relay1": 4},
			Tables: map[string][]controller.DeployHopGroup{
				"relay1": {{Addrs: []string{"recv1"}, PerGen: 4}},
			},
		}},
		Peers:   map[string]string{"relay1": "127.0.0.1:7001", "recv1": "127.0.0.1:7002"},
		Daemons: map[string]string{"relay1": "127.0.0.1:8001", "recv1": "127.0.0.1:8002"},
		Admin:   map[string]string{"relay1": "127.0.0.1:9001", "recv1": "127.0.0.1:9002"},
	}
}

// startTestDaemon runs a real daemon behind a TCP control listener, the
// way cmd/ncd does, and returns its control address.
func startTestDaemon(t *testing.T, name string) (string, *controller.Daemon) {
	t.Helper()
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	d := controller.NewDaemon(n.Host(name), nil)
	t.Cleanup(func() { d.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_ = controller.ServeControlStream(c, d, nil)
			}()
		}
	}()
	return ln.Addr().String(), d
}

// adminTestServer serves a daemon's admin endpoint over httptest and
// returns its host:port.
func adminTestServer(t *testing.T, d *controller.Daemon) string {
	t.Helper()
	srv := httptest.NewServer(controller.NewAdminMux(controller.AdminConfig{
		Daemon:   d,
		Registry: d.VNF().Telemetry(),
		Node:     "relay1",
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// teeConn copies everything read from a control connection into log.
type teeConn struct {
	net.Conn
	log *bytes.Buffer
}

func (c teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log.Write(p[:n])
	return n, err
}

// TestStartAgainstLiveDaemon pins what `ncctl start` sends a live daemon for
// a one-session node: NC_SETTINGS carrying the peer bindings, one
// NC_FORWARD_TAB, NC_START — and that the daemon applies all three.
func TestStartAgainstLiveDaemon(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	d := controller.NewDaemon(n.Host("relay1"), nil)
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wire bytes.Buffer
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		served <- controller.ServeControlStream(teeConn{c, &wire}, d, nil)
	}()

	f := testDeploy()
	f.Daemons = map[string]string{"relay1": ln.Addr().String()}
	var out strings.Builder
	if err := start(f, &out); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	var got []controller.Signal
	for wire.Len() > 0 {
		m, err := controller.DecodeMessage(&wire)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.Signal)
		if wantPeers := len(got) == 1; wantPeers != reflect.DeepEqual(m.Peers, f.Peers) {
			t.Fatalf("message %d (%v) peers = %v", len(got), m.Signal, m.Peers)
		}
	}
	if want := []controller.Signal{controller.NCSettings, controller.NCForwardTab, controller.NCStart}; !slices.Equal(got, want) {
		t.Fatalf("start sent %v, want %v", got, want)
	}
	if d.VNF().Table().AppendNextHops(nil, 1, 0)[0] != "recv1" {
		t.Fatal("table not pushed")
	}
	if _, ok := d.VNF().SessionConfigFor(1); !ok {
		t.Fatal("session not configured")
	}
	if !strings.Contains(out.String(), "started relay1 (3 messages)") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestStopAgainstLiveDaemon(t *testing.T) {
	addr, d := startTestDaemon(t, "relay1")
	f := &controller.DeployFile{Daemons: map[string]string{"relay1": addr}}
	const tau = 2 * time.Second
	if err := stop(f, tau, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if d.Closed() {
		t.Fatal("daemon shut down before tau")
	}
	// Only NC_VNF_END arms the τ shutdown, so the daemon closing on its own
	// shows that was the signal applied.
	deadline := time.Now().Add(tau + 10*time.Second)
	for !d.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("daemon still open long after tau")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunArgsValidation(t *testing.T) {
	if err := run([]string{"start"}); err == nil {
		t.Fatal("missing -config accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	os.WriteFile(path, []byte(`{}`), 0o644)
	if err := run([]string{"-config", path}); err == nil {
		t.Fatal("missing command accepted")
	}
	if err := run([]string{"-config", path, "dance"}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run([]string{"-config", path + ".missing", "start"}); err == nil {
		t.Fatal("missing file accepted")
	}
	os.WriteFile(path, []byte(`{not json`), 0o644)
	if err := run([]string{"-config", path, "start"}); err == nil {
		t.Fatal("bad json accepted")
	}
	// The deploy file is validated before any command runs.
	os.WriteFile(path, []byte(`{"sessions":[{"id":1,"roles":{"n":"wizard"}}]}`), 0o644)
	if err := run([]string{"-config", path, "start"}); err == nil {
		t.Fatal("invalid role accepted")
	}
	// -nodes must name daemons from the file.
	os.WriteFile(path, []byte(`{"sessions":[],"daemons":{"a":"127.0.0.1:1"}}`), 0o644)
	if err := run([]string{"-config", path, "-nodes", "ghost", "drain"}); err == nil {
		t.Fatal("unknown -nodes entry accepted")
	}
}

func TestSelectNodes(t *testing.T) {
	f := testDeploy()
	all, err := selectNodes(f, "")
	if err != nil || len(all) != 2 || all[0] != "recv1" || all[1] != "relay1" {
		t.Fatalf("all nodes = %v, %v", all, err)
	}
	sub, err := selectNodes(f, " relay1 ")
	if err != nil || len(sub) != 1 || sub[0] != "relay1" {
		t.Fatalf("subset = %v, %v", sub, err)
	}
	if _, err := selectNodes(f, "relay1,ghost"); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := selectNodes(f, " , "); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// statsServer serves a registry snapshot the way ncd's admin endpoint does.
func statsServer(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		raw, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(raw)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestStatsFetchesSnapshots(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("dataplane_rx_packets", 1).Add(0, 42)
	addr := statsServer(t, reg)

	f := &controller.DeployFile{Admin: map[string]string{"relay1": addr}}
	var out strings.Builder
	if err := stats(f, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "relay1: ") {
		t.Fatalf("output missing node prefix: %q", got)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(strings.TrimPrefix(got, "relay1: ")), &snap); err != nil {
		t.Fatalf("output is not a JSON snapshot: %v\n%s", err, got)
	}
	if snap.Counters["dataplane_rx_packets"] != 42 {
		t.Fatalf("counter = %d, want 42", snap.Counters["dataplane_rx_packets"])
	}
}

func TestStatsReportsUnreachableNodes(t *testing.T) {
	reg := telemetry.NewRegistry()
	addr := statsServer(t, reg)

	// A port from a just-closed listener: connection refused, quickly.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	old := pushTimeout
	pushTimeout = 2 * time.Second
	defer func() { pushTimeout = old }()

	f := &controller.DeployFile{Admin: map[string]string{"up": addr, "down": deadAddr}}
	var out strings.Builder
	if err := stats(f, &out); err == nil {
		t.Fatal("unreachable node should surface an error")
	}
	got := out.String()
	if !strings.Contains(got, "down: unreachable") {
		t.Fatalf("missing unreachable report:\n%s", got)
	}
	if !strings.Contains(got, "up: {") {
		t.Fatalf("reachable node not reported:\n%s", got)
	}
}

func TestStatsRequiresAdminSection(t *testing.T) {
	if err := stats(&controller.DeployFile{}, &strings.Builder{}); err == nil {
		t.Fatal("config without admin section accepted")
	}
}

func TestDrainCommand(t *testing.T) {
	_, d := startTestDaemon(t, "relay1")
	addr := adminTestServer(t, d)
	f := testDeploy()
	f.Admin = map[string]string{"relay1": addr}

	var out strings.Builder
	if err := drain(f, []string{"relay1"}, 5*time.Second, &out); err != nil {
		t.Fatal(err)
	}
	if !d.Draining() {
		t.Fatal("daemon not draining after ncctl drain")
	}
	if !strings.Contains(out.String(), "draining relay1") {
		t.Fatalf("output: %q", out.String())
	}
	// Second drain surfaces the 409 as an error.
	if err := drain(f, []string{"relay1"}, 5*time.Second, &out); err == nil {
		t.Fatal("double drain did not error")
	}
	// A node missing its admin address errors too.
	if err := drain(f, []string{"recv1"}, 5*time.Second, &out); err == nil {
		t.Fatal("node without admin address accepted")
	}
}

func TestReloadCommand(t *testing.T) {
	_, d := startTestDaemon(t, "relay1")
	addr := adminTestServer(t, d)
	f := testDeploy()
	f.Admin = map[string]string{"relay1": addr}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := reload(f, raw, []string{"relay1"}, &out); err != nil {
		t.Fatal(err)
	}
	if d.DeployVersion() != 1 {
		t.Fatalf("deploy version = %d", d.DeployVersion())
	}
	if !strings.Contains(out.String(), `"sessionsAdded":1`) {
		t.Fatalf("output: %q", out.String())
	}
	// Stale replay surfaces the 409.
	if err := reload(f, raw, []string{"relay1"}, &out); err == nil {
		t.Fatal("stale reload did not error")
	}
}

func TestRollingRestartUnsupported(t *testing.T) {
	// The admin endpoint without a restart hook answers 501; the walker must
	// stop rather than silently skipping the node.
	_, d := startTestDaemon(t, "relay1")
	addr := adminTestServer(t, d)
	f := testDeploy()
	f.Admin = map[string]string{"relay1": addr}
	err := rollingRestart(f, []string{"relay1"}, time.Second, 2*time.Second, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "501") {
		t.Fatalf("rolling restart against hookless daemon: %v", err)
	}
	if d.Draining() {
		t.Fatal("501 restart left the daemon draining")
	}
}

// TestWaitHealthy drives the poller through the three phases a restart
// produces: unreachable, still-draining old process, healthy replacement.
func TestWaitHealthy(t *testing.T) {
	var phase int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		switch phase {
		case 0:
			phase++
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
		case 1:
			phase++
			_, _ = io.WriteString(w, `{"state":"draining","draining":true}`)
		default:
			_, _ = io.WriteString(w, `{"state":"running","draining":false}`)
		}
	}))
	defer srv.Close()
	client := &http.Client{Timeout: time.Second}
	addr := strings.TrimPrefix(srv.URL, "http://")
	if err := waitHealthy(client, addr, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// An endpoint that never turns healthy times out with the last error.
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, `{"state":"quiesced","draining":true}`)
	}))
	defer stuck.Close()
	err := waitHealthy(client, strings.TrimPrefix(stuck.URL, "http://"), time.Now().Add(200*time.Millisecond))
	if err == nil {
		t.Fatal("stuck drain reported healthy")
	}
}

func TestExampleConfigParses(t *testing.T) {
	raw, err := os.ReadFile("deploy.example.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := controller.ParseDeployFile(raw)
	if err != nil {
		t.Fatalf("example config invalid: %v", err)
	}
	if len(f.Sessions) != 1 || len(f.Daemons) != 3 || len(f.Peers) != 3 || len(f.Admin) != 3 {
		t.Fatalf("example config unexpected shape: %+v", f)
	}
}
