package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ncfn/internal/controller"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/gf"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
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
		Peers: map[string]string{"relay1": "127.0.0.1:7001", "recv1": "127.0.0.1:7002"},
		Admin: map[string]string{"relay1": "127.0.0.1:9001", "recv1": "127.0.0.1:9002"},
	}
}

// testDaemon is a blank in-process daemon behind its admin endpoint, the
// way cmd/ncd serves one.
type testDaemon struct {
	*controller.Daemon
	addr  string           // admin host:port
	peers *emunet.Registry // where /reload registers peer bindings
	net   *emunet.Network  // the daemon's data plane
}

// startTestDaemon serves a blank daemon named name over httptest.
func startTestDaemon(t *testing.T, name string) testDaemon {
	t.Helper()
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	d := controller.NewDaemon(n.Host(name), nil)
	t.Cleanup(func() { d.Close() })
	peers := emunet.NewRegistry()
	srv := httptest.NewServer(controller.NewAdminMux(controller.AdminConfig{
		Daemon:   d,
		Registry: d.VNF().Telemetry(),
		Node:     name,
		Peers:    peers,
	}))
	t.Cleanup(srv.Close)
	return testDaemon{Daemon: d, addr: strings.TrimPrefix(srv.URL, "http://"), peers: peers, net: n}
}

// client is the admin client the tests drive ncctl's commands with.
var client = controller.AdminClient{Timeout: 5 * time.Second}

// TestStartAgainstLiveDaemon runs `ncctl start` on a one-session file
// against a blank daemon: it must end up started, holding exactly the
// session config, table and peer bindings the file describes.
func TestStartAgainstLiveDaemon(t *testing.T) {
	d := startTestDaemon(t, "relay1")
	f := testDeploy()
	f.Admin = map[string]string{"relay1": d.addr}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := start(client, f, raw, f.Nodes(), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `configured relay1: {"version":1,"sessionsAdded":1,"sessionsUpdated":0,"sessionsRemoved":0,"tableEntriesChanged":1}`) {
		t.Fatalf("output: %q", out.String())
	}

	vnf := d.VNF()
	want := dataplane.SessionConfig{
		ID: 1, Params: rlnc.Params{GenerationBlocks: 4, BlockSize: 64, Field: gf.GF256}, Role: dataplane.RoleRecoder,
		Redundancy: 1, InPerGen: 4,
	}
	if ids := vnf.SessionIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("sessions = %v", ids)
	}
	if got, ok := vnf.SessionConfigFor(1); !ok || got != want {
		t.Fatalf("session config = %+v, want %+v", got, want)
	}
	wantTable := map[ncproto.SessionID][]dataplane.HopGroup{1: {{Addrs: []string{"recv1"}, PerGen: 4}}}
	if got := vnf.Table().Snapshot(); !reflect.DeepEqual(got, wantTable) {
		t.Fatalf("table = %v, want %v", got, wantTable)
	}
	for name, addr := range f.Peers {
		if got, ok := d.peers.Lookup(name); !ok || got.String() != addr {
			t.Fatalf("peer %s = %v, want %s", name, got, addr)
		}
	}
	// Started: the VNF reads what arrives at its socket.
	if err := d.net.Host("src").Send("relay1", []byte("not a coded packet")); err != nil {
		t.Fatal(err)
	}
	rx := vnf.Telemetry().Counter(dataplane.MetricRxPackets, 1)
	deadline := time.Now().Add(5 * time.Second)
	for rx.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never started: nothing read from its socket")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStopAgainstLiveDaemon(t *testing.T) {
	d := startTestDaemon(t, "relay1")
	f := &controller.DeployFile{Admin: map[string]string{"relay1": d.addr}}
	const tau = 2 * time.Second
	if err := stop(client, f, f.Nodes(), tau, &strings.Builder{}); err != nil {
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
	// -nodes must name nodes with an admin address.
	os.WriteFile(path, []byte(`{"sessions":[],"admin":{"a":"127.0.0.1:1"}}`), 0o644)
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
	if err := stats(client, f, f.Nodes(), &out); err != nil {
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

	f := &controller.DeployFile{Admin: map[string]string{"up": addr, "down": deadAddr}}
	var out strings.Builder
	if err := stats(controller.AdminClient{Timeout: 2 * time.Second}, f, f.Nodes(), &out); err == nil {
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
	path := filepath.Join(t.TempDir(), "cfg.json")
	os.WriteFile(path, []byte(`{"sessions":[]}`), 0o644)
	if err := run([]string{"-config", path, "stats"}); err == nil || !strings.Contains(err.Error(), `"admin"`) {
		t.Fatalf("config without admin section: %v", err)
	}
}

func TestDrainCommand(t *testing.T) {
	d := startTestDaemon(t, "relay1")
	f := testDeploy()
	f.Admin = map[string]string{"relay1": d.addr}

	var out strings.Builder
	if err := drain(client, f, []string{"relay1"}, 5*time.Second, &out); err != nil {
		t.Fatal(err)
	}
	if !d.Draining() {
		t.Fatal("daemon not draining after ncctl drain")
	}
	if !strings.Contains(out.String(), "draining relay1") {
		t.Fatalf("output: %q", out.String())
	}
	// Second drain surfaces the 409 as an error.
	if err := drain(client, f, []string{"relay1"}, 5*time.Second, &out); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("double drain: %v", err)
	}
	// A node missing its admin address errors too.
	if _, err := selectNodes(f, "recv1"); err == nil {
		t.Fatal("node without admin address accepted")
	}
}

func TestReloadCommand(t *testing.T) {
	d := startTestDaemon(t, "relay1")
	f := testDeploy()
	f.Admin = map[string]string{"relay1": d.addr}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := start(client, f, raw, []string{"relay1"}, &out); err != nil {
		t.Fatal(err)
	}
	if d.DeployVersion() != 1 {
		t.Fatalf("deploy version = %d", d.DeployVersion())
	}
	if !strings.Contains(out.String(), `"sessionsAdded":1`) {
		t.Fatalf("output: %q", out.String())
	}
	// Stale replay surfaces the 409.
	if err := start(client, f, raw, []string{"relay1"}, &out); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("stale reload: %v", err)
	}
}

func TestRollingRestartUnsupported(t *testing.T) {
	// The admin endpoint without a restart hook answers 501; the walker must
	// stop rather than silently skipping the node.
	d := startTestDaemon(t, "relay1")
	f := testDeploy()
	f.Admin = map[string]string{"relay1": d.addr}
	err := rollingRestart(client, f, nil, []string{"relay1"}, time.Second, 2*time.Second, &strings.Builder{})
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
	c := controller.AdminClient{Timeout: time.Second}
	addr := strings.TrimPrefix(srv.URL, "http://")
	if err := c.WaitHealthy(addr, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// An endpoint that never turns healthy times out with the last error.
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, `{"state":"quiesced","draining":true}`)
	}))
	defer stuck.Close()
	err := c.WaitHealthy(strings.TrimPrefix(stuck.URL, "http://"), time.Now().Add(200*time.Millisecond))
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
	if len(f.Sessions) != 1 || len(f.Peers) != 3 || len(f.Admin) != 3 || f.Daemons != nil {
		t.Fatalf("example config unexpected shape: %+v", f)
	}
}
