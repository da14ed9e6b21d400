package controller

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/gf"
	"ncfn/internal/ncproto"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
)

// adminServer builds a daemon plus its admin endpoint over httptest.
func adminServer(t *testing.T, mutate func(*AdminConfig)) (*Daemon, *httptest.Server) {
	t.Helper()
	d, _, _ := testDaemon(t)
	cfg := AdminConfig{
		Daemon:   d,
		Registry: d.VNF().Telemetry(),
		Node:     "node",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := httptest.NewServer(NewAdminMux(cfg))
	t.Cleanup(srv.Close)
	return d, srv
}

// do issues one admin request and decodes the response body.
func do(t *testing.T, method, url string, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

func TestAdminStats(t *testing.T) {
	_, srv := adminServer(t, nil)
	code, body := do(t, http.MethodGet, srv.URL+"/stats", "")
	if code != http.StatusOK {
		t.Fatalf("GET /stats = %d: %s", code, body)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("stats not a snapshot: %v", err)
	}
	if _, ok := snap.Gauges["dataplane_drain_state"]; !ok {
		t.Fatalf("drain gauge missing from stats: %v", snap.Gauges)
	}
}

// TestAdminStatsSessions pins the operator's answer to "why is this relay
// holding that many generations": /stats carries each session's live set and
// the retirement watermark it has learned, beside a snapshot that older
// readers still parse.
func TestAdminStatsSessions(t *testing.T) {
	d, srv := adminServer(t, nil)
	cfg := dataplane.SessionConfig{ID: 7, Params: smallParams(), Role: dataplane.RoleRecoder}
	mustApply(t, d, &Message{Signal: NCSettings, Settings: &cfg})
	for _, p := range [][2]ncproto.GenerationID{{3, 0}, {4, 0}, {9, 4}} { // generation, stamped watermark
		d.VNF().InjectPacket((&ncproto.Packet{
			Flags: ncproto.DoneFlags(p[0], p[1]), Session: 7, Generation: p[0],
			Coeffs: []byte{1, 0, 0, 0}, Payload: make([]byte, cfg.Params.BlockSize),
		}).Encode(nil))
	}
	_, body := do(t, http.MethodGet, srv.URL+"/stats", "")
	var doc struct {
		telemetry.Snapshot
		GFKernel string `json:"gfKernel"`
		Sessions map[string]struct {
			Role              string `json:"role"`
			GenerationsActive int    `json:"generationsActive"`
			DoneBelow         uint32 `json:"doneBelow"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("stats: %v\n%s", err, body)
	}
	if got := doc.Sessions["7"]; got.Role != "recoder" || got.DoneBelow != 4 || got.GenerationsActive != 2 {
		t.Fatalf("session 7 = %+v, want a recoder with watermark 4 holding generations 4 and 9", got)
	}
	if doc.GFKernel != gf.KernelName() {
		t.Fatalf("/stats names the GF kernel %q, the process runs %q", doc.GFKernel, gf.KernelName())
	}
	if doc.Counters[dataplane.MetricRxPackets] != 3 {
		t.Fatalf("snapshot half of /stats lost its counters: %v", doc.Counters)
	}
}

func TestAdminDrainEndpoint(t *testing.T) {
	d, srv := adminServer(t, nil)
	mustApply(t, d, &Message{Signal: NCStart})

	code, body := do(t, http.MethodGet, srv.URL+"/drain", "")
	if code != http.StatusOK || !strings.Contains(body, `"state":"running"`) {
		t.Fatalf("GET /drain = %d: %s", code, body)
	}

	// Error paths around the one valid POST: bad deadline and bad method
	// first (they must not start a drain), the conflict after.
	if code, body := do(t, http.MethodPost, srv.URL+"/drain?deadline=soon", ""); code != http.StatusBadRequest {
		t.Fatalf("bad deadline = %d: %s", code, body)
	}
	if code, body := do(t, http.MethodDelete, srv.URL+"/drain", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /drain = %d: %s", code, body)
	}
	if d.Draining() {
		t.Fatal("rejected requests started a drain")
	}

	code, body = do(t, http.MethodPost, srv.URL+"/drain?deadline=5s", "")
	if code != http.StatusOK || !strings.Contains(body, `"draining":true`) {
		t.Fatalf("POST /drain = %d: %s", code, body)
	}
	// Double drain: 409 whether the first drain is still waiting or already
	// closed the daemon (an idle VNF quiesces within a poll interval).
	if code, body := do(t, http.MethodPost, srv.URL+"/drain", ""); code != http.StatusConflict {
		t.Fatalf("double drain = %d: %s", code, body)
	}
}

func TestAdminReloadEndpoint(t *testing.T) {
	reg := emunet.NewRegistry()
	d, srv := adminServer(t, func(cfg *AdminConfig) { cfg.Peers = reg })
	applyDeploy(t, d, deployV1(), "node")

	cases := []struct {
		name string
		body string
		want int
	}{
		{"wrong method", "", http.StatusMethodNotAllowed},
		{"malformed json", `{`, http.StatusBadRequest},
		{"bad deploy diff", `{"sessions":[{"id":7,"roles":{"node":"oracle"}}]}`, http.StatusBadRequest},
		{"bad peer address", `{"version":2,"peers":{"p":"not-an-address"},"sessions":[]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			method := http.MethodPost
			if tc.name == "wrong method" {
				method = http.MethodGet
			}
			code, body := do(t, method, srv.URL+"/reload", tc.body)
			if code != tc.want {
				t.Fatalf("%s = %d: %s", tc.name, code, body)
			}
		})
	}
	if d.DeployVersion() != 0 {
		t.Fatalf("rejected reloads claimed a version: %d", d.DeployVersion())
	}

	// A valid versioned reload applies and reports its diff.
	raw, err := json.Marshal(deployV2())
	if err != nil {
		t.Fatal(err)
	}
	code, body := do(t, http.MethodPost, srv.URL+"/reload", string(raw))
	if code != http.StatusOK {
		t.Fatalf("POST /reload = %d: %s", code, body)
	}
	var sum ReloadSummary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Version != 2 || sum.SessionsAdded != 1 || sum.SessionsRemoved != 1 {
		t.Fatalf("summary = %+v", sum)
	}

	// Replaying the same version is a conflict, not a bad request.
	if code, body := do(t, http.MethodPost, srv.URL+"/reload", string(raw)); code != http.StatusConflict {
		t.Fatalf("stale reload = %d: %s", code, body)
	}

	// Reload-while-draining is a conflict too.
	markDraining(d)
	next := deployV2()
	next.Version = 3
	raw, err = json.Marshal(next)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := do(t, http.MethodPost, srv.URL+"/reload", string(raw)); code != http.StatusConflict {
		t.Fatalf("reload while draining = %d: %s", code, body)
	}
}

func TestAdminReloadRegistersPeers(t *testing.T) {
	reg := emunet.NewRegistry()
	_, srv := adminServer(t, func(cfg *AdminConfig) { cfg.Peers = reg })
	body := `{"version":1,"peers":{"sink":"127.0.0.1:9001"},"sessions":[]}`
	if code, out := do(t, http.MethodPost, srv.URL+"/reload", body); code != http.StatusOK {
		t.Fatalf("POST /reload = %d: %s", code, out)
	}
	if _, ok := reg.Lookup("sink"); !ok {
		t.Fatal("reload did not register the peer binding")
	}
}

func TestAdminRestartEndpoint(t *testing.T) {
	// Without a restart hook the endpoint is explicitly unsupported.
	_, plain := adminServer(t, nil)
	if code, body := do(t, http.MethodPost, plain.URL+"/restart", ""); code != http.StatusNotImplemented {
		t.Fatalf("restart without hook = %d: %s", code, body)
	}

	restarted := make(chan struct{})
	d, srv := adminServer(t, func(cfg *AdminConfig) {
		cfg.Restart = func() { close(restarted) }
	})
	mustApply(t, d, &Message{Signal: NCStart})
	if code, body := do(t, http.MethodGet, srv.URL+"/restart", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /restart = %d: %s", code, body)
	}
	if code, body := do(t, http.MethodPost, srv.URL+"/restart?deadline=nope", ""); code != http.StatusBadRequest {
		t.Fatalf("bad restart deadline = %d: %s", code, body)
	}
	code, body := do(t, http.MethodPost, srv.URL+"/restart?deadline=5s", "")
	if code != http.StatusOK || !strings.Contains(body, `"draining":true`) {
		t.Fatalf("POST /restart = %d: %s", code, body)
	}
	select {
	case <-restarted:
	case <-time.After(5 * time.Second):
		t.Fatal("restart hook never ran")
	}
	if !d.Closed() {
		t.Fatal("restart hook ran on an open daemon")
	}
	// A second restart on the now-closed daemon conflicts.
	if code, body := do(t, http.MethodPost, srv.URL+"/restart", ""); code != http.StatusConflict {
		t.Fatalf("restart after close = %d: %s", code, body)
	}
}

// TestAdminRestartAnswersBeforeHook pins that /restart's whole answer is on
// the wire before the restart hook runs. The hook here force-closes every
// client connection, as an exec handoff does, and the caller must still read
// a complete 200 body; -count=200 shakes the race out if it comes back.
func TestAdminRestartAnswersBeforeHook(t *testing.T) {
	d, _, _ := testDaemon(t)
	mustApply(t, d, &Message{Signal: NCStart})
	hooked := make(chan struct{})
	srv := httptest.NewUnstartedServer(nil)
	srv.Config.Handler = NewAdminMux(AdminConfig{
		Daemon:   d,
		Registry: d.VNF().Telemetry(),
		Restart:  func() { srv.CloseClientConnections(); close(hooked) },
	})
	srv.Start()
	defer srv.Close()
	code, body := do(t, http.MethodPost, srv.URL+"/restart?deadline=5s", "")
	var st drainStatus
	if err := json.Unmarshal([]byte(body), &st); code != http.StatusOK || err != nil || !st.Draining {
		t.Fatalf("POST /restart = %d: %q (%v)", code, body, err)
	}
	select {
	case <-hooked:
	case <-time.After(5 * time.Second):
		t.Fatal("restart hook never ran")
	}
}

// TestAdminReloadStartsBlankDaemon drives a blank daemon through the one path a
// deploy file takes into it: POST /reload registers the peer bindings,
// applies the settings and the forwarding table, and starts the VNF; POST
// /stop then applies NC_VNF_END.
func TestAdminReloadStartsBlankDaemon(t *testing.T) {
	reg := emunet.NewRegistry()
	d, srv := adminServer(t, func(cfg *AdminConfig) { cfg.Peers = reg })
	clk := d.clock.(*simclock.Virtual)
	f := DeployFile{
		Sessions: []DeploySession{{
			ID: 5, Blocks: 4, BlockSize: 64,
			Roles:  map[string]string{"node": "recoder"},
			Tables: map[string][]DeployHopGroup{"node": {{Addrs: []string{"next-hop"}}}},
		}},
		Peers: map[string]string{"next-hop": "127.0.0.1:9999"},
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := do(t, http.MethodPost, srv.URL+"/reload", string(raw)); code != http.StatusOK {
		t.Fatalf("POST /reload = %d: %s", code, body)
	}
	if _, ok := reg.Lookup("next-hop"); !ok {
		t.Fatal("peer binding not registered")
	}
	if _, ok := d.VNF().SessionConfigFor(5); !ok {
		t.Fatal("session not configured")
	}
	if hops := d.VNF().Table().AppendNextHops(nil, 5, 0); len(hops) != 1 || hops[0] != "next-hop" {
		t.Fatalf("table = %v", hops)
	}
	if !started(d) || applied(d) != 3 {
		t.Fatalf("started %v after %d applied messages, want NC_SETTINGS, NC_FORWARD_TAB, NC_START", started(d), applied(d))
	}

	if code, body := do(t, http.MethodPost, srv.URL+"/stop?tau=1s", ""); code != http.StatusOK {
		t.Fatalf("POST /stop = %d: %s", code, body)
	}
	waitArmed(t, clk)
	clk.Advance(time.Second)
	waitClosed(t, d)
}

// TestAdminStopEndpoint pins /stop's answers and τ: the daemon closes once
// τ passes, unless a reload that gives the node a role comes first.
func TestAdminStopEndpoint(t *testing.T) {
	d, srv := adminServer(t, nil)
	clk := d.clock.(*simclock.Virtual)
	for _, tc := range []struct {
		method, query string
		want          int
	}{
		{http.MethodGet, "?tau=1s", http.StatusMethodNotAllowed},
		{http.MethodPost, "", http.StatusBadRequest},
		{http.MethodPost, "?tau=soon", http.StatusBadRequest},
		{http.MethodPost, "?tau=-1s", http.StatusBadRequest},
	} {
		if code, body := do(t, tc.method, srv.URL+"/stop"+tc.query, ""); code != tc.want {
			t.Fatalf("%s /stop%s = %d: %s", tc.method, tc.query, code, body)
		}
	}

	// A reload that gives the node a role within τ cancels the shutdown.
	applyDeploy(t, d, deployV1(), "node")
	if code, body := do(t, http.MethodPost, srv.URL+"/stop?tau=1m", ""); code != http.StatusOK {
		t.Fatalf("POST /stop = %d: %s", code, body)
	}
	waitArmed(t, clk)
	if _, err := d.Reload(deployV2(), "node"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if d.Closed() {
		t.Fatal("reload within τ did not cancel the shutdown")
	}

	if code, body := do(t, http.MethodPost, srv.URL+"/stop?tau=1m", ""); code != http.StatusOK {
		t.Fatalf("POST /stop = %d: %s", code, body)
	}
	waitArmed(t, clk)
	clk.Advance(time.Minute)
	waitClosed(t, d)
	if code, body := do(t, http.MethodPost, srv.URL+"/stop?tau=1m", ""); code != http.StatusConflict {
		t.Fatalf("stop of a closed daemon = %d: %s", code, body)
	}
}

// waitArmed waits for /stop's τ timer on the daemon's virtual clock: the
// handler answers first and arms the timer after.
func waitArmed(t *testing.T, clk *simclock.Virtual) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("τ timer never armed")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitClosed waits for a daemon's τ shutdown, which fires on the timer's
// own goroutine.
func waitClosed(t *testing.T, d *Daemon) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !d.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("daemon still open after τ")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdminClientTimesOutOnWedgedDaemon pins that a daemon which accepts a
// request and never answers costs the client one timeout, not forever.
func TestAdminClientTimesOutOnWedgedDaemon(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer srv.Close()
	defer close(release)
	c := AdminClient{Timeout: 50 * time.Millisecond}
	start := time.Now()
	if _, err := c.Post(strings.TrimPrefix(srv.URL, "http://"), "/reload", []byte("{}")); err == nil {
		t.Fatal("request to a wedged daemon succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("request took %v, the timeout did not bound it", elapsed)
	}
}
