package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ncfn/internal/controller"
	"ncfn/internal/dataplane"
	"ncfn/internal/telemetry"
)

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing -name accepted")
	}
	if err := run([]string{"-name", "x", "-data", "999.999.999.999:0"}); err == nil {
		t.Fatal("bad data address accepted")
	}
	if err := run([]string{"-name", "x", "-admin", "not-an-address"}); err == nil {
		t.Fatal("bad admin address accepted")
	}
}

// startNcd runs a full ncd (UDP data socket + admin endpoint) in-process
// and returns its admin address, read from the readyfile, and the channel
// run's result arrives on.
func startNcd(t *testing.T, name string, extra ...string) (string, chan error) {
	t.Helper()
	ready := filepath.Join(t.TempDir(), name+".ready")
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-name", name, "-data", "127.0.0.1:0", "-readyfile", ready}, extra...))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw, err := os.ReadFile(ready)
		if err == nil {
			var info readyInfo
			if err := json.Unmarshal(raw, &info); err != nil {
				t.Fatal(err)
			}
			return info.Admin, done
		}
		select {
		case err := <-done:
			t.Fatalf("ncd %s exited before it was ready: %v", name, err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("ncd %s never wrote its readyfile", name)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitExit waits for run to return, cleanly.
func waitExit(t *testing.T, done chan error, why string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("ncd did not exit after %s", why)
	}
}

// oneSession is a deploy file giving node a forwarder role in session 1.
func oneSession(t *testing.T, node string) []byte {
	t.Helper()
	raw, err := json.Marshal(controller.DeployFile{
		Sessions: []controller.DeploySession{{
			ID: 1, Blocks: 4, BlockSize: 64, Roles: map[string]string{node: "forwarder"},
		}},
		Peers: map[string]string{"peer1": "127.0.0.1:19999"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

var admin = controller.AdminClient{Timeout: 5 * time.Second}

// TestDaemonLifecycleOverTCP boots a full ncd in-process, configures it
// through POST /reload on its admin endpoint, shuts it down with POST
// /stop, and waits for the process loop to exit.
func TestDaemonLifecycleOverTCP(t *testing.T) {
	addr, done := startNcd(t, "testnode")
	if _, err := admin.Post(addr, "/reload", oneSession(t, "testnode")); err != nil {
		t.Fatal(err)
	}
	// Shut down with a tiny τ; run() must return once the watcher notices
	// the closed daemon and closes the admin listener.
	if _, err := admin.Post(addr, "/stop?tau=10ms", nil); err != nil {
		t.Fatal(err)
	}
	waitExit(t, done, "/stop")
}

// TestSigtermDrains boots an ncd in-process, configures a session, and
// sends the test process SIGTERM: the daemon must drain (refusing new
// sessions via its own signal handler, not dying on the default handler)
// and run() must return cleanly once the drain quiesces.
func TestSigtermDrains(t *testing.T) {
	addr, done := startNcd(t, "sigterm-node", "-drain-deadline", "5s")
	if _, err := admin.Post(addr, "/reload", oneSession(t, "sigterm-node")); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, done, "SIGTERM drain")
}

// TestAdminEndpoint exercises the admin mux directly: /stats must return
// the registry's JSON snapshot, /debug/vars the expvar dump, and
// /debug/pprof/ the profile index. (The lifecycle routes are covered by the
// controller package's admin tests.)
func TestAdminEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(dataplane.MetricRxPackets, 1).Add(0, 7)
	reg.Histogram(dataplane.MetricDecodeLatencyNs).Observe(1000)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go controller.ServeAdmin(ln, controller.AdminConfig{Registry: reg})
	base := "http://" + ln.Addr().String()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	var snap telemetry.Snapshot
	if err := json.Unmarshal(get("/stats"), &snap); err != nil {
		t.Fatalf("/stats is not a snapshot: %v", err)
	}
	if snap.Counters[dataplane.MetricRxPackets] != 7 {
		t.Fatalf("rx counter = %d, want 7", snap.Counters[dataplane.MetricRxPackets])
	}
	if snap.Histograms[dataplane.MetricDecodeLatencyNs].Count != 1 {
		t.Fatal("decode histogram missing from snapshot")
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing memstats")
	}

	if !strings.Contains(string(get("/debug/pprof/")), "goroutine") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}
}

// TestTwoDaemonsEndToEnd runs two ncds in-process, configures both the way
// ncctl does — POST /reload with a deploy file naming them — and stops
// both with a τ of 1 ms: each process loop must exit.
func TestTwoDaemonsEndToEnd(t *testing.T) {
	addrA, doneA := startNcd(t, "relayA")
	addrB, doneB := startNcd(t, "relayB")
	raw, err := json.Marshal(controller.DeployFile{
		Sessions: []controller.DeploySession{{
			ID: 1, Blocks: 4, BlockSize: 64,
			Roles:  map[string]string{"relayA": "forwarder", "relayB": "forwarder"},
			Tables: map[string][]controller.DeployHopGroup{"relayA": {{Addrs: []string{"relayB"}}}},
		}},
		Peers: map[string]string{"relayA": "127.0.0.1:19998", "relayB": "127.0.0.1:19999"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{addrA, addrB} {
		if _, err := admin.Post(addr, "/reload", raw); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []struct {
		addr string
		done chan error
	}{{addrA, doneA}, {addrB, doneB}} {
		if _, err := admin.Post(n.addr, "/stop?tau=1ms", nil); err != nil {
			t.Fatal(err)
		}
		waitExit(t, n.done, "/stop")
	}
}
