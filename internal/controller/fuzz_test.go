package controller

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"ncfn/internal/simclock"
)

// FuzzParseDeployFile hardens the deploy-file parser — the one document the
// planner emits, ncctl reads, and ncd's /reload accepts. ParseDeployFile
// must never panic; for every file it accepts, the differ and NodeTable
// must not fail or panic for any node the file names; and re-encoding an
// accepted file must give back an equal one. Equality is of the encoded
// form: JSON cannot tell an empty optional map from an absent one.
func FuzzParseDeployFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		df, err := ParseDeployFile(raw)
		if err != nil {
			return
		}
		for _, n := range fileNodes(df) {
			if _, _, err := df.diff(n, nil, nil); err != nil {
				t.Fatalf("diff(%q) of a validated file: %v", n, err)
			}
			df.NodeTable(n)
		}
		enc, err := json.Marshal(df)
		if err != nil {
			t.Fatalf("marshal of a parsed file: %v", err)
		}
		back, err := ParseDeployFile(enc)
		if err != nil {
			t.Fatalf("re-parse of a marshalled file: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the file:\n%s\n%s", enc, again)
		}
	})
}

// FuzzReloadDiffer checks the differ over two accepted files A and B, for
// every node either names: a daemon cold-started from A (a Reload of A on a
// blank daemon) and then reloaded to B holds exactly the sessions and
// forwarding table of a blank daemon reloaded with B, and reloading B once
// more changes nothing.
func FuzzReloadDiffer(f *testing.F) {
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a, errA := ParseDeployFile(rawA)
		b, errB := ParseDeployFile(rawB)
		if errA != nil || errB != nil {
			return
		}
		// Version monotonicity is Reload's gate, not the differ's.
		a.Version, b.Version = 0, 0
		nodes := fileNodes(a)
		for _, n := range fileNodes(b) {
			if !slices.Contains(nodes, n) {
				nodes = append(nodes, n)
			}
		}
		for _, n := range nodes[:min(len(nodes), 8)] {
			hot := coldStarted(t, a, n)
			if _, err := hot.Reload(b, n); err != nil {
				t.Fatalf("node %q: reload A→B: %v", n, err)
			}
			cold := coldStarted(t, b, n)
			requireSameState(t, n, hot, cold)
			sum, err := hot.Reload(b, n)
			if err != nil || sum.changes() != 0 {
				t.Fatalf("node %q: second reload of B = %+v, %v; want no change", n, sum, err)
			}
			hot.Close()
			cold.Close()
		}
	})
}

// FuzzAdminReload sends arbitrary bodies to POST /reload on one live
// daemon — the only way a deploy file enters ncd — through the admin mux
// itself. The endpoint must never panic and must answer 200, 400 or 409;
// after a 200 the daemon holds exactly the sessions and forwarding table of
// a blank daemon reloaded with the same file, whatever earlier inputs left
// behind. Its seeds are FuzzParseDeployFile's, whose files all give node T
// a role. Peer bindings are not registered (nil registry): resolving a
// fuzzed host name would go to the network.
func FuzzAdminReload(f *testing.F) {
	const node = "T"
	d := NewDaemon(newRecordConn(node), simclock.NewVirtual(epoch))
	f.Cleanup(func() { d.Close() })
	mux := NewAdminMux(AdminConfig{Daemon: d, Registry: d.VNF().Telemetry(), Node: node})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusConflict:
			return
		default:
			t.Fatalf("POST /reload = %d: %s", rec.Code, rec.Body)
		}
		file, err := ParseDeployFile(body)
		if err != nil {
			t.Fatalf("200 for a file that does not parse: %v", err)
		}
		blank := coldStarted(t, file, node)
		defer blank.Close()
		requireSameState(t, node, d, blank)
	})
}

// requireSameState fails unless two daemons hold the same sessions, with
// the same configs, and the same forwarding table.
func requireSameState(t *testing.T, node string, got, want *Daemon) {
	t.Helper()
	gv, wv := got.VNF(), want.VNF()
	if !slices.Equal(gv.SessionIDs(), wv.SessionIDs()) {
		t.Fatalf("node %q: sessions %v, want %v", node, gv.SessionIDs(), wv.SessionIDs())
	}
	for _, id := range gv.SessionIDs() {
		g, _ := gv.SessionConfigFor(id)
		w, _ := wv.SessionConfigFor(id)
		if g != w {
			t.Fatalf("node %q session %d: config %+v, want %+v", node, id, g, w)
		}
	}
	if gt, wt := gv.Table().Snapshot(), wv.Table().Snapshot(); !maps.EqualFunc(gt, wt, equalHopGroups) {
		t.Fatalf("node %q: table %v, want %v", node, gt, wt)
	}
}

// fileNodes lists, sorted, every node a file gives a role or a table entry.
func fileNodes(f *DeployFile) []string {
	nodes := make(map[string]bool)
	for _, s := range f.Sessions {
		for n := range s.Roles {
			nodes[n] = true
		}
		for n := range s.Tables {
			nodes[n] = true
		}
	}
	out := make([]string, 0, len(nodes))
	for n := range nodes {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// coldStarted builds a blank daemon and reloads the file into it as node.
func coldStarted(t *testing.T, f *DeployFile, node string) *Daemon {
	t.Helper()
	d := NewDaemon(newRecordConn(node), simclock.NewVirtual(epoch))
	if _, err := d.Reload(f, node); err != nil {
		t.Fatalf("cold start of %q: %v", node, err)
	}
	return d
}
