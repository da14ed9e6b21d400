package controller

import (
	"bytes"
	"encoding/json"
	"maps"
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
// every node either names: a daemon cold-started from A and then reloaded
// to B holds exactly the sessions and forwarding table of a daemon
// cold-started from B, and reloading B once more changes nothing.
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
			hv, cv := hot.VNF(), cold.VNF()
			if !slices.Equal(hv.SessionIDs(), cv.SessionIDs()) {
				t.Fatalf("node %q: sessions after reload %v, cold start %v", n, hv.SessionIDs(), cv.SessionIDs())
			}
			for _, id := range hv.SessionIDs() {
				h, _ := hv.SessionConfigFor(id)
				c, _ := cv.SessionConfigFor(id)
				if h != c {
					t.Fatalf("node %q session %d: config after reload %+v, cold start %+v", n, id, h, c)
				}
			}
			ht, ct := hv.Table().Snapshot(), cv.Table().Snapshot()
			if !maps.EqualFunc(ht, ct, equalHopGroups) {
				t.Fatalf("node %q: table after reload %v, cold start %v", n, ht, ct)
			}
			sum, err := hot.Reload(b, n)
			if err != nil || sum.changes() != 0 {
				t.Fatalf("node %q: second reload of B = %+v, %v; want no change", n, sum, err)
			}
			hot.Close()
			cold.Close()
		}
	})
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

// coldStarted builds a daemon and applies a file's cold start for node.
func coldStarted(t *testing.T, f *DeployFile, node string) *Daemon {
	t.Helper()
	d := NewDaemon(newRecordConn(node), simclock.NewVirtual(epoch))
	msgs, err := f.ColdStart(node)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := d.Apply(m); err != nil {
			t.Fatalf("cold start of %q: %v", node, err)
		}
	}
	return d
}
