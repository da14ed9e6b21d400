package dataplane

import (
	"path/filepath"
	"testing"

	"ncfn/internal/ncproto"
)

func TestHopGroupPickSingle(t *testing.T) {
	h := HopGroup{Addrs: []string{"only"}}
	if h.Pick(1, 2) != "only" {
		t.Fatal("single-addr pick wrong")
	}
}

func TestHopGroupPickEmpty(t *testing.T) {
	if (HopGroup{}).Pick(1, 2) != "" {
		t.Fatal("empty group should pick nothing")
	}
}

func TestHopGroupPickConsistentPerGeneration(t *testing.T) {
	h := HopGroup{Addrs: []string{"a", "b", "c"}}
	for g := 0; g < 100; g++ {
		first := h.Pick(7, ncproto.GenerationID(g))
		for i := 0; i < 5; i++ {
			if h.Pick(7, ncproto.GenerationID(g)) != first {
				t.Fatal("Pick not deterministic for same (session, generation)")
			}
		}
	}
}

func TestHopGroupPickSpreads(t *testing.T) {
	h := HopGroup{Addrs: []string{"a", "b", "c"}}
	seen := map[string]int{}
	for g := 0; g < 300; g++ {
		seen[h.Pick(3, ncproto.GenerationID(g))]++
	}
	for _, addr := range h.Addrs {
		if seen[addr] < 50 {
			t.Fatalf("instance %s underused: %v", addr, seen)
		}
	}
}

func TestHopGroupQuota(t *testing.T) {
	if (HopGroup{PerGen: 3}).quota(6) != 3 {
		t.Fatal("explicit quota ignored")
	}
	if (HopGroup{}).quota(6) != 6 {
		t.Fatal("default quota wrong")
	}
}

func TestForwardingTableSetGet(t *testing.T) {
	ft := NewForwardingTable()
	ft.Set(1, []HopGroup{{Addrs: []string{"x"}}, {Addrs: []string{"y", "z"}}})
	hops := ft.AppendNextHops(nil, 1, 5)
	if len(hops) != 2 || hops[0] != "x" {
		t.Fatalf("NextHops = %v", hops)
	}
	if ft.Len() != 1 {
		t.Fatal("Len wrong")
	}
	if got := ft.Snapshot(); len(got) != 1 || got[1] == nil {
		t.Fatalf("snapshot = %v", got)
	}
}

func TestForwardingTableUnknownSession(t *testing.T) {
	ft := NewForwardingTable()
	if hops := ft.AppendNextHops(nil, 9, 0); hops != nil {
		t.Fatalf("unknown session hops = %v", hops)
	}
}

func TestForwardingTableDelete(t *testing.T) {
	ft := NewForwardingTable()
	ft.Set(1, []HopGroup{{Addrs: []string{"x"}}})
	ft.Delete(1)
	if ft.Len() != 0 {
		t.Fatal("Delete failed")
	}
}

func TestForwardingTableSetCopies(t *testing.T) {
	ft := NewForwardingTable()
	hops := []HopGroup{{Addrs: []string{"x"}}}
	ft.Set(1, hops)
	hops[0].Addrs[0] = "mutated"
	if ft.AppendNextHops(nil, 1, 0)[0] != "x" {
		t.Fatal("Set did not copy")
	}
}

func TestForwardingTableGroupsCopies(t *testing.T) {
	ft := NewForwardingTable()
	ft.Set(1, []HopGroup{{Addrs: []string{"x"}, PerGen: 2}})
	g := ft.Groups(1)
	if len(g) != 1 || g[0].PerGen != 2 {
		t.Fatalf("Groups = %+v", g)
	}
	g[0].Addrs[0] = "mutated"
	if ft.AppendNextHops(nil, 1, 0)[0] != "x" {
		t.Fatal("Groups did not copy")
	}
}

func TestForwardingTableSnapshotReplaceAll(t *testing.T) {
	ft := NewForwardingTable()
	ft.Set(1, []HopGroup{{Addrs: []string{"x"}, PerGen: 3}})
	snap := ft.Snapshot()
	other := NewForwardingTable()
	other.ReplaceAll(snap)
	if other.Len() != 1 || other.Groups(1)[0].PerGen != 3 {
		t.Fatal("ReplaceAll lost data")
	}
}

func TestTableSaveLoadRoundTrip(t *testing.T) {
	ft := NewForwardingTable()
	ft.Set(1, []HopGroup{{Addrs: []string{"a", "b"}, PerGen: 2}, {Addrs: []string{"c"}}})
	ft.Set(12, []HopGroup{{Addrs: []string{"dc-oregon/vnf0"}}})
	path := filepath.Join(t.TempDir(), "fwd.tab")
	if err := ft.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("loaded %d sessions", got.Len())
	}
	g1 := got.Groups(1)
	if len(g1) != 2 || g1[0].PerGen != 2 || len(g1[0].Addrs) != 2 || g1[0].Addrs[1] != "b" {
		t.Fatalf("session 1 groups = %+v", g1)
	}
	if got.Groups(12)[0].Addrs[0] != "dc-oregon/vnf0" {
		t.Fatal("session 12 address lost")
	}
}

func TestLoadTableMissingFile(t *testing.T) {
	if _, err := LoadTable(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadTableBadLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.tab")
	if err := writeFile(path, "this is not a table\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(path); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadTableSkipsCommentsAndBlank(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.tab")
	if err := writeFile(path, "# comment\n\nsession 4: a\n"); err != nil {
		t.Fatal(err)
	}
	ft, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 1 || ft.AppendNextHops(nil, 4, 0)[0] != "a" {
		t.Fatal("comment handling wrong")
	}
}

func TestLoadTableBadQuota(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.tab")
	if err := writeFile(path, "session 4: a@x\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(path); err == nil {
		t.Fatal("bad quota accepted")
	}
}
