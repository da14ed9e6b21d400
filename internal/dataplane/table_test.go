package dataplane

import (
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

func TestForwardingTableSnapshot(t *testing.T) {
	ft := NewForwardingTable()
	ft.Set(1, []HopGroup{{Addrs: []string{"x"}, PerGen: 3}})
	snap := ft.Snapshot()
	if len(snap) != 1 || snap[1][0].PerGen != 3 || snap[1][0].Addrs[0] != "x" {
		t.Fatalf("Snapshot = %+v", snap)
	}
	snap[1][0].Addrs[0] = "mutated"
	if ft.AppendNextHops(nil, 1, 0)[0] != "x" {
		t.Fatal("Snapshot did not deep-copy")
	}
}
