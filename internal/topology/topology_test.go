package topology

import (
	"math"
	"testing"
	"time"
)

func ms(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }

func TestAddNodeAndLink(t *testing.T) {
	g := New()
	g.AddNode("a", Source)
	g.AddNode("b", Destination)
	if err := g.AddLink(Link{From: "a", To: "b", CapacityMbps: 10, Delay: ms(5)}); err != nil {
		t.Fatal(err)
	}
	l, ok := g.Link("a", "b")
	if !ok || l.CapacityMbps != 10 {
		t.Fatalf("Link = %+v, %v", l, ok)
	}
	if _, ok := g.Link("b", "a"); ok {
		t.Fatal("reverse link should not exist")
	}
}

func TestAddLinkUnknownNode(t *testing.T) {
	g := New()
	g.AddNode("a", Source)
	if err := g.AddLink(Link{From: "a", To: "nope"}); err == nil {
		t.Fatal("link to unknown node accepted")
	}
	if err := g.AddLink(Link{From: "nope", To: "a"}); err == nil {
		t.Fatal("link from unknown node accepted")
	}
}

func TestAddLinkReplaces(t *testing.T) {
	g := New()
	g.AddNode("a", Source)
	g.AddNode("b", Destination)
	g.AddLink(Link{From: "a", To: "b", CapacityMbps: 10})
	g.AddLink(Link{From: "a", To: "b", CapacityMbps: 99})
	l, _ := g.Link("a", "b")
	if l.CapacityMbps != 99 {
		t.Fatal("AddLink did not replace")
	}
	if len(g.adj["a"]) != 1 {
		t.Fatal("duplicate adjacency entry")
	}
}

func TestNodesSortedAndKinds(t *testing.T) {
	g := New()
	g.AddNode("z", Destination)
	g.AddNode("a", Source)
	g.AddNode("m", DataCenter)
	nodes := g.Nodes()
	if nodes[0].ID != "a" || nodes[2].ID != "z" {
		t.Fatal("Nodes not sorted")
	}
	if len(g.NodesOfKind(DataCenter)) != 1 {
		t.Fatal("NodesOfKind wrong")
	}
}

func TestNodeKindString(t *testing.T) {
	if Source.String() != "source" || DataCenter.String() != "datacenter" ||
		Destination.String() != "destination" || NodeKind(0).String() != "unknown" {
		t.Fatal("kind names wrong")
	}
}

func TestSetCapacityAndDelay(t *testing.T) {
	g := New()
	g.AddNode("a", Source)
	g.AddNode("b", Destination)
	g.AddLink(Link{From: "a", To: "b", CapacityMbps: 10, Delay: ms(1)})
	if err := g.SetCapacity("a", "b", 5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetDelay("a", "b", ms(9)); err != nil {
		t.Fatal(err)
	}
	l, _ := g.Link("a", "b")
	if l.CapacityMbps != 5 || l.Delay != ms(9) {
		t.Fatalf("updates lost: %+v", l)
	}
	if err := g.SetCapacity("x", "y", 1); err == nil {
		t.Fatal("missing link accepted")
	}
	if err := g.SetDelay("x", "y", 0); err == nil {
		t.Fatal("missing link accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, _, _ := Butterfly()
	c := g.Clone()
	c.SetCapacity("V1", "O1", 1)
	l, _ := g.Link("V1", "O1")
	if l.CapacityMbps == 1 {
		t.Fatal("Clone shares link storage")
	}
	if len(c.Nodes()) != len(g.Nodes()) || len(c.Links()) != len(g.Links()) {
		t.Fatal("Clone incomplete")
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{Nodes: []NodeID{"a", "b", "c"}}
	if p.String() != "a->b->c" {
		t.Fatalf("String = %s", p)
	}
	if p.Hops() != 2 {
		t.Fatalf("Hops = %d", p.Hops())
	}
	if (Path{}).Hops() != 0 {
		t.Fatal("empty path hops")
	}
	edges := p.Edges()
	if len(edges) != 2 || edges[0] != [2]NodeID{"a", "b"} {
		t.Fatal("Edges wrong")
	}
}

func TestPathDelay(t *testing.T) {
	g := New()
	g.AddNode("a", Source)
	g.AddNode("b", DataCenter)
	g.AddNode("c", Destination)
	g.AddLink(Link{From: "a", To: "b", CapacityMbps: 10, Delay: ms(5)})
	g.AddLink(Link{From: "b", To: "c", CapacityMbps: 4, Delay: ms(7)})
	p := Path{Nodes: []NodeID{"a", "b", "c"}}
	d, err := p.Delay(g)
	if err != nil || d != ms(12) {
		t.Fatalf("Delay = %v, %v", d, err)
	}
	bad := Path{Nodes: []NodeID{"a", "c"}}
	if _, err := bad.Delay(g); err == nil {
		t.Fatal("missing link not reported")
	}
}

func TestFeasiblePathsButterfly(t *testing.T) {
	g, src, dsts := Butterfly()
	paths := g.FeasiblePathsMaxHops(src, dsts[0], 150*time.Millisecond, len(g.nodes))
	if len(paths) == 0 {
		t.Fatal("no feasible paths on butterfly")
	}
	// Expected routes to O2: V1-O1-O2 and V1-C1-T-V2-O2 (plus no others
	// within the butterfly given interior-DC restriction).
	want := map[string]bool{
		"V1->O1->O2":        false,
		"V1->C1->T->V2->O2": false,
	}
	for _, p := range paths {
		if _, ok := want[p.String()]; ok {
			want[p.String()] = true
		}
		// Validate delay bound and acyclicity.
		d, err := p.Delay(g)
		if err != nil {
			t.Fatal(err)
		}
		if d > 150*time.Millisecond {
			t.Fatalf("path %s exceeds delay bound: %v", p, d)
		}
		seen := map[NodeID]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("path %s has a cycle", p)
			}
			seen[n] = true
		}
	}
	for k, found := range want {
		if !found {
			t.Fatalf("expected path %s not enumerated (got %v)", k, paths)
		}
	}
}

func TestFeasiblePathsRespectDelayBound(t *testing.T) {
	g, src, dsts := Butterfly()
	// The 5-hop path has delay 18+12+12+15 = 57ms; bound below that.
	paths := g.FeasiblePathsMaxHops(src, dsts[0], 40*time.Millisecond, len(g.nodes))
	for _, p := range paths {
		if p.Hops() > 2 {
			t.Fatalf("long path %s survived a 40ms bound", p)
		}
	}
}

// addDirect adds the butterfly's direct source→receiver links (Table II's
// direct pings, halved), the paths Fig. 7's "Direct TCP" baseline takes.
func addDirect(g *Graph) {
	g.AddLink(Link{From: "V1", To: "O2", CapacityMbps: 20, Delay: ms(45.4)})
	g.AddLink(Link{From: "V1", To: "C2", CapacityMbps: 20, Delay: ms(38.5)})
}

func TestFeasiblePathsIncludeDirect(t *testing.T) {
	g, src, dsts := Butterfly()
	addDirect(g)
	paths := g.FeasiblePathsMaxHops(src, dsts[0], 150*time.Millisecond, len(g.nodes))
	foundDirect := false
	for _, p := range paths {
		if p.Hops() == 1 {
			foundDirect = true
		}
	}
	if !foundDirect {
		t.Fatal("direct path missing from feasible set")
	}
}

func TestFeasiblePathsSortedByDelay(t *testing.T) {
	g, src, dsts := Butterfly()
	paths := g.FeasiblePathsMaxHops(src, dsts[0], time.Second, len(g.nodes))
	var prev time.Duration = -1
	for _, p := range paths {
		d, _ := p.Delay(g)
		if d < prev {
			t.Fatal("paths not sorted by delay")
		}
		prev = d
	}
}

func TestFeasiblePathsInteriorMustBeDataCenter(t *testing.T) {
	g := New()
	g.AddNode("s", Source)
	g.AddNode("r1", Destination)
	g.AddNode("r2", Destination)
	g.AddLink(Link{From: "s", To: "r1", Delay: ms(1)})
	g.AddLink(Link{From: "r1", To: "r2", Delay: ms(1)})
	// r1 is a destination, not a DC: s->r1->r2 must be rejected.
	if paths := g.FeasiblePathsMaxHops("s", "r2", time.Second, len(g.nodes)); len(paths) != 0 {
		t.Fatalf("path through destination allowed: %v", paths)
	}
}

func TestMaxFlowButterfly(t *testing.T) {
	g, src, dsts := Butterfly()
	for _, d := range dsts {
		f := g.MaxFlow(src, NodeID(d))
		if math.Abs(f-70) > 1e-9 {
			t.Fatalf("MaxFlow(%s->%s) = %v, want 70", src, d, f)
		}
	}
}

func TestMulticastCapacityButterfly(t *testing.T) {
	g, src, dsts := Butterfly()
	// The paper's theoretical maximum is 69.9 Mbps on their measured
	// butterfly; our idealized capacities give exactly 70.
	if c := g.MulticastCapacity(src, dsts); math.Abs(c-70) > 1e-9 {
		t.Fatalf("MulticastCapacity = %v, want 70", c)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := New()
	g.AddNode("a", Source)
	g.AddNode("b", Destination)
	if f := g.MaxFlow("a", "b"); f != 0 {
		t.Fatalf("MaxFlow disconnected = %v", f)
	}
}

func TestMaxFlowSelf(t *testing.T) {
	g := New()
	g.AddNode("a", Source)
	if !math.IsInf(g.MaxFlow("a", "a"), 1) {
		t.Fatal("self max-flow should be infinite")
	}
}

func TestMaxFlowSimpleChain(t *testing.T) {
	g := New()
	g.AddNode("a", Source)
	g.AddNode("b", DataCenter)
	g.AddNode("c", Destination)
	g.AddLink(Link{From: "a", To: "b", CapacityMbps: 10})
	g.AddLink(Link{From: "b", To: "c", CapacityMbps: 3})
	if f := g.MaxFlow("a", "c"); math.Abs(f-3) > 1e-9 {
		t.Fatalf("chain MaxFlow = %v, want 3", f)
	}
}

func TestMaxFlowParallelPaths(t *testing.T) {
	g := New()
	g.AddNode("s", Source)
	g.AddNode("x", DataCenter)
	g.AddNode("y", DataCenter)
	g.AddNode("t", Destination)
	g.AddLink(Link{From: "s", To: "x", CapacityMbps: 5})
	g.AddLink(Link{From: "s", To: "y", CapacityMbps: 7})
	g.AddLink(Link{From: "x", To: "t", CapacityMbps: 4})
	g.AddLink(Link{From: "y", To: "t", CapacityMbps: 9})
	if f := g.MaxFlow("s", "t"); math.Abs(f-11) > 1e-9 {
		t.Fatalf("parallel MaxFlow = %v, want 11", f)
	}
}

func TestMulticastCapacityEmpty(t *testing.T) {
	g, src, _ := Butterfly()
	if c := g.MulticastCapacity(src, nil); c != 0 {
		t.Fatalf("capacity with no receivers = %v", c)
	}
}

func TestButterflyStructure(t *testing.T) {
	g, src, dsts := Butterfly()
	if src != "V1" || len(dsts) != 2 {
		t.Fatal("unexpected butterfly endpoints")
	}
	if len(g.Nodes()) != 7 {
		t.Fatalf("butterfly has %d nodes, want 7", len(g.Nodes()))
	}
	if len(g.Links()) != 9 {
		t.Fatalf("butterfly has %d links, want 9", len(g.Links()))
	}
	if g.nodes["T"].Kind != DataCenter {
		t.Fatal("T should be a data center")
	}
}

func BenchmarkFeasiblePathsButterfly(b *testing.B) {
	g, src, dsts := Butterfly()
	addDirect(g)
	for i := 0; i < b.N; i++ {
		g.FeasiblePathsMaxHops(src, dsts[0], 150*time.Millisecond, len(g.nodes))
	}
}

func BenchmarkMaxFlowButterfly(b *testing.B) {
	g, src, dsts := Butterfly()
	for i := 0; i < b.N; i++ {
		g.MaxFlow(src, dsts[0])
	}
}
