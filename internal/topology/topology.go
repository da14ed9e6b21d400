// Package topology models the overlay graph of Sec. IV-A: sources,
// candidate data centers, and destinations, joined by directed links with
// capacity (Mbps) and delay. It provides the primitives the optimizer and
// baselines need:
//
//   - delay-bounded feasible-path enumeration via the paper's modified DFS
//     ("the DFS continues to search for paths ... as long as the path
//     currently obtained has a delay smaller than Lmax and has no cycles"),
//   - Ford–Fulkerson max-flow, used to compute the theoretical maximum
//     multicast rate (the min over receivers of the s→t max-flow equals the
//     multicast capacity with network coding),
//   - Dijkstra shortest/widest paths for the routing-only baseline.
package topology

import (
	"fmt"
	"sort"
	"time"
)

// NodeKind classifies graph nodes.
type NodeKind int

// Node kinds.
const (
	Source NodeKind = iota + 1
	DataCenter
	Destination
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case Source:
		return "source"
	case DataCenter:
		return "datacenter"
	case Destination:
		return "destination"
	default:
		return "unknown"
	}
}

// NodeID names a node ("V1", "oregon", "recv-2", ...).
type NodeID string

// Node is a vertex of the overlay graph.
type Node struct {
	ID   NodeID
	Kind NodeKind
}

// Link is a directed edge with capacity and propagation delay.
type Link struct {
	From, To NodeID
	// CapacityMbps is the link's available bandwidth in Mbps.
	CapacityMbps float64
	// Delay is the one-way latency.
	Delay time.Duration
}

// Key returns the (from,to) pair identifying the link.
func (l Link) Key() [2]NodeID { return [2]NodeID{l.From, l.To} }

// Graph is a directed overlay graph. The zero value is unusable; call New.
type Graph struct {
	nodes map[NodeID]Node
	links map[[2]NodeID]*Link
	// adj caches out-edges per node for traversal.
	adj map[NodeID][]*Link
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[NodeID]Node),
		links: make(map[[2]NodeID]*Link),
		adj:   make(map[NodeID][]*Link),
	}
}

// AddNode inserts (or overwrites) a node.
func (g *Graph) AddNode(id NodeID, kind NodeKind) {
	g.nodes[id] = Node{ID: id, Kind: kind}
}

// AddLink inserts or replaces a directed link.
func (g *Graph) AddLink(l Link) error {
	if _, ok := g.nodes[l.From]; !ok {
		return fmt.Errorf("topology: unknown node %q", l.From)
	}
	if _, ok := g.nodes[l.To]; !ok {
		return fmt.Errorf("topology: unknown node %q", l.To)
	}
	key := l.Key()
	if old, ok := g.links[key]; ok {
		*old = l
		return nil
	}
	lp := &l
	g.links[key] = lp
	g.adj[l.From] = append(g.adj[l.From], lp)
	return nil
}

// Nodes returns all nodes, sorted by ID for determinism.
func (g *Graph) Nodes() []Node {
	out := make([]Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NodesOfKind returns the sorted nodes of one kind.
func (g *Graph) NodesOfKind(kind NodeKind) []Node {
	var out []Node
	for _, n := range g.Nodes() {
		if n.Kind == kind {
			out = append(out, n)
		}
	}
	return out
}

// Link returns the directed link from→to.
func (g *Graph) Link(from, to NodeID) (Link, bool) {
	l, ok := g.links[[2]NodeID{from, to}]
	if !ok {
		return Link{}, false
	}
	return *l, true
}

// Links returns all links, sorted for determinism.
func (g *Graph) Links() []Link {
	out := make([]Link, 0, len(g.links))
	for _, l := range g.links {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// SetCapacity updates a link's capacity in place (bandwidth variation).
func (g *Graph) SetCapacity(from, to NodeID, mbps float64) error {
	l, ok := g.links[[2]NodeID{from, to}]
	if !ok {
		return fmt.Errorf("topology: no link %s->%s", from, to)
	}
	l.CapacityMbps = mbps
	return nil
}

// SetDelay updates a link's delay in place (delay variation).
func (g *Graph) SetDelay(from, to NodeID, d time.Duration) error {
	l, ok := g.links[[2]NodeID{from, to}]
	if !ok {
		return fmt.Errorf("topology: no link %s->%s", from, to)
	}
	l.Delay = d
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for id, n := range g.nodes {
		c.nodes[id] = n
	}
	for _, l := range g.links {
		cp := *l
		c.links[cp.Key()] = &cp
		c.adj[cp.From] = append(c.adj[cp.From], &cp)
	}
	return c
}

// Path is a loop-free node sequence from a source to a destination.
type Path struct {
	Nodes []NodeID
}

// String renders "a->b->c".
func (p Path) String() string {
	s := ""
	for i, n := range p.Nodes {
		if i > 0 {
			s += "->"
		}
		s += string(n)
	}
	return s
}

// Hops returns the number of links on the path.
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Edges returns the (from,to) pairs along the path.
func (p Path) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, p.Hops())
	for i := 0; i+1 < len(p.Nodes); i++ {
		out = append(out, [2]NodeID{p.Nodes[i], p.Nodes[i+1]})
	}
	return out
}

// Delay sums the link delays along the path in g. It returns an error if a
// link is missing.
func (p Path) Delay(g *Graph) (time.Duration, error) {
	var total time.Duration
	for _, e := range p.Edges() {
		l, ok := g.Link(e[0], e[1])
		if !ok {
			return 0, fmt.Errorf("topology: path uses missing link %s->%s", e[0], e[1])
		}
		total += l.Delay
	}
	return total, nil
}

// FeasiblePathsMaxHops enumerates all cycle-free paths from src to dst of at
// most maxHops links whose total delay is at most maxDelay, using the
// paper's modified DFS. Interior nodes are restricted to data centers (flows
// are only relayed through coding VNFs). Paths are returned sorted by delay
// then lexicographically. The direct src→dst link, when present and within
// the delay bound, is included. The hop bound keeps the conceptual-flow LP
// tractable in dense topologies (the optimizer's default is 3 hops = 2
// coding relays).
func (g *Graph) FeasiblePathsMaxHops(src, dst NodeID, maxDelay time.Duration, maxHops int) []Path {
	var out []Path
	visited := map[NodeID]bool{src: true}
	stack := []NodeID{src}

	var dfs func(at NodeID, delay time.Duration)
	dfs = func(at NodeID, delay time.Duration) {
		if len(stack) > maxHops {
			return
		}
		for _, l := range g.adj[at] {
			next := l.To
			nd := delay + l.Delay
			if nd > maxDelay || visited[next] {
				continue
			}
			if next == dst {
				path := make([]NodeID, len(stack)+1)
				copy(path, stack)
				path[len(stack)] = dst
				out = append(out, Path{Nodes: path})
				continue
			}
			// Interior hops must be data centers hosting coding VNFs.
			if n, ok := g.nodes[next]; !ok || n.Kind != DataCenter {
				continue
			}
			visited[next] = true
			stack = append(stack, next)
			dfs(next, nd)
			stack = stack[:len(stack)-1]
			visited[next] = false
		}
	}
	dfs(src, 0)

	sort.Slice(out, func(i, j int) bool {
		di, _ := out[i].Delay(g)
		dj, _ := out[j].Delay(g)
		if di != dj {
			return di < dj
		}
		return out[i].String() < out[j].String()
	})
	return out
}
