package topology

import (
	"math"
	"time"
)

// MaxFlow computes the maximum s→t flow using the Ford–Fulkerson method
// with BFS augmenting paths (Edmonds–Karp), over the graph's link
// capacities in Mbps. The paper uses Ford–Fulkerson to obtain the
// theoretical maximum of 69.9 Mbps on the butterfly (Sec. V-B1).
func (g *Graph) MaxFlow(src, dst NodeID) float64 {
	if src == dst {
		return math.Inf(1)
	}
	// Residual capacities.
	res := make(map[[2]NodeID]float64, 2*len(g.links))
	adj := make(map[NodeID][]NodeID)
	addEdge := func(a, b NodeID) {
		for _, x := range adj[a] {
			if x == b {
				return
			}
		}
		adj[a] = append(adj[a], b)
	}
	for key, l := range g.links {
		res[key] += l.CapacityMbps
		addEdge(key[0], key[1])
		addEdge(key[1], key[0]) // reverse residual edge
	}

	total := 0.0
	for {
		// BFS for an augmenting path.
		parent := map[NodeID]NodeID{src: src}
		queue := []NodeID{src}
		for len(queue) > 0 && parent[dst] == "" {
			at := queue[0]
			queue = queue[1:]
			for _, nb := range adj[at] {
				if _, seen := parent[nb]; seen {
					continue
				}
				if res[[2]NodeID{at, nb}] <= 1e-12 {
					continue
				}
				parent[nb] = at
				if nb == dst {
					break
				}
				queue = append(queue, nb)
			}
		}
		if _, ok := parent[dst]; !ok {
			break
		}
		// Find bottleneck.
		bottleneck := math.Inf(1)
		for at := dst; at != src; at = parent[at] {
			c := res[[2]NodeID{parent[at], at}]
			if c < bottleneck {
				bottleneck = c
			}
		}
		// Apply.
		for at := dst; at != src; at = parent[at] {
			res[[2]NodeID{parent[at], at}] -= bottleneck
			res[[2]NodeID{at, parent[at]}] += bottleneck
		}
		total += bottleneck
	}
	return total
}

// MulticastCapacity returns the maximum multicast rate achievable with
// network coding from src to every destination: the minimum over
// destinations of the s→t max-flow (Ahlswede et al., the main theorem of
// network coding).
func (g *Graph) MulticastCapacity(src NodeID, dsts []NodeID) float64 {
	if len(dsts) == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, d := range dsts {
		f := g.MaxFlow(src, d)
		if f < min {
			min = f
		}
	}
	return min
}

// Butterfly builds the paper's evaluation topology (Fig. 6): source V1 in
// Virginia, relays O1, C1 (Oregon, California), middle relays T (Texas) and
// V2 (Virginia), and receivers O2 (Oregon) and C2 (California), with the
// link capacities (Mbps) labelled in the figure. The T→V2 link is the
// bottleneck that network coding circumvents.
//
// Link capacities follow the classic butterfly structure scaled so the
// multicast capacity (min of the two max-flows) is ~69.9 Mbps as measured
// in the paper: each "side" link carries ~35 Mbps and the middle link
// carries ~35 Mbps.
func Butterfly() (*Graph, NodeID, []NodeID) {
	g := New()
	g.AddNode("V1", Source)
	g.AddNode("O1", DataCenter)
	g.AddNode("C1", DataCenter)
	g.AddNode("T", DataCenter)
	g.AddNode("V2", DataCenter)
	g.AddNode("O2", Destination)
	g.AddNode("C2", Destination)

	// Delays modeled on the paper's Table II ping measurements: V1→O2
	// direct ~90.9 ms RTT, V1→C2 ~77.0 ms RTT; relay hops sum to ~168 ms
	// RTT. One-way delays are half the RTT.
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	links := []Link{
		{From: "V1", To: "O1", CapacityMbps: 35, Delay: ms(18)},
		{From: "V1", To: "C1", CapacityMbps: 35, Delay: ms(18)},
		{From: "O1", To: "O2", CapacityMbps: 35, Delay: ms(15)},
		{From: "O1", To: "T", CapacityMbps: 35, Delay: ms(12)},
		{From: "C1", To: "C2", CapacityMbps: 35, Delay: ms(15)},
		{From: "C1", To: "T", CapacityMbps: 35, Delay: ms(12)},
		{From: "T", To: "V2", CapacityMbps: 35, Delay: ms(12)},
		{From: "V2", To: "O2", CapacityMbps: 35, Delay: ms(15)},
		{From: "V2", To: "C2", CapacityMbps: 35, Delay: ms(15)},
	}
	for _, l := range links {
		if err := g.AddLink(l); err != nil {
			// Nodes were just added; an error here is a programming bug.
			panic(err)
		}
	}
	return g, "V1", []NodeID{"O2", "C2"}
}
