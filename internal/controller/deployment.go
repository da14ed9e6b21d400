package controller

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ncfn/internal/dataplane"
	"ncfn/internal/gf"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/topology"
)

// BuildDeployFile converts an optimizer plan into the deployment document
// ncctl reads: one session entry per routed session, with each relay's and
// receiver's role, each relay's inbound quota, and every sending node's
// forwarding table (the source's included). The instancesOf callback maps a
// data center to the network addresses of its running VNF instances (one
// hop group dispatches generations across them); receivers resolve to
// their own node ID as address. Sessions the plan gives no rate are left
// out.
//
// Per-hop packet quotas follow the conceptual-flow solution: a link
// carrying f_m(e) of a session with rate λ_m receives
// round(k · f_m(e) / λ_m) of the k coded packets of each generation, plus
// `redundancy` extra coded packets per hop (the NC1/NC2 configurations of
// Figs. 8 and 9 add one or two redundant packets per coding node).
func BuildDeployFile(params rlnc.Params, redundancy int, sessions []optimize.Session, plan *optimize.Plan, instancesOf func(topology.NodeID) []string) (*DeployFile, error) {
	field := 256
	if params.Field == gf.GF2 {
		field = 2
	}
	k := params.GenerationBlocks
	f := &DeployFile{}

	for _, s := range sessions {
		flows := plan.LinkFlows[s.ID]
		rate := plan.Rates[s.ID]
		if rate <= 0 || len(flows) == 0 {
			continue
		}
		// Group edges by their tail node and compute quotas.
		outEdges := make(map[topology.NodeID][][2]topology.NodeID)
		inQuota := make(map[topology.NodeID]int)
		quota := func(e [2]topology.NodeID) int {
			q := int(math.Round(float64(k) * flows[e] / rate))
			if q < 1 {
				q = 1
			}
			if q > k {
				q = k
			}
			return q + redundancy
		}
		for e, mbps := range flows {
			if mbps <= 0 {
				continue
			}
			outEdges[e[0]] = append(outEdges[e[0]], e)
			inQuota[e[1]] += quota(e)
		}
		// Receivers must be able to decode: their inbound quotas need to
		// cover the generation. The conceptual-flow solution guarantees
		// Σ f ≥ λ per receiver, so Σ round(k·f/λ) ≥ k up to rounding.
		for _, r := range s.Receivers {
			if inQuota[r] < k+redundancy {
				return nil, fmt.Errorf("controller: session %d receiver %s has inbound quota %d < %d; plan too fractional",
					s.ID, r, inQuota[r], k)
			}
		}

		ds := DeploySession{
			ID:         int(s.ID),
			Blocks:     k,
			BlockSize:  params.BlockSize,
			Field:      field,
			Redundancy: redundancy,
			Roles:      make(map[string]string),
			Tables:     make(map[string][]DeployHopGroup),
		}
		for node, edges := range outEdges {
			sort.Slice(edges, func(i, j int) bool { return edges[i][1] < edges[j][1] })
			var hops []DeployHopGroup
			for _, e := range edges {
				dst := e[1]
				var addrs []string
				if slices.Contains(s.Receivers, dst) {
					addrs = []string{string(dst)}
				} else {
					addrs = instancesOf(dst)
					if len(addrs) == 0 {
						return nil, fmt.Errorf("controller: session %d routes through %s, but it has no running VNF instances", s.ID, dst)
					}
				}
				hops = append(hops, DeployHopGroup{Addrs: addrs, PerGen: quota(e)})
			}
			ds.Tables[string(node)] = hops
			if node == s.Source || slices.Contains(s.Receivers, node) {
				continue // the source encodes and receivers decode (below)
			}
			// A relay with a single incoming flow and no rate compression
			// can simply forward (Sec. IV-A: "In the case where only one
			// flow of a session arrives at a data center, direct
			// forwarding is sufficient and coding is unnecessary").
			role := dataplane.RoleRecoder
			inEdges := 0
			for e := range flows {
				if e[1] == node {
					inEdges++
				}
			}
			if inEdges == 1 {
				compress := false
				for _, e := range edges {
					if quota(e) < inQuota[node] {
						compress = true
					}
				}
				if !compress {
					role = dataplane.RoleForwarder
				}
			}
			ds.Roles[string(node)] = role.String()
			if ds.InPerGen == nil {
				ds.InPerGen = make(map[string]int)
			}
			ds.InPerGen[string(node)] = inQuota[node]
		}
		// Receivers decode.
		for _, r := range s.Receivers {
			ds.Roles[string(r)] = dataplane.RoleDecoder.String()
		}
		f.Sessions = append(f.Sessions, ds)
	}
	return f, nil
}
