// Package optimize implements the coding-function deployment and multicast
// routing optimization of Sec. IV-A (program (2)) and its supporting
// machinery: conceptual-flow LP construction, integer rounding of the VNF
// counts, incremental re-solves that pin unaffected sessions (the basis of
// the dynamic scaling algorithms), and the closed-form minimum-VNF
// computation used when scaling in.
//
// Decision variables, following the paper's notation:
//
//	f^k_m(p) — conceptual flow of session m toward receiver k on path p
//	f_m(e)  — actual flow of session m on link e (max over conceptual flows)
//	λ_m     — end-to-end throughput of session m
//	x_v     — number of coding VNFs deployed in data center v
//
// Objective: maximize Σ_m λ_m − α Σ_v x_v.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"ncfn/internal/lp"
	"ncfn/internal/ncproto"
	"ncfn/internal/topology"
)

// ErrInfeasible is returned when a session has no feasible path.
var ErrInfeasible = errors.New("optimize: infeasible")

// DefaultMaxPathHops bounds feasible paths to two coding relays, keeping
// the LP tractable while covering every route the paper's six-data-center
// deployment uses.
const DefaultMaxPathHops = 3

// Session describes one multicast session (unicast is the one-receiver
// special case).
type Session struct {
	ID        ncproto.SessionID
	Source    topology.NodeID
	Receivers []topology.NodeID
	// MaxDelay is L^max_m, the maximum tolerable source→receiver delay.
	MaxDelay time.Duration
	// RateCap, when positive, pins the session to a fixed target rate
	// (live-streaming mode): λ_m ≤ RateCap and the optimizer finds the
	// cheapest routing that achieves it.
	RateCap float64
}

// DataCenter describes the VNF resources purchasable in one data center.
type DataCenter struct {
	ID topology.NodeID
	// BinMbps and BoutMbps are the inbound/outbound bandwidth of a single
	// VNF (VM) in this data center, as measured by the iperf3 probes.
	BinMbps, BoutMbps float64
	// CodeMbps is C(v): the maximum rate one coding VNF can encode at.
	CodeMbps float64
	// MaxVNFs caps x_v; zero selects DefaultMaxVNFs.
	MaxVNFs int
}

// DefaultMaxVNFs bounds the per-data-center VNF count in the LP.
const DefaultMaxVNFs = 50

// Config carries everything program (2) needs besides the sessions.
type Config struct {
	// Graph holds sources, data centers, receivers, and links (with
	// delays used for feasible-path enumeration, and capacities used as
	// per-link bounds where finite).
	Graph *topology.Graph
	// DataCenters lists the candidate deployment sites (set V).
	DataCenters []DataCenter
	// Alpha is the throughput/cost conversion factor α (Mbps per VNF).
	Alpha float64
	// MaxPathHops bounds path length; zero selects DefaultMaxPathHops.
	MaxPathHops int
	// SourceOutMbps is B_out(s_m) per source; zero means unconstrained.
	SourceOutMbps map[topology.NodeID]float64
	// DestInMbps is B_in(d^k_m) per destination; zero means unconstrained.
	DestInMbps map[topology.NodeID]float64
	// BaseVNFs is the number of VNFs already running per data center.
	// The solver only pays α for VNFs beyond the base (scale-out mode);
	// pass nil for a from-scratch deployment.
	BaseVNFs map[topology.NodeID]int
	// PinnedLoad records bandwidth already consumed on links and in data
	// centers by sessions that this solve must not reroute (the paper's
	// "based on the current deployment and flows except affected ...").
	PinnedLoad *Load
}

// Load aggregates bandwidth consumption for pinning and for the
// closed-form minimum-VNF computation.
type Load struct {
	// LinkMbps is per-directed-link consumption.
	LinkMbps map[[2]topology.NodeID]float64
	// DCInMbps / DCOutMbps is per-data-center aggregate in/out traffic.
	DCInMbps  map[topology.NodeID]float64
	DCOutMbps map[topology.NodeID]float64
}

// NewLoad returns an empty load.
func NewLoad() *Load {
	return &Load{
		LinkMbps:  make(map[[2]topology.NodeID]float64),
		DCInMbps:  make(map[topology.NodeID]float64),
		DCOutMbps: make(map[topology.NodeID]float64),
	}
}

// PathFlow is one conceptual-flow assignment.
type PathFlow struct {
	Session  ncproto.SessionID
	Receiver topology.NodeID
	Path     topology.Path
	RateMbps float64
}

// Plan is the optimizer's output: deployment counts, session rates, and
// routing.
type Plan struct {
	// VNFs is x_v after integer rounding.
	VNFs map[topology.NodeID]int
	// Rates is λ_m.
	Rates map[ncproto.SessionID]float64
	// LinkFlows is f_m(e): the actual (coded) flow of each session on
	// each link it uses.
	LinkFlows map[ncproto.SessionID]map[[2]topology.NodeID]float64
	// PathFlows is f^k_m(p) for every path carrying positive rate.
	PathFlows []PathFlow
	// Objective is Σλ − αΣx at the returned (rounded) plan.
	Objective float64
	// LPObjective is the relaxation optimum before rounding.
	LPObjective float64
}

// TotalVNFs sums the deployment counts.
func (p *Plan) TotalVNFs() int {
	n := 0
	for _, x := range p.VNFs {
		n += x
	}
	return n
}

// TotalRate sums session throughputs.
func (p *Plan) TotalRate() float64 {
	r := 0.0
	for _, v := range p.Rates {
		r += v
	}
	return r
}

// varNames builds the LP variable naming scheme.
func lambdaVar(m ncproto.SessionID) string { return fmt.Sprintf("lambda[%d]", m) }
func xVar(v topology.NodeID) string        { return fmt.Sprintf("x[%s]", v) }
func pathVar(m ncproto.SessionID, k int, p topology.Path) string {
	return fmt.Sprintf("f[%d][%d][%s]", m, k, p)
}
func edgeVar(m ncproto.SessionID, e [2]topology.NodeID) string {
	return fmt.Sprintf("fe[%d][%s->%s]", m, e[0], e[1])
}

// Solve computes program (2) for the sessions: LP relaxation, ceil-rounding
// of x_v, and a second LP with x fixed to recover consistent flows.
func Solve(cfg Config, sessions []Session) (*Plan, error) {
	paths, err := enumeratePaths(cfg, sessions)
	if err != nil {
		return nil, err
	}
	// Phase 1: relaxation with x_v continuous.
	sol1, b1, err := solveLP(cfg, sessions, paths, nil)
	if err != nil {
		return nil, err
	}
	// Round x_v up so the flows of the relaxation stay feasible.
	xInt := make(map[topology.NodeID]int, len(cfg.DataCenters))
	for _, dc := range cfg.DataCenters {
		x := b1.Value(sol1, xVar(dc.ID))
		base := cfg.BaseVNFs[dc.ID]
		xInt[dc.ID] = base + int(math.Ceil(x-1e-6))
	}
	// Phase 2: re-solve flows with the integer deployment fixed, which
	// lets sessions exploit the rounded-up capacity.
	sol2, b2, err := solveLP(cfg, sessions, paths, xInt)
	if err != nil {
		return nil, err
	}
	plan := extractPlan(cfg, sessions, paths, sol2, b2, xInt)

	// Rounding repair: ceil-rounding can over-deploy when fractional VNFs
	// are cheap relative to their bandwidth (e.g. large α with fast VMs).
	// Greedily drop VNFs while the integer objective improves — this is
	// what makes the system "refuse to launch any new VNF when α = 200"
	// (Sec. V-C4). VNFs in the running base are never dropped here; scale
	// in is a separate controller decision.
	for improved := true; improved; {
		improved = false
		for _, dc := range cfg.DataCenters {
			if xInt[dc.ID] <= cfg.BaseVNFs[dc.ID] {
				continue
			}
			trial := make(map[topology.NodeID]int, len(xInt))
			for k, v := range xInt {
				trial[k] = v
			}
			trial[dc.ID]--
			solT, bT, err := solveLP(cfg, sessions, paths, trial)
			if err != nil {
				continue
			}
			cand := extractPlan(cfg, sessions, paths, solT, bT, trial)
			if cand.Objective > plan.Objective+1e-9 {
				plan = cand
				xInt = trial
				improved = true
			}
		}
	}
	plan.LPObjective = sol1.Objective + constantObjectiveOffset(cfg)
	return plan, nil
}

// constantObjectiveOffset accounts for the α cost of base VNFs, which the
// LP treats as free (they are already paid for) but plan objectives report.
func constantObjectiveOffset(cfg Config) float64 {
	off := 0.0
	for _, n := range cfg.BaseVNFs {
		off -= cfg.Alpha * float64(n)
	}
	return off
}

// enumeratePaths computes P^k_m for every session/receiver pair.
func enumeratePaths(cfg Config, sessions []Session) (map[string][]topology.Path, error) {
	maxHops := cfg.MaxPathHops
	if maxHops <= 0 {
		maxHops = DefaultMaxPathHops
	}
	out := make(map[string][]topology.Path)
	for _, s := range sessions {
		for k, dst := range s.Receivers {
			ps := cfg.Graph.FeasiblePathsMaxHops(s.Source, dst, s.MaxDelay, maxHops)
			if len(ps) == 0 {
				return nil, fmt.Errorf("%w: session %d has no path %s->%s within %v",
					ErrInfeasible, s.ID, s.Source, dst, s.MaxDelay)
			}
			out[pairKey(s.ID, k)] = ps
		}
	}
	return out, nil
}

func pairKey(m ncproto.SessionID, k int) string { return fmt.Sprintf("%d/%d", m, k) }

// solveLP assembles and solves the LP. If xFixed is non-nil, the VNF counts
// are constants (phase 2); otherwise x_v are continuous variables bounded
// by MaxVNFs (phase 1).
func solveLP(cfg Config, sessions []Session, paths map[string][]topology.Path, xFixed map[topology.NodeID]int) (*lp.Solution, *lp.Builder, error) {
	b := lp.NewBuilder()
	dcSet := make(map[topology.NodeID]*DataCenter, len(cfg.DataCenters))
	for i := range cfg.DataCenters {
		dcSet[cfg.DataCenters[i].ID] = &cfg.DataCenters[i]
	}
	pinned := cfg.PinnedLoad
	pinnedLink := func(e [2]topology.NodeID) float64 {
		if pinned == nil {
			return 0
		}
		return pinned.LinkMbps[e]
	}
	pinnedIn := func(v topology.NodeID) float64 {
		if pinned == nil {
			return 0
		}
		return pinned.DCInMbps[v]
	}
	pinnedOut := func(v topology.NodeID) float64 {
		if pinned == nil {
			return 0
		}
		return pinned.DCOutMbps[v]
	}

	// Objective: Σ λ_m − α Σ x_v (x appears only in phase 1).
	for _, s := range sessions {
		b.SetObjective(lambdaVar(s.ID), 1)
	}
	if xFixed == nil {
		for _, dc := range cfg.DataCenters {
			b.SetObjective(xVar(dc.ID), -cfg.Alpha)
			// x_v ≤ MaxVNFs − base (extra VNFs beyond the running base).
			maxV := dc.MaxVNFs
			if maxV <= 0 {
				maxV = DefaultMaxVNFs
			}
			bound := float64(maxV - cfg.BaseVNFs[dc.ID])
			if bound < 0 {
				bound = 0
			}
			b.Constraint(fmt.Sprintf("xmax[%s]", dc.ID),
				map[string]float64{xVar(dc.ID): 1}, bound)
		}
	}

	// Per-session structure.
	edgesBySession := make(map[ncproto.SessionID]map[[2]topology.NodeID]bool)
	for _, s := range sessions {
		edgesBySession[s.ID] = make(map[[2]topology.NodeID]bool)
		for k := range s.Receivers {
			key := pairKey(s.ID, k)
			coeff := map[string]float64{lambdaVar(s.ID): 1}
			for _, p := range paths[key] {
				pv := pathVar(s.ID, k, p)
				b.Var(pv)
				coeff[pv] = -1
				for _, e := range p.Edges() {
					edgesBySession[s.ID][e] = true
				}
			}
			// (2a): λ_m − Σ_p f^k_m(p) ≤ 0.
			b.Constraint(fmt.Sprintf("rate[%s]", key), coeff, 0)
		}
		// (2b): Σ_{p∋e} f^k_m(p) − f_m(e) ≤ 0 for every (k, e).
		for k := range s.Receivers {
			key := pairKey(s.ID, k)
			perEdge := make(map[[2]topology.NodeID]map[string]float64)
			for _, p := range paths[key] {
				pv := pathVar(s.ID, k, p)
				for _, e := range p.Edges() {
					if perEdge[e] == nil {
						perEdge[e] = map[string]float64{edgeVar(s.ID, e): -1}
					}
					perEdge[e][pv] = 1
				}
			}
			for e, coeffs := range perEdge {
				b.Constraint(fmt.Sprintf("conc[%s][%s->%s]", key, e[0], e[1]), coeffs, 0)
			}
		}
		// RateCap (live-streaming mode).
		if s.RateCap > 0 {
			b.Constraint(fmt.Sprintf("cap[%d]", s.ID),
				map[string]float64{lambdaVar(s.ID): 1}, s.RateCap)
		}
	}

	// Per-link capacity: Σ_m f_m(e) ≤ cap(e) − pinned(e) where finite.
	linkSessions := make(map[[2]topology.NodeID][]ncproto.SessionID)
	for sid, edges := range edgesBySession {
		for e := range edges {
			linkSessions[e] = append(linkSessions[e], sid)
		}
	}
	for e, sids := range linkSessions {
		l, ok := cfg.Graph.Link(e[0], e[1])
		if !ok {
			continue
		}
		if l.CapacityMbps <= 0 || math.IsInf(l.CapacityMbps, 1) {
			continue // unconstrained link
		}
		coeffs := make(map[string]float64, len(sids))
		for _, sid := range sids {
			coeffs[edgeVar(sid, e)] = 1
		}
		rhs := l.CapacityMbps - pinnedLink(e)
		if rhs < 0 {
			rhs = 0
		}
		b.Constraint(fmt.Sprintf("link[%s->%s]", e[0], e[1]), coeffs, rhs)
	}

	// VNF capacity constraints per data center: (2c), (2d), (2e).
	for _, dc := range cfg.DataCenters {
		inCoeffs := make(map[string]float64)
		outCoeffs := make(map[string]float64)
		for sid, edges := range edgesBySession {
			for e := range edges {
				if e[1] == dc.ID {
					inCoeffs[edgeVar(sid, e)] += 1
				}
				if e[0] == dc.ID {
					outCoeffs[edgeVar(sid, e)] += 1
				}
			}
		}
		base := float64(cfg.BaseVNFs[dc.ID])
		addCap := func(label string, coeffs map[string]float64, perVNF float64, pinnedUse float64) {
			if len(coeffs) == 0 || perVNF <= 0 {
				return
			}
			rhs := perVNF*base - pinnedUse
			if rhs < 0 {
				rhs = 0
			}
			row := make(map[string]float64, len(coeffs)+1)
			for k, v := range coeffs {
				row[k] = v
			}
			if xFixed == nil {
				row[xVar(dc.ID)] = -perVNF
			} else {
				rhs = perVNF*float64(xFixed[dc.ID]) - pinnedUse
				if rhs < 0 {
					rhs = 0
				}
			}
			b.Constraint(label, row, rhs)
		}
		// (2c): inbound bandwidth. (2e): coding capacity — both cover all
		// flow entering the data center.
		addCap(fmt.Sprintf("bin[%s]", dc.ID), inCoeffs, dc.BinMbps, pinnedIn(dc.ID))
		addCap(fmt.Sprintf("code[%s]", dc.ID), inCoeffs, dc.CodeMbps, pinnedIn(dc.ID))
		// (2d): outbound bandwidth.
		addCap(fmt.Sprintf("bout[%s]", dc.ID), outCoeffs, dc.BoutMbps, pinnedOut(dc.ID))
	}

	// (2d'): source outbound limits.
	for _, s := range sessions {
		limit, ok := cfg.SourceOutMbps[s.Source]
		if !ok || limit <= 0 {
			continue
		}
		coeffs := make(map[string]float64)
		for e := range edgesBySession[s.ID] {
			if e[0] == s.Source {
				coeffs[edgeVar(s.ID, e)] += 1
			}
		}
		if len(coeffs) == 0 {
			continue
		}
		b.Constraint(fmt.Sprintf("srcout[%d]", s.ID), coeffs, limit)
	}
	// (2c'): destination inbound limits.
	for _, s := range sessions {
		for _, dst := range s.Receivers {
			limit, ok := cfg.DestInMbps[dst]
			if !ok || limit <= 0 {
				continue
			}
			coeffs := make(map[string]float64)
			for e := range edgesBySession[s.ID] {
				if e[1] == dst {
					coeffs[edgeVar(s.ID, e)] += 1
				}
			}
			if len(coeffs) == 0 {
				continue
			}
			b.Constraint(fmt.Sprintf("dstin[%d][%s]", s.ID, dst), coeffs, limit)
		}
	}

	sol, err := lp.Solve(b.Build())
	if err != nil {
		return nil, nil, fmt.Errorf("optimize: %w", err)
	}
	return sol, b, nil
}

// extractPlan converts the phase-2 solution into a Plan.
func extractPlan(cfg Config, sessions []Session, paths map[string][]topology.Path, sol *lp.Solution, b *lp.Builder, xInt map[topology.NodeID]int) *Plan {
	plan := &Plan{
		VNFs:      xInt,
		Rates:     make(map[ncproto.SessionID]float64, len(sessions)),
		LinkFlows: make(map[ncproto.SessionID]map[[2]topology.NodeID]float64, len(sessions)),
	}
	for _, s := range sessions {
		plan.Rates[s.ID] = clampSmall(b.Value(sol, lambdaVar(s.ID)))
		flows := make(map[[2]topology.NodeID]float64)
		for k := range s.Receivers {
			for _, p := range paths[pairKey(s.ID, k)] {
				rate := clampSmall(b.Value(sol, pathVar(s.ID, k, p)))
				if rate <= 0 {
					continue
				}
				plan.PathFlows = append(plan.PathFlows, PathFlow{
					Session:  s.ID,
					Receiver: s.Receivers[k],
					Path:     p,
					RateMbps: rate,
				})
				for _, e := range p.Edges() {
					if ev := clampSmall(b.Value(sol, edgeVar(s.ID, e))); ev > 0 {
						flows[e] = ev
					}
				}
			}
		}
		plan.LinkFlows[s.ID] = flows
	}
	sort.Slice(plan.PathFlows, func(i, j int) bool {
		a, c := plan.PathFlows[i], plan.PathFlows[j]
		if a.Session != c.Session {
			return a.Session < c.Session
		}
		if a.Receiver != c.Receiver {
			return a.Receiver < c.Receiver
		}
		return a.Path.String() < c.Path.String()
	})
	total := 0
	for _, x := range xInt {
		total += x
	}
	plan.Objective = plan.TotalRate() - cfg.Alpha*float64(total)
	return plan
}

// clampSmall zeroes numerical noise (including the LP's anti-degeneracy
// perturbation, which can leave ~1e-4 ghosts on unused paths).
func clampSmall(v float64) float64 {
	if v < 5e-4 {
		return 0
	}
	return v
}

// MinVNFs computes, in closed form, the minimum number of VNFs per data
// center required to carry the given load: x_v = ceil(max(in/B_in, in/C,
// out/B_out)). The scaling algorithm uses it to decide which VNFs to retain
// "based on the existing flow rates" when a session or receiver departs.
func MinVNFs(dcs []DataCenter, load *Load) map[topology.NodeID]int {
	out := make(map[topology.NodeID]int, len(dcs))
	for _, dc := range dcs {
		in := load.DCInMbps[dc.ID]
		egress := load.DCOutMbps[dc.ID]
		need := 0.0
		if dc.BinMbps > 0 {
			need = math.Max(need, in/dc.BinMbps)
		}
		if dc.CodeMbps > 0 {
			need = math.Max(need, in/dc.CodeMbps)
		}
		if dc.BoutMbps > 0 {
			need = math.Max(need, egress/dc.BoutMbps)
		}
		out[dc.ID] = int(math.Ceil(need - 1e-9))
	}
	return out
}
