package optimize

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ncfn/internal/topology"
)

// butterflyConfig builds the optimizer view of the paper's butterfly.
func butterflyConfig(alpha float64) (Config, []Session) {
	g, src, dsts := topology.Butterfly()
	cfg := Config{
		Graph: g,
		DataCenters: []DataCenter{
			{ID: "O1", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
			{ID: "C1", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
			{ID: "T", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
			{ID: "V2", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
		},
		Alpha:       alpha,
		MaxPathHops: 4, // the long side of the butterfly has 4 hops
	}
	sessions := []Session{{
		ID:        1,
		Source:    src,
		Receivers: dsts,
		MaxDelay:  150 * time.Millisecond,
	}}
	return cfg, sessions
}

func TestButterflyAchievesMulticastCapacity(t *testing.T) {
	cfg, sessions := butterflyConfig(0.1)
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	// Network coding achieves the full min-cut of 70 Mbps; routing alone
	// could deliver at most 35+25... (here: less). The plan must hit 70.
	if r := plan.Rates[1]; math.Abs(r-70) > 0.5 {
		t.Fatalf("rate = %v, want ~70", r)
	}
	// All four relay DCs must host a VNF.
	for _, dc := range []topology.NodeID{"O1", "C1", "T", "V2"} {
		if plan.VNFs[dc] < 1 {
			t.Fatalf("no VNF at %s: %v", dc, plan.VNFs)
		}
	}
	// With 1000 Mbps VNFs, one VNF per DC suffices.
	if plan.TotalVNFs() != 4 {
		t.Fatalf("TotalVNFs = %d, want 4", plan.TotalVNFs())
	}
	if math.Abs(plan.Objective-(70-cfg.Alpha*4)) > 0.5 {
		t.Fatalf("objective = %v", plan.Objective)
	}
}

func TestButterflyLinkFlowsRespectCapacity(t *testing.T) {
	cfg, sessions := butterflyConfig(0.1)
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	for sid, flows := range plan.LinkFlows {
		for e, mbps := range flows {
			l, ok := cfg.Graph.Link(e[0], e[1])
			if !ok {
				t.Fatalf("session %d routed on missing link %v", sid, e)
			}
			if mbps > l.CapacityMbps+1e-3 {
				t.Fatalf("link %v overloaded: %v > %v", e, mbps, l.CapacityMbps)
			}
		}
	}
}

func TestButterflyConceptualFlowSharing(t *testing.T) {
	// The essence of network coding: both receivers' conceptual flows use
	// the T->V2 bottleneck at 35 each, but the actual flow is max, not
	// sum. Verify T->V2 carries 35, not 70.
	cfg, sessions := butterflyConfig(0.1)
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	f := plan.LinkFlows[1][[2]topology.NodeID{"T", "V2"}]
	if math.Abs(f-35) > 0.5 {
		t.Fatalf("T->V2 actual flow = %v, want ~35 (conceptual flows must share)", f)
	}
	usingTV2 := 0
	for _, pf := range plan.PathFlows {
		if slices.Contains(pf.Path.Edges(), [2]topology.NodeID{"T", "V2"}) && pf.RateMbps > 1 {
			usingTV2++
		}
	}
	if usingTV2 < 2 {
		t.Fatalf("expected both receivers' conceptual flows across T->V2, got %d", usingTV2)
	}
}

func TestHigherAlphaFewerVNFs(t *testing.T) {
	// Fig. 13: as α grows the optimizer trades throughput for fewer VNFs,
	// and at α large enough it deploys nothing.
	var prevVNFs = math.MaxInt32
	var prevRate = math.Inf(1)
	for _, alpha := range []float64{0, 20, 60, 200} {
		cfg, sessions := butterflyConfig(alpha)
		plan, err := Solve(cfg, sessions)
		if err != nil {
			t.Fatal(err)
		}
		if plan.TotalVNFs() > prevVNFs {
			t.Fatalf("alpha=%v: VNFs %d > previous %d", alpha, plan.TotalVNFs(), prevVNFs)
		}
		if plan.TotalRate() > prevRate+1e-3 {
			t.Fatalf("alpha=%v: rate %v > previous %v", alpha, plan.TotalRate(), prevRate)
		}
		prevVNFs = plan.TotalVNFs()
		prevRate = plan.TotalRate()
	}
	// At alpha=200 on the relay-only butterfly there is no direct path, so
	// zero VNFs means zero rate; the optimizer must prefer that to paying
	// 4*200 for 70 Mbps.
	cfg, sessions := butterflyConfig(200)
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalVNFs() != 0 {
		t.Fatalf("alpha=200 should deploy no VNFs, got %d", plan.TotalVNFs())
	}
}

func TestLargerMaxDelayMoreThroughput(t *testing.T) {
	// Fig. 12: enlarging Lmax expands the feasible path set and the rate
	// grows, then plateaus.
	rates := make([]float64, 0, 3)
	for _, lmax := range []time.Duration{40 * time.Millisecond, 80 * time.Millisecond, 200 * time.Millisecond} {
		cfg, sessions := butterflyConfig(0.1)
		sessions[0].MaxDelay = lmax
		plan, err := Solve(cfg, sessions)
		if err != nil {
			t.Fatal(err)
		}
		rates = append(rates, plan.TotalRate())
	}
	const tol = 1e-6
	if rates[2] < rates[0]+1 {
		t.Fatalf("rates did not grow with Lmax: %v", rates)
	}
	if rates[2] < rates[1]-tol || rates[1] < rates[0]-tol {
		t.Fatalf("rates not monotone in Lmax: %v", rates)
	}
}

func TestInfeasibleNoPath(t *testing.T) {
	cfg, sessions := butterflyConfig(1)
	sessions[0].MaxDelay = time.Millisecond // nothing fits
	if _, err := Solve(cfg, sessions); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestRateCapLimits(t *testing.T) {
	cfg, sessions := butterflyConfig(0.1)
	sessions[0].RateCap = 10
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rates[1] > 10+1e-3 {
		t.Fatalf("rate %v exceeds cap 10", plan.Rates[1])
	}
	// Capped at 10 Mbps, the cheapest deployment uses only the short
	// side(s), not all four DCs.
	if plan.TotalVNFs() >= 4 {
		t.Fatalf("capped session should not need all DCs: %v", plan.VNFs)
	}
}

func TestSourceOutboundLimit(t *testing.T) {
	cfg, sessions := butterflyConfig(0.1)
	cfg.SourceOutMbps = map[topology.NodeID]float64{"V1": 30}
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rates[1] > 30+1e-3 {
		t.Fatalf("rate %v exceeds source outbound 30", plan.Rates[1])
	}
}

func TestDestInboundLimit(t *testing.T) {
	cfg, sessions := butterflyConfig(0.1)
	cfg.DestInMbps = map[topology.NodeID]float64{"O2": 20}
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rates[1] > 20+1e-3 {
		t.Fatalf("rate %v exceeds receiver inbound 20", plan.Rates[1])
	}
}

func TestSmallVNFCapacityNeedsMoreVNFs(t *testing.T) {
	cfg, sessions := butterflyConfig(0.1)
	for i := range cfg.DataCenters {
		cfg.DataCenters[i].BinMbps = 20
		cfg.DataCenters[i].BoutMbps = 20
		cfg.DataCenters[i].CodeMbps = 20
	}
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	// 35 Mbps through a DC at 20 Mbps per VNF needs 2 VNFs; the middle
	// relays carry 35 too.
	for dc, x := range plan.VNFs {
		if x > 0 && x < 2 && plan.Rates[1] > 25 {
			t.Fatalf("DC %s has %d VNFs but rate %v", dc, x, plan.Rates[1])
		}
	}
	if plan.Rates[1] < 60 {
		t.Fatalf("rate %v, want near 70 with scaled-out VNFs", plan.Rates[1])
	}
}

func TestBaseVNFsNotChargedAgain(t *testing.T) {
	cfg, sessions := butterflyConfig(20)
	cfg.BaseVNFs = map[topology.NodeID]int{"O1": 1, "C1": 1, "T": 1, "V2": 1}
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	// With the deployment already paid for, the optimizer should use it:
	// rate 70 with no extra VNFs.
	if plan.Rates[1] < 69 {
		t.Fatalf("rate = %v, want ~70 using base VNFs", plan.Rates[1])
	}
	if plan.TotalVNFs() != 4 {
		t.Fatalf("TotalVNFs = %d, want the 4 base VNFs", plan.TotalVNFs())
	}
}

func TestPinnedLoadReservesCapacity(t *testing.T) {
	cfg, sessions := butterflyConfig(0.1)
	pin := NewLoad()
	pin.LinkMbps[[2]topology.NodeID{"V1", "O1"}] = 20 // another session holds 20 of 35
	cfg.PinnedLoad = pin
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	f := plan.LinkFlows[1][[2]topology.NodeID{"V1", "O1"}]
	if f > 15+1e-3 {
		t.Fatalf("flow %v on V1->O1 ignores pinned 20/35", f)
	}
	if plan.Rates[1] > 70 {
		t.Fatalf("rate %v impossible", plan.Rates[1])
	}
}

func TestTwoSessionsShareInfrastructure(t *testing.T) {
	cfg, sessions := butterflyConfig(0.1)
	s2 := sessions[0]
	s2.ID = 2
	sessions = append(sessions, s2)
	plan, err := Solve(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	// Two identical sessions compete for the same 70 Mbps of capacity.
	total := plan.TotalRate()
	if total > 70+1 {
		t.Fatalf("combined rate %v exceeds physical capacity 70", total)
	}
	if total < 60 {
		t.Fatalf("combined rate %v too low", total)
	}
}

func TestMinVNFs(t *testing.T) {
	dcs := []DataCenter{
		{ID: "a", BinMbps: 100, BoutMbps: 50, CodeMbps: 200},
		{ID: "b", BinMbps: 100, BoutMbps: 100, CodeMbps: 100},
	}
	load := NewLoad()
	load.DCInMbps["a"] = 150  // needs 2 by Bin
	load.DCOutMbps["a"] = 240 // needs 5 by Bout (binding)
	load.DCInMbps["b"] = 0
	got := MinVNFs(dcs, load)
	if got["a"] != 5 {
		t.Fatalf("MinVNFs[a] = %d, want 5", got["a"])
	}
	if got["b"] != 0 {
		t.Fatalf("MinVNFs[b] = %d, want 0", got["b"])
	}
}

func TestMinVNFsExactBoundary(t *testing.T) {
	dcs := []DataCenter{{ID: "a", BinMbps: 100, BoutMbps: 100, CodeMbps: 100}}
	load := NewLoad()
	load.DCInMbps["a"] = 200 // exactly 2 VNFs
	if got := MinVNFs(dcs, load); got["a"] != 2 {
		t.Fatalf("MinVNFs = %d, want 2", got["a"])
	}
}

func BenchmarkSolveButterfly(b *testing.B) {
	cfg, sessions := butterflyConfig(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(cfg, sessions); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSolveRandomGraphInvariants(t *testing.T) {
	// On random overlays, every returned plan must satisfy the physical
	// invariants regardless of topology: rates within caps, per-link flows
	// within capacity, per-DC loads within deployed VNF capacity, and path
	// flows supporting each receiver's rate.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		g := topology.New()
		nDC := rng.Intn(3) + 2
		var dcs []DataCenter
		var dcIDs []topology.NodeID
		for i := 0; i < nDC; i++ {
			id := topology.NodeID(fmt.Sprintf("dc%d", i))
			g.AddNode(id, topology.DataCenter)
			dcIDs = append(dcIDs, id)
			dcs = append(dcs, DataCenter{
				ID:       id,
				BinMbps:  float64(rng.Intn(300) + 100),
				BoutMbps: float64(rng.Intn(300) + 100),
				CodeMbps: float64(rng.Intn(200) + 100),
			})
		}
		g.AddNode("src", topology.Source)
		nRecv := rng.Intn(3) + 1
		var receivers []topology.NodeID
		for r := 0; r < nRecv; r++ {
			id := topology.NodeID(fmt.Sprintf("recv%d", r))
			g.AddNode(id, topology.Destination)
			receivers = append(receivers, id)
		}
		ms := func(f int) time.Duration { return time.Duration(f) * time.Millisecond }
		for _, dc := range dcIDs {
			g.AddLink(topology.Link{From: "src", To: dc, CapacityMbps: float64(rng.Intn(90) + 10), Delay: ms(rng.Intn(30) + 5)})
			for _, r := range receivers {
				g.AddLink(topology.Link{From: dc, To: r, CapacityMbps: float64(rng.Intn(90) + 10), Delay: ms(rng.Intn(30) + 5)})
			}
			for _, other := range dcIDs {
				if other != dc {
					g.AddLink(topology.Link{From: dc, To: other, CapacityMbps: float64(rng.Intn(90) + 10), Delay: ms(rng.Intn(30) + 5)})
				}
			}
		}
		cfg := Config{Graph: g, DataCenters: dcs, Alpha: float64(rng.Intn(5)), MaxPathHops: 3}
		sessions := []Session{{ID: 1, Source: "src", Receivers: receivers, MaxDelay: 200 * time.Millisecond}}
		plan, err := Solve(cfg, sessions)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		const tol = 1e-2
		// Link flows within capacity.
		for e, mbps := range plan.LinkFlows[1] {
			l, ok := g.Link(e[0], e[1])
			if !ok {
				t.Fatalf("trial %d: flow on missing link %v", trial, e)
			}
			if l.CapacityMbps > 0 && mbps > l.CapacityMbps+tol {
				t.Fatalf("trial %d: link %v overloaded: %v > %v", trial, e, mbps, l.CapacityMbps)
			}
		}
		// Per-DC load within deployed VNF capacity.
		for _, dc := range dcs {
			in, out := 0.0, 0.0
			for e, mbps := range plan.LinkFlows[1] {
				if e[1] == dc.ID {
					in += mbps
				}
				if e[0] == dc.ID {
					out += mbps
				}
			}
			x := float64(plan.VNFs[dc.ID])
			if in > dc.BinMbps*x+tol || in > dc.CodeMbps*x+tol {
				t.Fatalf("trial %d: DC %s inbound %v exceeds %v VNFs", trial, dc.ID, in, x)
			}
			if out > dc.BoutMbps*x+tol {
				t.Fatalf("trial %d: DC %s outbound %v exceeds %v VNFs", trial, dc.ID, out, x)
			}
		}
		// Each receiver's conceptual flow must carry the session rate.
		rate := plan.Rates[1]
		for _, r := range receivers {
			sum := 0.0
			for _, pf := range plan.PathFlows {
				if pf.Receiver == r {
					sum += pf.RateMbps
				}
			}
			if sum+tol < rate {
				t.Fatalf("trial %d: receiver %s conceptual flow %v < rate %v", trial, r, sum, rate)
			}
		}
	}
}
