// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (Sec. V), each regenerating the corresponding
// rows or series. cmd/ncbench exposes them on the command line and the
// repository-root bench_test.go wraps them as testing.B benchmarks.
//
// Packet-level experiments run the real data plane over the emulated
// network at a scaled-down link rate (default 20% of the paper's butterfly
// capacities) so each point completes in about a second; throughput columns
// are reported scaled back to the paper's units. Control-plane experiments
// run the real controller under a virtual clock at full fidelity.
package bench

import (
	"errors"
	"fmt"
	"time"

	"ncfn/internal/core"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/topology"
	"ncfn/internal/transfer"
)

// DefaultScale shrinks butterfly link rates so packet-level points run
// quickly; reported throughputs are divided by the scale to map back to
// the paper's Mbps axis.
const DefaultScale = 0.2

// ButterflyOpts configures one packet-level butterfly run.
type ButterflyOpts struct {
	// Params defaults to 4 blocks x 1460 bytes.
	Params rlnc.Params
	// Redundancy is the NCr configuration (0, 1, 2).
	Redundancy int
	// Duration is the streaming time (default 1200 ms).
	Duration time.Duration
	// ForceForwarding selects the routing-only baseline.
	ForceForwarding bool
	// LossTV2 applies a loss model to the T->V2 bottleneck link.
	LossTV2 emunet.LossModel
	// BufferGenerations overrides VNF buffer capacity.
	BufferGenerations int
	// Reliable uses ACK-driven resends (file-download mode) instead of
	// plain streaming.
	Reliable bool
	// ExtraSkew adds delay to the C1 branch to induce generation
	// interleaving at the merge node (used by the buffer-size sweep).
	ExtraSkew time.Duration
	// Seed fixes randomness.
	Seed int64
}

// ButterflyResult reports a butterfly run.
type ButterflyResult struct {
	// GoodputMbps is the session throughput: the minimum across
	// receivers, rescaled to the paper's units.
	GoodputMbps float64
	// PerReceiver holds each receiver's rescaled goodput.
	PerReceiver map[string]float64
	// PlanRateMbps is the optimizer's λ (rescaled).
	PlanRateMbps float64
	// RelayTxPackets / RelayDropped / NetDropped come from the
	// deployment's telemetry snapshot (the same counters ncd exports on
	// its admin endpoint), totalled across every VNF and link.
	RelayTxPackets uint64
	RelayDropped   uint64
	NetDropped     uint64
	// GenerationsDecoded totals receiver-side generation completions;
	// DependentGF2/DependentGF256 total the dependent (non-innovative)
	// arrivals at every recoder and receiver, split by coefficient field.
	// Together they measure the small-field dependency overhead of
	// Sec. III-B (see the fieldsweep experiment).
	GenerationsDecoded uint64
	DependentGF2       uint64
	DependentGF256     uint64
}

// scaledButterfly clones the butterfly graph with capacities multiplied.
func scaledButterfly(scale float64) (*topology.Graph, topology.NodeID, []topology.NodeID) {
	g, src, dsts := topology.Butterfly()
	for _, l := range g.Links() {
		// Ignoring the error: links trivially exist, we just listed them.
		_ = g.SetCapacity(l.From, l.To, l.CapacityMbps*scale)
	}
	return g, src, dsts
}

// butterflyDCs returns the optimizer's view of the four relay sites.
func butterflyDCs(scale float64) []optimize.DataCenter {
	mk := func(id topology.NodeID) optimize.DataCenter {
		return optimize.DataCenter{ID: id, BinMbps: 1000 * scale, BoutMbps: 1000 * scale, CodeMbps: 500 * scale}
	}
	return []optimize.DataCenter{mk("O1"), mk("C1"), mk("T"), mk("V2")}
}

// RunButterfly deploys the butterfly and streams data for the configured
// duration, returning measured goodput.
func RunButterfly(o ButterflyOpts) (ButterflyResult, error) {
	if o.Params.GenerationBlocks == 0 {
		o.Params = rlnc.DefaultParams()
	}
	if o.Duration <= 0 {
		o.Duration = 1200 * time.Millisecond
	}
	g, src, dsts := scaledButterfly(DefaultScale)
	svc, err := core.NewService(core.Config{
		Graph:             g,
		DataCenters:       butterflyDCs(DefaultScale),
		Alpha:             0.1,
		Params:            o.Params,
		Redundancy:        o.Redundancy,
		BufferGenerations: o.BufferGenerations,
		ForceForwarding:   o.ForceForwarding,
		Seed:              o.Seed,
	})
	if err != nil {
		return ButterflyResult{}, err
	}
	defer svc.Close()
	const sessionID = ncproto.SessionID(1)
	if err := svc.AddSession(optimize.Session{
		ID:        sessionID,
		Source:    src,
		Receivers: dsts,
		MaxDelay:  150 * time.Millisecond,
	}); err != nil {
		return ButterflyResult{}, err
	}
	planRate := svc.Plan().Rates[sessionID]

	// Post-deploy link impairments.
	net := svc.Network()
	if o.LossTV2 != nil {
		net.SetLink("T", "V2", emunet.LinkConfig{
			RateBps:      35 * DefaultScale * 1e6,
			Delay:        12 * time.Millisecond,
			Loss:         o.LossTV2,
			QueuePackets: 512,
		})
	}
	if o.ExtraSkew > 0 {
		net.SetLink("V1", "C1", emunet.LinkConfig{
			RateBps:      35 * DefaultScale * 1e6,
			Delay:        18*time.Millisecond + o.ExtraSkew,
			QueuePackets: 512,
		})
	}

	source, err := svc.Source(sessionID)
	if err != nil {
		return ButterflyResult{}, err
	}
	// Stream planRate worth of data for the duration.
	totalBytes := int(planRate * 1e6 / 8 * o.Duration.Seconds())
	genBytes := o.Params.GenerationBytes()
	nGen := totalBytes / genBytes
	if nGen < 4 {
		nGen = 4
	}
	data := make([]byte, nGen*genBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}

	start := time.Now()
	var elapsed float64
	if o.Reliable {
		recvAddrs := make([]string, len(dsts))
		for i, d := range dsts {
			recvAddrs[i] = string(d)
		}
		if _, err := transfer.Multicast(source, data, transfer.MulticastConfig{
			Receivers:  recvAddrs,
			AckTimeout: 300 * time.Millisecond,
			MaxRounds:  30,
		}); err != nil && !errors.Is(err, transfer.ErrIncomplete) {
			// Incomplete delivery still yields a throughput number; any
			// other failure aborts the experiment.
			return ButterflyResult{}, err
		}
		// Reliable mode: goodput over the full completion time, resend
		// rounds included.
		elapsed = time.Since(start).Seconds()
	} else {
		if _, _, err := source.SendData(data); err != nil {
			return ButterflyResult{}, err
		}
		// Streaming mode: goodput over the paced send window (SendData
		// returns when the last generation leaves the source); the short
		// drain below only lets in-flight packets land.
		elapsed = time.Since(start).Seconds()
		time.Sleep(250 * time.Millisecond)
	}

	snap := svc.Telemetry().Snapshot()
	res := ButterflyResult{
		PerReceiver:    make(map[string]float64, len(dsts)),
		PlanRateMbps:   planRate / DefaultScale,
		RelayTxPackets: snap.Counters[dataplane.MetricTxPackets],
		RelayDropped:   snap.Counters[dataplane.MetricDroppedPackets],
		NetDropped:     snap.Counters[emunet.MetricNetDroppedPackets],

		GenerationsDecoded: snap.Counters[dataplane.MetricGenerationsDone],
		DependentGF2:       snap.Counters[dataplane.MetricDependentGF2],
		DependentGF256:     snap.Counters[dataplane.MetricDependentGF256],
	}
	minGoodput := -1.0
	for _, d := range dsts {
		recv, err := svc.Receiver(d)
		if err != nil {
			return ButterflyResult{}, err
		}
		mbps := float64(recv.Bytes(sessionID)) * 8 / elapsed / 1e6 / DefaultScale
		res.PerReceiver[string(d)] = mbps
		if minGoodput < 0 || mbps < minGoodput {
			minGoodput = mbps
		}
	}
	if minGoodput < 0 {
		minGoodput = 0
	}
	res.GoodputMbps = minGoodput
	return res, nil
}

// DirectTCPButterfly measures the Fig. 7 "Direct TCP" baseline: a reliable
// transfer over the direct V1→O2 and V1→C2 Internet paths, returning the
// slower receiver's goodput (rescaled).
func DirectTCPButterfly(duration time.Duration) (float64, error) {
	if duration <= 0 {
		duration = 1200 * time.Millisecond
	}
	n := emunet.NewNetwork()
	defer n.Close()
	// Direct paths: 20 Mbps, one-way delays ~45/38 ms (Table II RTTs).
	n.SetLink("V1", "O2", emunet.LinkConfig{RateBps: 20 * DefaultScale * 1e6, Delay: 45 * time.Millisecond, QueuePackets: 256})
	n.SetLink("V1", "C2", emunet.LinkConfig{RateBps: 20 * DefaultScale * 1e6, Delay: 38 * time.Millisecond, QueuePackets: 256})
	n.SetLink("O2", "V1", emunet.LinkConfig{Delay: 45 * time.Millisecond})
	n.SetLink("C2", "V1", emunet.LinkConfig{Delay: 38 * time.Millisecond})

	bytesTotal := int(20 * DefaultScale * 1e6 / 8 * duration.Seconds())
	data := make([]byte, bytesTotal)
	for i := range data {
		data[i] = byte(i * 17)
	}
	worst := -1.0
	for _, dst := range []string{"O2", "C2"} {
		sink := transfer.NewTCPSink(n.Host(dst))
		src := n.Host("V1-" + dst) // dedicated sender socket per receiver
		n.SetLink("V1-"+dst, dst, mustLinkConfig(n, "V1", dst))
		n.SetLink(dst, "V1-"+dst, emunet.LinkConfig{Delay: 40 * time.Millisecond})
		stats, err := transfer.TCPSend(src, dst, data, transfer.TCPConfig{
			MSS:      1460,
			RTO:      250 * time.Millisecond,
			Deadline: duration * 20,
		})
		sink.Close()
		if err != nil {
			return 0, fmt.Errorf("bench: direct tcp to %s: %w", dst, err)
		}
		mbps := stats.GoodputMbps / DefaultScale
		if worst < 0 || mbps < worst {
			worst = mbps
		}
	}
	return worst, nil
}

// mustLinkConfig copies an existing link's configuration.
func mustLinkConfig(n *emunet.Network, from, to string) emunet.LinkConfig {
	cfg, ok := n.LinkConfigOf(from, to)
	if !ok {
		return emunet.LinkConfig{}
	}
	return cfg
}
