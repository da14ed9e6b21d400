package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/metrics"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/telemetry"
)

// discardConn is a PacketConn that counts and discards every send; Recv
// blocks until Close. The soak drives its VNF synchronously through
// InjectPacket, so nothing ever needs to be received.
type discardConn struct {
	sent      atomic.Uint64
	closeOnce sync.Once
	closed    chan struct{}
}

func newDiscardConn() *discardConn { return &discardConn{closed: make(chan struct{})} }

func (c *discardConn) Send(string, []byte) error {
	c.sent.Add(1)
	return nil
}

func (c *discardConn) Recv() ([]byte, string, error) {
	<-c.closed
	return nil, "", emunet.ErrClosed
}

func (c *discardConn) LocalAddr() string { return "soak" }

func (c *discardConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// soakParams keeps per-generation coding state moderate so thousands of
// sessions stress the store, not the allocator.
func soakParams() rlnc.Params {
	return rlnc.Params{GenerationBlocks: 4, BlockSize: 256}
}

// soakResult aggregates one soak run's observables.
type soakResult struct {
	throughputMbps float64
	p99DecodeUs    float64
	liveGens       int64
	peakMB         float64
	endMB          float64
	evicted        uint64
	tableSwaps     uint64
}

// runSessionSoak drives one VNF through a many-session workload: sessions
// with heavy-tailed traffic shares cycle generation after generation,
// Poisson churn kills and revives sessions mid-stream (churnPer1000 events
// per 1000 packets), and the controller pushes forwarding batches every 512
// packets through the RCU swap path. The buffer capacity bounds live coding
// state at sessions/2 generations, so eviction runs continuously. Returns
// wall-clock throughput and the store/telemetry observables.
func runSessionSoak(o Options, sessions, totalPkts, churnPer1000 int, role dataplane.Role) (soakResult, error) {
	params := soakParams()
	k := params.GenerationBlocks
	maxGens := sessions / 2
	if maxGens < 64 {
		maxGens = 64
	}

	conn := newDiscardConn()
	reg := telemetry.NewRegistry()
	v := dataplane.NewVNF(conn,
		dataplane.WithSeed(o.Seed),
		dataplane.WithTelemetry(reg),
		dataplane.WithBufferCapacity(maxGens))
	defer v.Close()

	hops := []dataplane.HopGroup{{Addrs: []string{"sink"}}}
	rng := rand.New(rand.NewSource(o.Seed + int64(sessions) + int64(churnPer1000)))
	templates := make([][][]byte, sessions+1)
	cursor := make([]int, sessions+1)   // next packet within the current cycle
	cycle := make([]uint32, sessions+1) // current generation id
	for s := 1; s <= sessions; s++ {
		id := ncproto.SessionID(s)
		if err := v.Configure(dataplane.SessionConfig{ID: id, Params: params, Role: role, Redundancy: 1}); err != nil {
			return soakResult{}, err
		}
		v.Table().Set(id, hops)
		data := make([]byte, params.GenerationBytes())
		rng.Read(data)
		enc, err := rlnc.NewEncoder(params, data, o.Seed+int64(s))
		if err != nil {
			return soakResult{}, err
		}
		templates[s] = make([][]byte, k+1)
		for i := range templates[s] {
			cb := enc.Coded()
			templates[s][i] = (&ncproto.Packet{
				Session: id, Coeffs: cb.Coeffs, Payload: cb.Payload,
			}).Encode(nil)
		}
	}

	// Heavy-tailed traffic shares: Pareto(alpha=1.2) weights, capped, drawn
	// per session and expanded into a weighted pick table. A few sessions
	// carry a large share of the packets; most idle between touches, so the
	// oldest generation at capacity is mostly an idle session's.
	var pick []int
	for s := 1; s <= sessions; s++ {
		w := int(math.Pow(1-rng.Float64(), -1/1.2))
		if w > 64 {
			w = 64
		}
		for i := 0; i < w; i++ {
			pick = append(pick, s)
		}
	}

	// Poisson churn: exponential gaps between kill/revive events, measured
	// in packets.
	nextChurn := totalPkts + 1
	churnGap := func() int {
		if churnPer1000 <= 0 {
			return totalPkts + 1
		}
		return 1 + int(rng.ExpFloat64()*1000/float64(churnPer1000))
	}
	nextChurn = churnGap()

	sessBytes := reg.Gauge(dataplane.MetricSessionBytes, 1)
	var peakBytes int64
	const pushEvery = 512
	pushCursor := 0

	start := time.Now()
	for i := 0; i < totalPkts; i++ {
		s := pick[rng.Intn(len(pick))]
		tpl := templates[s][cursor[s]]
		binary.BigEndian.PutUint32(tpl[4:], cycle[s])
		v.InjectPacket(tpl)
		cursor[s]++
		if cursor[s] == len(templates[s]) {
			cursor[s] = 0
			cycle[s]++
		}

		if i >= nextChurn {
			nextChurn = i + churnGap()
			id := ncproto.SessionID(rng.Intn(sessions) + 1)
			v.EndSession(id)
			if err := v.Configure(dataplane.SessionConfig{ID: id, Params: params, Role: role, Redundancy: 1}); err != nil {
				return soakResult{}, err
			}
			v.Table().Set(id, hops)
			cursor[id] = 0
			cycle[id]++ // fresh state; skip ahead so old in-ring ids never collide
		}
		if i%pushEvery == 0 {
			entries := make(map[ncproto.SessionID][]dataplane.HopGroup, 32)
			for j := 0; j < 32; j++ {
				pushCursor = pushCursor%sessions + 1
				entries[ncproto.SessionID(pushCursor)] = hops
			}
			v.UpdateTable(entries)
		}
		if i%2048 == 0 {
			if b := sessBytes.Value(); b > peakBytes {
				peakBytes = b
			}
		}
	}
	dur := time.Since(start)

	if b := sessBytes.Value(); b > peakBytes {
		peakBytes = b
	}
	snap := reg.Snapshot()
	res := soakResult{
		throughputMbps: float64(totalPkts) * float64(params.BlockSize) * 8 / dur.Seconds() / 1e6,
		p99DecodeUs:    float64(snap.Histograms[dataplane.MetricDecodeLatencyNs].P99) / 1e3,
		liveGens:       snap.Gauges[dataplane.MetricLiveGenerations],
		peakMB:         float64(peakBytes) / (1 << 20),
		endMB:          float64(sessBytes.Value()) / (1 << 20),
		evicted:        snap.Counters[dataplane.MetricGenerationsEvicted],
		tableSwaps:     snap.Counters[dataplane.MetricTableSwaps],
	}
	// Bounded-memory acceptance: the gauge must plateau at the capacity
	// (live generations) plus at most two pooled arenas per session.
	bound := (int64(maxGens) + 2*int64(sessions)) * int64(params.StateBytes())
	if peakBytes > bound {
		return res, fmt.Errorf("sessionsoak: session bytes peaked at %d, bound %d — store failed to bound memory", peakBytes, bound)
	}
	return res, nil
}

// SessionSoak is the massive-multi-tenancy experiment (an extension beyond
// the paper's single-digit session counts): one VNF carrying hundreds to
// thousands of concurrent sessions at a buffer capacity of half as many
// generations, with Poisson kill/revive churn and a continuous stream of RCU
// forwarding-table pushes. Two sweeps: recode throughput versus session
// count (does per-packet cost stay flat as tenancy grows?), and decode p99
// latency versus churn rate (does lifecycle churn perturb the data path?).
func SessionSoak(w io.Writer, o Options) error {
	counts := []int{256, 512, 1024, 2048, 3072}
	pktsPerSession := 48
	churn := 8
	if o.Quick {
		counts = []int{128, 512}
		pktsPerSession = 16
	}
	s := metrics.NewSeries(
		"Session soak: throughput vs concurrent sessions (capacity sessions/2, Poisson churn, RCU table pushes)",
		"sessions", "throughput_mbps", "live_generations", "peak_state_mb", "end_state_mb",
		"evicted", "table_swaps")
	for _, n := range counts {
		res, err := runSessionSoak(o, n, n*pktsPerSession, churn, dataplane.RoleRecoder)
		if err != nil {
			return fmt.Errorf("sessionsoak n=%d: %w", n, err)
		}
		s.Add(float64(n), map[string]float64{
			"throughput_mbps":  res.throughputMbps,
			"live_generations": float64(res.liveGens),
			"peak_state_mb":    res.peakMB,
			"end_state_mb":     res.endMB,
			"evicted":          float64(res.evicted),
			"table_swaps":      float64(res.tableSwaps),
		})
	}
	if err := s.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# expectation: throughput roughly flat in session count (per-packet cost is O(1) in tenancy);")
	fmt.Fprintln(w, "# peak_state_mb plateaus at the capacity while evictions run — memory is bounded, not leaked")

	churnRates := []int{0, 4, 16, 64}
	fixed := 512
	if o.Quick {
		churnRates = []int{0, 16}
		fixed = 128
	}
	s2 := metrics.NewSeries(
		"Session soak: decode p99 vs churn rate (kill/revive events per 1000 packets)",
		"churn_per_1000", "p99_decode_us", "throughput_mbps", "evicted")
	for _, c := range churnRates {
		res, err := runSessionSoak(o, fixed, fixed*pktsPerSession, c, dataplane.RoleDecoder)
		if err != nil {
			return fmt.Errorf("sessionsoak churn=%d: %w", c, err)
		}
		s2.Add(float64(c), map[string]float64{
			"p99_decode_us":   res.p99DecodeUs,
			"throughput_mbps": res.throughputMbps,
			"evicted":         float64(res.evicted),
		})
	}
	if err := s2.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# expectation: decode p99 degrades gently with churn (evictions and revives cost table/store")
	fmt.Fprintln(w, "# bookkeeping, not coding time)")
	return nil
}
