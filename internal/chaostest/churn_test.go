package chaostest

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"ncfn/internal/buffer"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/leakcheck"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
)

// churnParams keeps per-generation state small so thousands of sessions fit
// a -race run comfortably.
func churnParams() rlnc.Params {
	return rlnc.Params{GenerationBlocks: 4, BlockSize: 64}
}

// churnWire pre-encodes n coded packets for one (session, generation).
func churnWire(t testing.TB, params rlnc.Params, sess ncproto.SessionID, gen ncproto.GenerationID, seed int64, n int) [][]byte {
	t.Helper()
	data := make([]byte, params.GenerationBytes())
	rand.New(rand.NewSource(seed)).Read(data)
	enc, err := rlnc.NewEncoder(params, data, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		cb := enc.Coded()
		out[i] = (&ncproto.Packet{
			Session: sess, Generation: gen, Coeffs: cb.Coeffs, Payload: cb.Payload,
		}).Encode(nil)
	}
	return out
}

// TestSessionChurnSoak is the deterministic multi-tenancy soak: thousands of
// decoder sessions cycle through create → traffic → evict → revive on one
// VNF under a virtual clock, with concurrent injectors (disjoint session
// ranges) and a concurrent stream of RCU table pushes. The harness asserts
// the bounded-state contract end to end: the store's generation count stays
// at its cap (modulo in-flight injectors), TTL sweeps reclaim idle state,
// late packets for evicted generations are dropped and counted — never
// resurrected — revived sessions decode cleanly, table pushes record zero
// pauses, and teardown returns every accounted byte.
func TestSessionChurnSoak(t *testing.T) {
	defer leakcheck.Check(t)
	buffer.SetAccounting(true)
	defer buffer.SetAccounting(false)

	sessions := 2048
	if testing.Short() {
		sessions = 256
	}
	const injectors = 8
	params := churnParams()
	stateBytes := int64(params.StateBytes())
	ttl := 30 * time.Second
	maxGens := sessions / 2

	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	reg := telemetry.NewRegistry()
	clk := simclock.NewVirtual(time.Unix(0, 0))
	v := dataplane.NewVNF(n.Host("churn"),
		dataplane.WithSeed(99),
		dataplane.WithTelemetry(reg),
		dataplane.WithClock(clk),
		dataplane.WithSessionStore(dataplane.SessionStoreConfig{
			MaxGenerations: maxGens,
			TTLNanos:       ttl.Nanoseconds(),
		}))
	defer v.Close()

	params0 := params
	configure := func(id ncproto.SessionID) {
		if err := v.Configure(dataplane.SessionConfig{ID: id, Params: params0, Role: dataplane.RoleDecoder}); err != nil {
			t.Error(err)
		}
	}
	for s := 1; s <= sessions; s++ {
		configure(ncproto.SessionID(s))
	}

	// Concurrent RCU table pushes for the whole soak: forwarding state churns
	// while packets flow, and (asserted below) not one shard ever pauses.
	stopPush := make(chan struct{})
	var pushWG sync.WaitGroup
	pushWG.Add(1)
	go func() {
		defer pushWG.Done()
		rng := rand.New(rand.NewSource(424242))
		for i := 0; ; i++ {
			select {
			case <-stopPush:
				return
			default:
			}
			entries := map[ncproto.SessionID][]dataplane.HopGroup{}
			for j := 0; j < 16; j++ {
				id := ncproto.SessionID(rng.Intn(sessions) + 1)
				entries[id] = []dataplane.HopGroup{{Addrs: []string{"sink"}}}
			}
			v.UpdateTable(entries)
		}
	}()

	// Phase 1 — create + traffic: each injector owns a disjoint session range
	// and leaves every generation one packet short of decoding, so live
	// coding state piles up against the store's cap.
	k := params.GenerationBlocks
	perInjector := sessions / injectors
	var wg sync.WaitGroup
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			lo := w*perInjector + 1
			for s := lo; s < lo+perInjector; s++ {
				gens := 1 + rng.Intn(3) // heavy-ish tail: 1–3 live generations
				for g := 0; g < gens; g++ {
					wires := churnWire(t, params, ncproto.SessionID(s), ncproto.GenerationID(g), int64(s*8+g), k-1)
					for _, pkt := range wires {
						v.InjectPacket(pkt)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	gens, bytes := v.SessionStoreStats()
	if gens > maxGens+injectors {
		t.Fatalf("phase 1: %d live generations, want <= cap %d (+%d in-flight slack)", gens, maxGens, injectors)
	}
	if bytes < int64(gens)*stateBytes {
		t.Fatalf("phase 1: %d bytes accounted for %d generations (state is %d each)", bytes, gens, stateBytes)
	}
	snap := reg.Snapshot()
	if snap.Counters[dataplane.MetricGenerationsEvicted] == 0 {
		t.Fatal("phase 1: cap pressure evicted nothing")
	}

	// Phase 2 — idle expiry: advance virtual time past the TTL and sweep.
	// Every remaining live generation is stale and must go.
	clk.Advance(2 * ttl)
	v.SweepSessions()
	if gens, _ := v.SessionStoreStats(); gens != 0 {
		t.Fatalf("phase 2: %d generations survived a full TTL sweep", gens)
	}
	// Check the recorder now, before later phases overwrite the ring.
	rec := reg.Recorder(dataplane.FlightRecorderName, telemetry.DefaultRecorderCapacity)
	if evs := eventsOf(rec, telemetry.EventGenerationEvict); len(evs) == 0 {
		t.Fatal("no eviction events in the flight recorder")
	}

	// Phase 3 — late packets: traffic for evicted generations must be
	// counted and dropped, never resurrect state.
	dropsBefore := reg.Snapshot().Counters[dataplane.MetricEvictedDrops]
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w*perInjector + 1
			for s := lo; s < lo+perInjector; s += 7 {
				pkt := churnWire(t, params, ncproto.SessionID(s), 0, int64(s*8), 1)[0]
				v.InjectPacket(pkt)
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Snapshot().Counters[dataplane.MetricEvictedDrops]; got == dropsBefore {
		t.Fatal("phase 3: late packets for evicted generations were not counted")
	}
	if gens, _ := v.SessionStoreStats(); gens != 0 {
		t.Fatalf("phase 3: late packets resurrected %d generations", gens)
	}

	// Phase 4 — revive: reconfigure every session and run fresh generations
	// to completion; recycled arenas must decode correctly at scale.
	decodedBefore := reg.Snapshot().Counters[dataplane.MetricGenerationsDone]
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w*perInjector + 1
			for s := lo; s < lo+perInjector; s++ {
				id := ncproto.SessionID(s)
				configure(id) // revive: wholesale state replacement
				for _, pkt := range churnWire(t, params, id, 9, int64(s*8+7), k+1) {
					v.InjectPacket(pkt)
				}
			}
		}(w)
	}
	wg.Wait()
	decoded := reg.Snapshot().Counters[dataplane.MetricGenerationsDone] - decodedBefore
	if decoded != uint64(sessions) {
		t.Fatalf("phase 4: revived sessions decoded %d generations, want %d", decoded, sessions)
	}

	// Teardown — every accounted byte comes back.
	close(stopPush)
	pushWG.Wait()
	for s := 1; s <= sessions; s++ {
		v.EndSession(ncproto.SessionID(s))
	}
	if gens, bytes := v.SessionStoreStats(); gens != 0 || bytes != 0 {
		t.Fatalf("teardown: %d generations / %d bytes still accounted, want 0 / 0", gens, bytes)
	}
	final := reg.Snapshot()
	if got := final.Gauges[dataplane.MetricSessionBytes]; got != 0 {
		t.Fatalf("teardown: session-bytes gauge = %d, want 0", got)
	}
	if got := final.Gauges[dataplane.MetricLiveGenerations]; got != 0 {
		t.Fatalf("teardown: live-generations gauge = %d, want 0", got)
	}

	// The soak's table-push stream actually ran: the swap counter advanced.
	if final.Counters[dataplane.MetricTableSwaps] == 0 {
		t.Fatal("table-push goroutine never pushed")
	}
}
