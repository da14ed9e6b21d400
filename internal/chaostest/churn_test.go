package chaostest

import (
	"math/rand"
	"sync"
	"sync/atomic"
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
// the bounded-state contract end to end: the live generation count never
// exceeds the buffer capacity, every retirement at the capacity is counted
// and recorded, revived sessions decode cleanly, and teardown returns every
// accounted byte.
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
	capacity := sessions / 2

	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	reg := telemetry.NewRegistry()
	clk := simclock.NewVirtual(time.Unix(0, 0))
	v := dataplane.NewVNF(n.Host("churn"),
		dataplane.WithSeed(99),
		dataplane.WithTelemetry(reg),
		dataplane.WithClock(clk),
		dataplane.WithBufferCapacity(capacity))
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
	// coding state piles up against the capacity.
	k := params.GenerationBlocks
	perInjector := sessions / injectors
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			lo := w*perInjector + 1
			for s := lo; s < lo+perInjector; s++ {
				gens := 1 + rng.Intn(3) // heavy-ish tail: 1–3 live generations
				admitted.Add(int64(gens))
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
	if gens != capacity {
		t.Fatalf("phase 1: %d live generations, want the capacity %d", gens, capacity)
	}
	if bytes < int64(gens)*stateBytes {
		t.Fatalf("phase 1: %d bytes accounted for %d generations (state is %d each)", bytes, gens, stateBytes)
	}
	// A generation retired between two of its own packets is admitted
	// again, and retired again: at least every admission past the capacity.
	evicted := reg.Snapshot().Counters[dataplane.MetricGenerationsEvicted]
	if want := uint64(admitted.Load()) - uint64(capacity); evicted < want {
		t.Fatalf("phase 1: %d retirements counted for %d generations at capacity %d, want at least %d",
			evicted, admitted.Load(), capacity, want)
	}
	rec := reg.Recorder(dataplane.FlightRecorderName, telemetry.DefaultRecorderCapacity)
	if evs := eventsOf(rec, telemetry.EventGenerationEvict); len(evs) == 0 {
		t.Fatal("no eviction events in the flight recorder")
	}

	// Phase 2 — revive: reconfigure every session and run fresh generations
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
		t.Fatalf("phase 2: revived sessions decoded %d generations, want %d", decoded, sessions)
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
