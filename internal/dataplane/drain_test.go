package dataplane

import (
	"errors"
	"testing"
	"time"

	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/telemetry"
)

// TestDrainLifecycle walks the drain state machine on an injection-driven
// recoder: Drain flips the gauge and refuses new session settings and new
// generations, while packets for generations admitted before the drain keep
// flowing; an idle pipeline then quiesces and latches.
func TestDrainLifecycle(t *testing.T) {
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	reg := telemetry.NewRegistry()
	v := NewVNF(n.Host("dl-relay"), WithSeed(7), WithTelemetry(reg))
	defer v.Close()
	params := smallParams()
	if err := v.Configure(SessionConfig{ID: 1, Params: params, Role: RoleRecoder, Redundancy: 1}); err != nil {
		t.Fatal(err)
	}
	v.Table().Set(1, []HopGroup{{Addrs: []string{"dl-sink"}}})

	if v.DrainState() != DrainStateRunning || v.draining.Load() {
		t.Fatalf("fresh VNF not running: state %d", v.DrainState())
	}
	if v.WaitQuiesced(time.Millisecond) {
		t.Fatal("WaitQuiesced succeeded on a VNF that is not draining")
	}

	gen0 := codedWire(t, params, 1, 0, 11, params.GenerationBlocks+1)
	v.InjectPacket(gen0[0]) // creates generation-0 recoder state

	if !v.Drain() {
		t.Fatal("first Drain did not transition")
	}
	if v.Drain() {
		t.Fatal("second Drain transitioned again")
	}
	if v.DrainState() != DrainStateDraining {
		t.Fatalf("drain state %d, want draining", v.DrainState())
	}
	if got := reg.Gauge(MetricDrainState, 1).Value(); got != DrainStateDraining {
		t.Fatalf("drain gauge %d, want %d", got, DrainStateDraining)
	}
	if len(eventsOf(v.tel.rec, telemetry.EventDrainStart)) != 1 {
		t.Fatal("no drain_start flight event")
	}

	// New settings are refused while draining.
	err := v.Configure(SessionConfig{ID: 2, Params: params, Role: RoleDecoder})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("Configure while draining: %v, want ErrDraining", err)
	}

	// Packets for the in-flight generation are still admitted...
	for _, w := range gen0[1:] {
		v.InjectPacket(w)
	}
	if got := reg.Counter(MetricDrainRefused, 1).Value(); got != 0 {
		t.Fatalf("in-flight generation refused %d packets", got)
	}
	st, _ := v.SessionStatsFor(1)
	if st.PacketsIn != uint64(len(gen0)) {
		t.Fatalf("in-flight generation stalled: %d of %d packets in", st.PacketsIn, len(gen0))
	}

	// ...but a packet that would create new generation state is refused.
	dropsBefore := v.Stats().PacketsDropped
	gen1 := codedWire(t, params, 1, 1, 12, 1)
	v.InjectPacket(gen1[0])
	if got := reg.Counter(MetricDrainRefused, 1).Value(); got != 1 {
		t.Fatalf("drain refused %d packets, want 1", got)
	}
	if got := v.Stats().PacketsDropped; got != dropsBefore+1 {
		t.Fatalf("refused packet not in drop accounting: %d, want %d", got, dropsBefore+1)
	}
	st, _ = v.SessionStatsFor(1)
	if st.GenerationsActive != 1 {
		t.Fatalf("refused packet created state: %d active generations", st.GenerationsActive)
	}

	// The injection-driven pipeline holds no queued work: it quiesces.
	if !v.WaitQuiesced(time.Second) {
		t.Fatal("idle draining VNF did not quiesce")
	}
	if v.DrainState() != DrainStateQuiesced {
		t.Fatalf("drain state %d, want quiesced", v.DrainState())
	}
	if got := reg.Gauge(MetricDrainState, 1).Value(); got != DrainStateQuiesced {
		t.Fatalf("drain gauge %d, want %d", got, DrainStateQuiesced)
	}
	ev := eventsOf(v.tel.rec, telemetry.EventDrainQuiesced)
	if len(ev) != 1 {
		t.Fatalf("%d drain_quiesced flight events, want 1", len(ev))
	}
	if ev[0].Value < 0 {
		t.Fatalf("drain_quiesced duration %d < 0", ev[0].Value)
	}
	// Quiescence latches.
	if !v.Quiesced() || len(eventsOf(v.tel.rec, telemetry.EventDrainQuiesced)) != 1 {
		t.Fatal("quiescence did not latch")
	}
}

// TestShutdownFlushesQueuedPackets is the clean-exit regression test over
// real UDP sockets: packets accepted into a shard queue (the worker is
// stalled under its pause lock to force a deterministic backlog) must all
// reach the next hop across the shutdown sequence a draining daemon runs —
// Drain, WaitQuiesced, Close. A bare Close here would close the socket
// under the queued sends and lose them; so would a quiescence sweep that
// missed the run a worker had dequeued but not yet processed.
func TestShutdownFlushesQueuedPackets(t *testing.T) {
	const pkts = 128
	registry := emunet.NewRegistry()
	srcConn, err := emunet.ListenUDP("dr-src", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	defer srcConn.Close()
	relayConn, err := emunet.ListenUDP("dr-relay", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	sinkConn, err := emunet.ListenUDP("dr-sink", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	defer sinkConn.Close()

	params := smallParams()
	relay := NewVNF(relayConn, WithWorkers(1), WithTxCoalesce(8))
	if err := relay.Configure(SessionConfig{ID: 1, Params: params, Role: RoleForwarder}); err != nil {
		t.Fatal(err)
	}
	relay.Table().Set(1, []HopGroup{{Addrs: []string{"dr-sink"}}})
	relay.Start()

	// Stall the worker so every packet piles up in the shard queue (and,
	// once processing resumes, in the coalescer rings).
	// Failures while the lock is held are recorded and reported after the
	// single unlock below, so every path releases pauseMu exactly once.
	sh := relay.shardFor(1)
	sh.pauseMu.Lock()
	var sendErr error
	for gen := 0; gen < pkts && sendErr == nil; gen++ {
		w := codedWire(t, params, 1, ncproto.GenerationID(gen), int64(100+gen), 1)
		sendErr = srcConn.Send("dr-relay", w[0])
	}
	accepted := sendErr == nil &&
		waitFor(t, 10*time.Second, func() bool { return relay.Stats().PacketsIn >= pkts })

	type shutRes struct {
		quiesced bool
		err      error
	}
	done := make(chan shutRes, 1)
	go func() {
		relay.Drain()
		q := relay.WaitQuiesced(10 * time.Second)
		done <- shutRes{q, relay.Close()}
	}()
	time.Sleep(10 * time.Millisecond) // let the drain begin against the held lock
	sh.pauseMu.Unlock()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if !accepted {
		t.Fatalf("relay accepted %d of %d packets", relay.Stats().PacketsIn, pkts)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("shutdown: %v", res.err)
	}
	if !res.quiesced {
		t.Fatal("shutdown did not quiesce before its deadline")
	}

	// Recv has no deadline; a watchdog close bounds the count loop if
	// packets were lost.
	watchdog := time.AfterFunc(10*time.Second, func() { sinkConn.Close() })
	defer watchdog.Stop()
	got := 0
	for got < pkts {
		if _, _, err := sinkConn.Recv(); err != nil {
			break
		}
		got++
	}
	if got != pkts {
		t.Fatalf("sink received %d of %d packets across shutdown", got, pkts)
	}
	if fw := relay.Stats().Forwarded; fw != pkts {
		t.Fatalf("relay forwarded %d of %d", fw, pkts)
	}
}
