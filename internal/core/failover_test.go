package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/controller"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
	"ncfn/internal/topology"
)

// TestButterflyDeployFile pins the file the controller renders for the
// paper's butterfly (the deployment chaostest heals). T, the merge node, is
// the only recoder. O1, C1 and V2 each receive one flow and pass on what
// they receive, so Sec. IV-A's single-flow rule makes them forwarders, and
// V2 sends each sink its 2 packets per generation. The hand-written file
// chaostest ran before it ran on a Service differed: O1 and C1 recoded, and
// V2 sent each sink everything it received (no quota). The planner is right
// by the paper; this test holds it there.
func TestButterflyDeployFile(t *testing.T) {
	svc := butterflyService(t, 0)
	hops := func(addr string) controller.DeployHopGroup {
		return controller.DeployHopGroup{Addrs: []string{addr}, PerGen: 2}
	}
	want := []controller.DeploySession{{
		ID: 1, Blocks: 4, BlockSize: 256, Field: 256,
		Roles: map[string]string{"O1": "forwarder", "C1": "forwarder", "T": "recoder", "V2": "forwarder",
			"O2": "decoder", "C2": "decoder"},
		InPerGen: map[string]int{"O1": 2, "C1": 2, "T": 4, "V2": 2},
		Tables: map[string][]controller.DeployHopGroup{
			"V1": {hops("C1"), hops("O1")},
			"O1": {hops("O2"), hops("T")},
			"C1": {hops("C2"), hops("T")},
			"T":  {hops("V2")},
			"V2": {hops("C2"), hops("O2")},
		},
	}}
	if got := svc.DeployFile().Sessions; !reflect.DeepEqual(got, want) {
		t.Fatalf("butterfly file:\ngot  %+v\nwant %+v", got, want)
	}
}

// crashRelay crashes a data center's VM and kills its VNF with it.
func crashRelay(t *testing.T, svc *Service, dc topology.NodeID) {
	t.Helper()
	d, _, inst := svc.Relay(dc)
	if err := svc.Cloud().CrashInstance(inst); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

// tickUntilFailover ticks the Service on its virtual clock until its
// supervisor logs one failover, and returns it.
func tickUntilFailover(t *testing.T, svc *Service, clk *simclock.Virtual) controller.FailoverEvent {
	t.Helper()
	for i := 0; len(svc.Supervisor().Events()) == 0; i++ {
		if i == 200 {
			t.Fatal("no failover in 200 ticks")
		}
		clk.Advance(time.Second)
		svc.Tick()
	}
	ev := svc.Supervisor().Events()[0]
	if ev.Err != nil {
		t.Fatalf("failover abandoned: %v", ev.Err)
	}
	return ev
}

// TestServiceHealsRelayCrash crashes the butterfly's recoder T in the middle
// of a transfer. The Service's supervisor relaunches it within the VM launch
// latency at a new address, every byte reaches both sinks, and the
// controller's pool follows the failover: the replacement is active in the
// dead VM's place, so when the session ends it is the replacement that idles
// and, after τ, is terminated — and the supervisor takes that for no failure.
func TestServiceHealsRelayCrash(t *testing.T) {
	g, src, dsts := topology.Butterfly()
	clk := simclock.NewVirtual(time.Unix(0, 0))
	svc, err := NewService(Config{Graph: g, DataCenters: butterflyDCs, Alpha: 0.1,
		Params: rlnc.Params{GenerationBlocks: 4, BlockSize: 512}, Seed: 3, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.AddSession(optimize.Session{ID: 1, Source: src, Receivers: dsts, MaxDelay: 150 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(cloud.DefaultLaunchDelay)
	active, idle := svc.ctrl.VNFCounts()

	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(4)).Read(data)
	type result struct {
		gens int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		st, err := svc.Send(1, data, 300*time.Millisecond)
		done <- result{st.Generations, err}
	}()
	o2, err := svc.Receiver("O2")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); o2.Generations(1) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("session 1 decoded nothing in 5 s")
		}
	}
	crashRelay(t, svc, "T")
	select {
	case <-done:
		t.Fatal("the transfer finished before T crashed; grow its payload")
	default:
	}
	ev := tickUntilFailover(t, svc, clk)
	if ev.Node != "T" || ev.RecoveredAt.Sub(ev.DetectedAt) < cloud.DefaultLaunchDelay {
		t.Fatalf("failover %+v: want T, recovered no sooner than the launch latency", ev)
	}
	if _, addr, inst := svc.Relay("T"); addr != "T#2" || inst != ev.NewInstance {
		t.Fatalf("T serves at %s on %s, want T#2 on %s", addr, inst, ev.NewInstance)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	checkDelivered(t, svc, 1, 0, res.gens, data, "O2", "C2")

	if a, i := svc.ctrl.VNFCounts(); a != active || i != idle {
		t.Fatalf("VNF counts after failover = %d active, %d idle; want %d, %d", a, i, active, idle)
	}
	if err := svc.RemoveSession(1); err != nil {
		t.Fatal(err)
	}
	clk.Advance(controller.DefaultTau)
	svc.ctrl.Tick()
	if st, err := svc.Cloud().InstanceState(ev.NewInstance); err != nil || st != cloud.StateTerminated {
		t.Fatalf("replacement %s is %v (%v) after the session ended and τ passed, want terminated", ev.NewInstance, st, err)
	}
	for i := 0; i < 60; i++ {
		clk.Advance(time.Second)
		svc.Tick()
	}
	if evs := svc.Supervisor().Events(); len(evs) != 1 {
		t.Fatalf("the supervisor healed reaped VMs: %+v", evs[1:])
	}
}

// TestDecisionDuringOutageConverges admits a session while the recoder T is
// down. The apply skips T's dead daemon, and T's redeploy reloads a
// replacement with the file that carries both sessions; then both sessions
// deliver every byte. Session 1 is capped at 40 Mbit/s, above what the two
// direct links give a sink, so both sessions route through T.
func TestDecisionDuringOutageConverges(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	svc, err := NewService(Config{Graph: twoSourceGraph(t), DataCenters: butterflyDCs, Alpha: 0.1,
		Params: rlnc.Params{GenerationBlocks: 4, BlockSize: 512}, Seed: 11, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sinks := []topology.NodeID{"O2", "C2"}
	if err := svc.AddSession(optimize.Session{ID: 1, Source: "V1", Receivers: sinks, MaxDelay: 150 * time.Millisecond, RateCap: 40}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(cloud.DefaultLaunchDelay)
	crashRelay(t, svc, "T")
	if err := svc.AddSession(optimize.Session{ID: 2, Source: "W1", Receivers: sinks, MaxDelay: 150 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	tickUntilFailover(t, svc, clk)

	d, _, _ := svc.Relay("T")
	table := d.VNF().Table().Snapshot()
	if table[1] == nil || table[2] == nil {
		t.Fatalf("T's replacement routes %v, want sessions 1 and 2", table)
	}
	rng := rand.New(rand.NewSource(6))
	for _, id := range []ncproto.SessionID{1, 2} {
		data := make([]byte, 64*1024)
		rng.Read(data)
		st, err := svc.Send(id, data, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("session %d: %v", id, err)
		}
		checkDelivered(t, svc, id, 0, st.Generations, data, "O2", "C2")
	}
}
