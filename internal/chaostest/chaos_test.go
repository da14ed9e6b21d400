package chaostest

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"ncfn/internal/buffer"
	"ncfn/internal/cloud"
	"ncfn/internal/controller"
	"ncfn/internal/leakcheck"
)

// decodeTimeout bounds how long a test waits (in real time) for the
// in-process data plane to finish decoding; it does not affect any measured
// simulated latency.
const decodeTimeout = 30 * time.Second

func TestGenerateScheduleDeterministic(t *testing.T) {
	nodes := RelayNodes()
	a := GenerateSchedule(7, nodes, 5, 90*time.Second)
	b := GenerateSchedule(7, nodes, 5, 90*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	other := GenerateSchedule(8, nodes, 5, 90*time.Second)
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds produced identical schedules")
	}
	for i, e := range a {
		if e.At <= 0 || e.Node == "" {
			t.Fatalf("event %d malformed: %v", i, e)
		}
		if i > 0 && e.At <= a[i-1].At {
			t.Fatalf("events not strictly ordered: %v then %v", a[i-1], e)
		}
		if e.Kind == KindPartition && e.Dur <= 0 {
			t.Fatalf("partition without duration: %v", e)
		}
	}
}

// TestButterflyBaseline proves the harness itself: with no faults, every
// generation decodes at both sinks byte-for-byte, no packet buffer is
// double-freed, and teardown leaks no goroutines.
func TestButterflyBaseline(t *testing.T) {
	leakcheck.Check(t)
	buffer.SetAccounting(true)
	defer buffer.SetAccounting(false)

	c, err := NewButterfly(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sent, err := c.SendGenerations(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitAllDecoded(decodeTimeout); err != nil {
		t.Fatal(err)
	}
	for _, sink := range sinkNodes {
		got, ok := c.SinkData(sink)
		if !ok {
			t.Fatalf("sink %s missing generations", sink)
		}
		if !bytes.Equal(got, sent) {
			t.Fatalf("sink %s decoded %d bytes that do not match the sent payload", sink, len(got))
		}
	}
	if len(c.Sup.Events()) != 0 {
		t.Fatal("failover events without faults")
	}
	if n := buffer.DoublePuts(); n != 0 {
		t.Fatalf("packet pool saw %d double puts", n)
	}
}

// TestButterflyRecoderFailover is the headline scenario: the sole merge
// recoder T crashes mid-session. The supervisor must detect the crash,
// relaunch within the paper's 35 s VM launch latency (simulated), re-push
// the forwarding tables that referenced the dead instance, and the session
// must still decode every generation at both sinks.
func TestButterflyRecoderFailover(t *testing.T) {
	leakcheck.Check(t)
	c, err := NewButterfly(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var sent []byte
	pre, err := c.SendGenerations(3)
	if err != nil {
		t.Fatal(err)
	}
	sent = append(sent, pre...)
	if err := c.WaitAllDecoded(decodeTimeout); err != nil {
		t.Fatalf("pre-fault traffic: %v", err)
	}

	oldAddr := c.Addr("T")
	if err := c.CrashVNF("T"); err != nil {
		t.Fatal(err)
	}
	// Traffic keeps flowing into the outage: these generations lose their
	// T-path packets and cannot fully decode until recovery.
	mid, err := c.SendGenerations(3)
	if err != nil {
		t.Fatal(err)
	}
	sent = append(sent, mid...)

	ticks := c.RunTicksUntilRecovered(1, 120)
	if ticks < 0 {
		t.Fatal("supervisor never recovered T")
	}
	events := c.Sup.Events()
	if len(events) != 1 {
		t.Fatalf("failover events = %d, want 1", len(events))
	}
	ev := events[0]
	if ev.Err != nil {
		t.Fatalf("failover failed: %v", ev.Err)
	}
	if string(ev.Node) != "T" {
		t.Fatalf("failover node = %s, want T", ev.Node)
	}
	// Recovery bound: detection to tables-repushed must fit in the simulated
	// 35 s relaunch latency plus a few supervision ticks of slack.
	rec := ev.RecoveredAt.Sub(ev.DetectedAt)
	if rec < cloud.DefaultLaunchDelay {
		t.Fatalf("recovery in %v — faster than the VM launch latency, the simulation is broken", rec)
	}
	if limit := cloud.DefaultLaunchDelay + 5*Tick; rec > limit {
		t.Fatalf("recovery took %v of simulated time, want ≤ %v", rec, limit)
	}
	if newAddr := c.Addr("T"); newAddr == oldAddr {
		t.Fatal("replacement VNF reused the dead instance's address")
	}

	// Post-recovery traffic plus resends repair the outage generations.
	post, err := c.SendGenerations(2)
	if err != nil {
		t.Fatal(err)
	}
	sent = append(sent, post...)
	if err := c.WaitAllDecoded(decodeTimeout); err != nil {
		t.Fatalf("post-recovery decode: %v", err)
	}
	for _, sink := range sinkNodes {
		got, ok := c.SinkData(sink)
		if !ok || !bytes.Equal(got, sent) {
			t.Fatalf("sink %s stream corrupt after failover", sink)
		}
	}
}

// TestButterflyAnySingleCrash asserts the ISSUE's invariant: killing any
// single coding VNF must never prevent eventual full-rank decoding at every
// sink once the supervisor heals the deployment.
func TestButterflyAnySingleCrash(t *testing.T) {
	for _, victim := range RelayNodes() {
		t.Run(victim, func(t *testing.T) {
			leakcheck.Check(t)
			c, err := NewButterfly(3)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var sent []byte
			pre, err := c.SendGenerations(2)
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, pre...)

			if err := c.CrashVNF(victim); err != nil {
				t.Fatal(err)
			}
			mid, err := c.SendGenerations(2)
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, mid...)

			if c.RunTicksUntilRecovered(1, 120) < 0 {
				t.Fatalf("supervisor never recovered %s", victim)
			}
			if ev := c.Sup.Events()[0]; ev.Err != nil || string(ev.Node) != victim {
				t.Fatalf("unexpected failover event %+v", ev)
			}
			if err := c.WaitAllDecoded(decodeTimeout); err != nil {
				t.Fatalf("decode after crashing %s: %v", victim, err)
			}
			for _, sink := range sinkNodes {
				got, ok := c.SinkData(sink)
				if !ok || !bytes.Equal(got, sent) {
					t.Fatalf("sink %s stream corrupt after crashing %s", sink, victim)
				}
			}
		})
	}
}

// runSeededChaos runs a full seeded scenario: generate a schedule, drive the
// timeline tick by tick injecting faults and fresh traffic, heal, wait for
// total recovery and decode, and return the supervisor's event log.
func runSeededChaos(t *testing.T, seed int64) ([]controller.FailoverEvent, []byte) {
	t.Helper()
	c, err := NewButterfly(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sched := GenerateSchedule(seed, RelayNodes(), 3, 90*time.Second)
	crashes := 0
	for _, e := range sched {
		if e.Kind == KindCrash {
			crashes++
		}
	}

	var sent []byte
	initial, err := c.SendGenerations(2)
	if err != nil {
		t.Fatal(err)
	}
	sent = append(sent, initial...)

	horizon := sched[len(sched)-1].At + 60*time.Second
	var virtual time.Duration
	next := 0
	heals := make(map[time.Duration]string)
	for virtual < horizon {
		virtual += Tick
		c.RunTicks(1)
		for next < len(sched) && sched[next].At <= virtual {
			e := sched[next]
			next++
			switch e.Kind {
			case KindCrash:
				if err := c.CrashVNF(e.Node); err != nil {
					t.Fatalf("apply %v: %v", e, err)
				}
			case KindPartition:
				c.PartitionNode(e.Node)
				heals[virtual+e.Dur] = e.Node
			}
		}
		if n, ok := heals[virtual]; ok {
			c.HealNode(n)
			delete(heals, virtual)
		}
		// Keep traffic flowing through the chaos: one generation every 30
		// virtual seconds.
		if virtual%(30*time.Second) == 0 {
			g, err := c.SendGenerations(1)
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, g...)
		}
	}
	c.Net.HealAll()
	if crashes > 0 && c.RunTicksUntilRecovered(crashes, 200) < 0 {
		t.Fatalf("only %d/%d failovers completed", len(c.Sup.Events()), crashes)
	}
	if err := c.WaitAllDecoded(decodeTimeout); err != nil {
		t.Fatal(err)
	}
	for _, sink := range sinkNodes {
		got, ok := c.SinkData(sink)
		if !ok || !bytes.Equal(got, sent) {
			t.Fatalf("sink %s stream corrupt after seeded chaos", sink)
		}
	}
	events := c.Sup.Events()
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("failover failed mid-schedule: %+v", ev)
		}
	}
	return events, sent
}

// TestSeededChaosReplay runs the same seeded chaos scenario twice and
// requires identical supervisor event logs — fault injection, detection,
// relaunch, and recovery all replay deterministically under the virtual
// clock.
func TestSeededChaosReplay(t *testing.T) {
	leakcheck.Check(t)
	ev1, sent1 := runSeededChaos(t, 5)
	ev2, sent2 := runSeededChaos(t, 5)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("same seed, different failover logs:\n%+v\n%+v", ev1, ev2)
	}
	if !bytes.Equal(sent1, sent2) {
		t.Fatal("same seed, different payload streams")
	}
	if len(ev1) == 0 {
		t.Fatal("seed 5's schedule injected no crashes — pick a seed that does")
	}
}
