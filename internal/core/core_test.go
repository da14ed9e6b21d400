package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/topology"
)

// butterflyDCs are the butterfly's four relay sites.
var butterflyDCs = []optimize.DataCenter{
	{ID: "O1", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
	{ID: "C1", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
	{ID: "T", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
	{ID: "V2", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
}

func butterflyService(t *testing.T, redundancy int) *Service {
	t.Helper()
	g, src, dsts := topology.Butterfly()
	svc, err := NewService(Config{
		Graph:       g,
		DataCenters: butterflyDCs,
		Alpha:       0.1,
		Params:      rlnc.Params{GenerationBlocks: 4, BlockSize: 256},
		Redundancy:  redundancy,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	if err := svc.AddSession(optimize.Session{
		ID:        1,
		Source:    src,
		Receivers: dsts,
		MaxDelay:  150 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestServiceValidation(t *testing.T) {
	if _, err := NewService(Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g, _, _ := topology.Butterfly()
	if _, err := NewService(Config{Graph: g, Params: rlnc.Params{GenerationBlocks: -1, BlockSize: 1}}); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestServiceDefaultParams(t *testing.T) {
	g, _, _ := topology.Butterfly()
	svc, err := NewService(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if svc.cfg.Params.BlockSize != rlnc.DefaultBlockSize {
		t.Fatal("default params not applied")
	}
}

func TestServiceLifecycleErrors(t *testing.T) {
	svc := butterflyService(t, 0)
	if err := svc.AddSession(optimize.Session{ID: 1}); err == nil {
		t.Fatal("duplicate session accepted")
	}
	if _, err := svc.Source(2); err == nil {
		t.Fatal("source of an unknown session")
	}
	if _, err := svc.Receiver("C1"); err == nil {
		t.Fatal("receiver at a relay")
	}
	if _, err := svc.Send(2, []byte{1}, 0); err == nil {
		t.Fatal("send on an unknown session")
	}
	if err := svc.RemoveSession(2); err == nil {
		t.Fatal("unknown session removed")
	}
	if err := svc.RemoveSession(1); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Source(1); err == nil {
		t.Fatal("source of a removed session")
	}
	if _, err := svc.Send(1, []byte{1}, 0); err == nil {
		t.Fatal("send on a removed session")
	}
}

func TestServiceDeployNoSessions(t *testing.T) {
	g, _, _ := topology.Butterfly()
	svc, _ := NewService(Config{Graph: g})
	defer svc.Close()
	if err := svc.AddSession(); err != nil {
		t.Fatal(err)
	}
	if plan := svc.Plan(); plan.TotalVNFs() != 0 || len(plan.Rates) != 0 || len(svc.daemons) != 0 {
		t.Fatalf("admitting no sessions deployed %+v on %d daemons", plan, len(svc.daemons))
	}
}

func TestServiceButterflyDelivery(t *testing.T) {
	svc := butterflyService(t, 1)
	plan := svc.Plan()
	if plan == nil || plan.Rates[1] < 69 {
		t.Fatalf("plan rate = %v", plan.Rates)
	}
	data := make([]byte, 40*1024)
	rand.New(rand.NewSource(9)).Read(data)
	stats, err := svc.Send(1, data, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generations == 0 {
		t.Fatal("nothing sent")
	}
	for _, dst := range []topology.NodeID{"O2", "C2"} {
		recv, err := svc.Receiver(dst)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := recv.Data(1, stats.Generations)
		if !ok {
			t.Fatalf("%s missing generations", dst)
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("%s data mismatch", dst)
		}
	}
	if len(svc.endpoints) != 2 {
		t.Fatal("receivers wrong")
	}
}

func TestServiceSendAfterClose(t *testing.T) {
	svc := butterflyService(t, 0)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal("second close errored")
	}
}

func TestServiceCloseBeforeDeploy(t *testing.T) {
	g, src, dsts := topology.Butterfly()
	svc, err := NewService(Config{Graph: g, DataCenters: butterflyDCs})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddSession(optimize.Session{ID: 1, Source: src, Receivers: dsts, MaxDelay: 150 * time.Millisecond}); !errors.Is(err, ErrAlreadyClosed) {
		t.Fatalf("session admitted after close: %v", err)
	}
}

func TestServiceUnknownReceiver(t *testing.T) {
	svc := butterflyService(t, 0)
	if _, err := svc.Receiver("nope"); err == nil {
		t.Fatal("unknown receiver returned")
	}
}

func TestSharedReceiverNodeAcrossSessions(t *testing.T) {
	// Two sessions terminate at the SAME receiver node; the service must
	// share one receiving endpoint rather than racing two VNFs over one
	// socket (regression: packets were being stolen across sessions).
	g := topology.New()
	g.AddNode("s1", topology.Source)
	g.AddNode("s2", topology.Source)
	g.AddNode("dc", topology.DataCenter)
	g.AddNode("sink", topology.Destination)
	for _, l := range []topology.Link{
		{From: "s1", To: "dc", CapacityMbps: 100, Delay: time.Millisecond},
		{From: "s2", To: "dc", CapacityMbps: 100, Delay: time.Millisecond},
		{From: "dc", To: "sink", CapacityMbps: 100, Delay: time.Millisecond},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewService(Config{
		Graph: g,
		DataCenters: []optimize.DataCenter{
			{ID: "dc", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
		},
		Alpha:  1,
		Params: rlnc.Params{GenerationBlocks: 4, BlockSize: 128},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var sessions []optimize.Session
	for i, src := range []topology.NodeID{"s1", "s2"} {
		sessions = append(sessions, optimize.Session{
			ID:        ncproto.SessionID(i + 1),
			Source:    src,
			Receivers: []topology.NodeID{"sink"},
			MaxDelay:  100 * time.Millisecond,
			RateCap:   30, // both sessions must get a share of the 100 Mbps sink link
		})
	}
	if err := svc.AddSession(sessions...); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		id := ncproto.SessionID(i)
		data := make([]byte, 8*1024)
		rand.New(rand.NewSource(int64(i))).Read(data)
		stats, err := svc.Send(id, data, 200*time.Millisecond)
		if err != nil {
			t.Fatalf("session %d: %v", id, err)
		}
		if stats.Rounds > 1 {
			t.Fatalf("session %d needed %d resend rounds on a perfect network (packet stealing?)", id, stats.Rounds)
		}
		recv, err := svc.Receiver("sink")
		if err != nil {
			t.Fatal(err)
		}
		got, ok := recv.Data(id, stats.Generations)
		if !ok || !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("session %d data mismatch at shared receiver", id)
		}
	}
}

// TestServiceTelemetrySharedRegistry pins the deployment-wide registry: one
// snapshot after a transfer must carry both dataplane counters (from every
// VNF and endpoint) and emunet counters (from the network).
func TestServiceTelemetrySharedRegistry(t *testing.T) {
	g, src, dsts := topology.Butterfly()
	svc, err := NewService(Config{
		Graph:       g,
		DataCenters: butterflyDCs,
		Alpha:       0.1,
		Params:      rlnc.Params{GenerationBlocks: 4, BlockSize: 256},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.AddSession(optimize.Session{ID: 1, Source: src, Receivers: dsts, MaxDelay: 150 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Send(1, make([]byte, 16*1024), 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	snap := svc.Telemetry().Snapshot()
	if snap.Counters[dataplane.MetricRxPackets] == 0 || snap.Counters[dataplane.MetricTxPackets] == 0 {
		t.Fatalf("dataplane counters empty: %v", snap.Counters)
	}
	if snap.Counters[dataplane.MetricGenerationsDone] == 0 {
		t.Fatal("no generations counted at the receivers")
	}
	if snap.Counters[emunet.MetricNetTxPackets] == 0 {
		t.Fatal("network not instrumented")
	}
}

// TestSourceNodeSourcesOneSession: a second session from V1 is refused
// before the controller solves, so the plan does not move, and session 1
// keeps delivering verified bytes. The claim outlives a removal, because a
// removed session's Source stays parked on the node.
func TestSourceNodeSourcesOneSession(t *testing.T) {
	svc := butterflyService(t, 1)
	before := svc.Plan()
	second := optimize.Session{ID: 2, Source: "V1", Receivers: []topology.NodeID{"O2"}, MaxDelay: 150 * time.Millisecond}
	if err := svc.AddSession(second); err == nil {
		t.Fatal("second session from V1 admitted")
	}
	if !reflect.DeepEqual(svc.Plan(), before) {
		t.Fatalf("refused admission moved the plan: %+v -> %+v", before, svc.Plan())
	}
	data := make([]byte, 16*1024)
	rand.New(rand.NewSource(5)).Read(data)
	stats, err := svc.Send(1, data, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range []topology.NodeID{"O2", "C2"} {
		recv, err := svc.Receiver(dst)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := recv.Data(1, stats.Generations); !ok || !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("%s did not deliver session 1's bytes after the refusal", dst)
		}
	}
	if err := svc.RemoveSession(1); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddSession(second); err == nil {
		t.Fatal("session from V1 admitted while session 1's Source is parked there")
	}
}
