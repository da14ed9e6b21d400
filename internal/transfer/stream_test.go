package transfer

import (
	"testing"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
)

// streamEnv wires src -> relay -> receiver with optional loss, returning
// the source and a watched receiver.
func streamEnv(t *testing.T, loss float64, redundancy int) (*dataplane.Source, *StreamReceiver) {
	t.Helper()
	n := emunet.NewNetwork(emunet.AllowDefault())
	t.Cleanup(func() { n.Close() })
	params := smallParams()
	if loss > 0 {
		n.SetLink("relay", "r1", emunet.LinkConfig{Loss: emunet.NewUniformLoss(loss, 13), QueuePackets: 4096})
	}
	relay := dataplane.NewVNF(n.Host("relay"), dataplane.WithSeed(5))
	if err := relay.Configure(dataplane.SessionConfig{ID: 1, Params: params, Role: dataplane.RoleRecoder, Redundancy: redundancy}); err != nil {
		t.Fatal(err)
	}
	relay.Table().Set(1, []dataplane.HopGroup{{Addrs: []string{"r1"}}})
	relay.Start()
	t.Cleanup(func() { relay.Close() })

	src, err := dataplane.NewSource(n.Host("src"), dataplane.SourceConfig{
		Session: 1, Params: params, Systematic: true, Redundancy: redundancy, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	src.SetHops([]dataplane.HopGroup{{Addrs: []string{"relay"}}})

	w := WatchReceiver(sink(t, n.Host("r1"), params, ""), 1, nil)
	t.Cleanup(w.Close)
	return src, w
}

func TestStreamCleanDeliversOnTime(t *testing.T) {
	src, w := streamEnv(t, 0, 0)
	stats, err := Stream(src, map[string]*StreamReceiver{"r1": w}, StreamConfig{
		RateMbps: 2,
		Duration: 300 * time.Millisecond,
		Deadline: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := stats["r1"]
	if st.GenerationsSent == 0 {
		t.Fatal("nothing streamed")
	}
	if st.DeliveryRatio < 0.95 {
		t.Fatalf("clean stream delivery ratio %.2f: %+v", st.DeliveryRatio, st)
	}
	if st.MeanLatency <= 0 || st.MeanLatency > 200*time.Millisecond {
		t.Fatalf("mean latency %v", st.MeanLatency)
	}
}

func TestStreamLossHurtsNC0MoreThanNC2(t *testing.T) {
	run := func(redundancy int) float64 {
		src, w := streamEnv(t, 0.25, redundancy)
		stats, err := Stream(src, map[string]*StreamReceiver{"r1": w}, StreamConfig{
			RateMbps: 2,
			Duration: 400 * time.Millisecond,
			Deadline: 250 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats["r1"].DeliveryRatio
	}
	nc0 := run(0)
	nc2 := run(2)
	if nc2 <= nc0 {
		t.Fatalf("NC2 delivery %.2f should beat NC0 %.2f under 25%% loss", nc2, nc0)
	}
}

func TestStreamValidation(t *testing.T) {
	src, w := streamEnv(t, 0, 0)
	if _, err := Stream(src, nil, StreamConfig{RateMbps: 1, Duration: time.Second}); err == nil {
		t.Fatal("no receivers accepted")
	}
	ws := map[string]*StreamReceiver{"r1": w}
	if _, err := Stream(src, ws, StreamConfig{Duration: time.Second}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Stream(src, ws, StreamConfig{RateMbps: 1}); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestStreamMissingCounted(t *testing.T) {
	// Receiver behind a fully-dead link: everything missing.
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	params := smallParams()
	n.SetLink("src", "void-relay", emunet.LinkConfig{Loss: emunet.NewUniformLoss(1.0, 1)})
	n.Host("void-relay")
	src, err := dataplane.NewSource(n.Host("src"), dataplane.SourceConfig{
		Session: 1, Params: params, Systematic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetHops([]dataplane.HopGroup{{Addrs: []string{"void-relay"}}})
	w := WatchReceiver(sink(t, n.Host("r1"), params, ""), 1, nil)
	defer w.Close()
	stats, err := Stream(src, map[string]*StreamReceiver{"r1": w}, StreamConfig{
		RateMbps: 2, Duration: 100 * time.Millisecond, Deadline: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := stats["r1"]
	if st.Missing != st.GenerationsSent || st.OnTime != 0 {
		t.Fatalf("dead link stats: %+v", st)
	}
}

func TestWatchReceiverCloseIdempotent(t *testing.T) {
	_, w := streamEnv(t, 0, 0)
	w.Close()
	w.Close()
}
