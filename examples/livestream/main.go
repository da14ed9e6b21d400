// Livestream: the real-time streaming use case from the paper's
// introduction (video conferencing, live video). A fixed-rate stream runs
// from one source through a coding relay to two viewers over a lossy WAN;
// generations that miss their playback deadline are skipped, so coded
// redundancy — not retransmission — protects the stream. The run compares
// NC0 (no redundancy) against NC2 (two extra coded packets per generation)
// under 20% loss.
//
//	go run ./examples/livestream
package main

import (
	"fmt"
	"log"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/rlnc"
	"ncfn/internal/transfer"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("live stream: source -> coding relay -> 2 viewers, 20% loss on both last hops")
	for _, redundancy := range []int{0, 2} {
		stats, err := streamOnce(redundancy)
		if err != nil {
			return err
		}
		fmt.Printf("\nNC%d:\n", redundancy)
		for viewer, st := range stats {
			fmt.Printf("  %-8s on-time %3d/%3d (%.0f%%), late %d, lost %d, mean latency %v\n",
				viewer, st.OnTime, st.GenerationsSent, st.DeliveryRatio*100,
				st.Late, st.Missing, st.MeanLatency.Round(time.Millisecond))
		}
	}
	fmt.Println("\ncoded redundancy recovers losses without retransmission delay — the streaming case for NC1/NC2.")
	return nil
}

func streamOnce(redundancy int) (map[string]transfer.StreamStats, error) {
	n := emunet.NewNetwork()
	defer n.Close()
	params := rlnc.Params{GenerationBlocks: 4, BlockSize: 1460}

	// WAN links: 20 Mbps, 20 ms hops, 20% loss on the viewer legs.
	n.SetLink("studio", "relay", emunet.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, QueuePackets: 512})
	for i, viewer := range []string{"viewer-1", "viewer-2"} {
		n.SetLink("relay", viewer, emunet.LinkConfig{
			RateBps:      20e6,
			Delay:        20 * time.Millisecond,
			Loss:         emunet.NewUniformLoss(0.2, int64(100+i+redundancy*10)),
			QueuePackets: 512,
		})
	}

	relay := dataplane.NewVNF(n.Host("relay"), dataplane.WithSeed(9))
	if err := relay.Configure(dataplane.SessionConfig{
		ID: 1, Params: params, Role: dataplane.RoleRecoder, Redundancy: redundancy,
	}); err != nil {
		return nil, err
	}
	relay.Table().Set(1, []dataplane.HopGroup{
		{Addrs: []string{"viewer-1"}},
		{Addrs: []string{"viewer-2"}},
	})
	relay.Start()
	defer relay.Close()

	src, err := dataplane.NewSource(n.Host("studio"), dataplane.SourceConfig{
		Session: 1, Params: params, Systematic: true, Redundancy: redundancy, Seed: 4,
	})
	if err != nil {
		return nil, err
	}
	defer src.Close()
	src.SetHops([]dataplane.HopGroup{{Addrs: []string{"relay"}}})

	watchers := make(map[string]*transfer.StreamReceiver, 2)
	for _, viewer := range []string{"viewer-1", "viewer-2"} {
		recv := dataplane.NewMultiReceiver(n.Host(viewer))
		defer recv.Close()
		if err := recv.AddSession(1, params, ""); err != nil {
			return nil, err
		}
		w := transfer.WatchReceiver(recv, 1, nil)
		defer w.Close()
		watchers[viewer] = w
	}

	// A 4 Mbps stream for two seconds with a 250 ms playback budget.
	return transfer.Stream(src, watchers, transfer.StreamConfig{
		RateMbps: 4,
		Duration: 2 * time.Second,
		Deadline: 250 * time.Millisecond,
	})
}
