// Quickstart: the smallest end-to-end use of the library.
//
// It builds a three-node overlay (source → relay data center → receiver),
// lets the optimizer place a coding function at the relay, deploys the data
// plane on the in-process emulated network, and reliably delivers a message
// despite 20% packet loss on the second hop.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"ncfn/internal/core"
	"ncfn/internal/emunet"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Describe the overlay: a source, one candidate data center, and a
	// receiver, with link capacities (Mbps) and delays.
	g := topology.New()
	g.AddNode("sender", topology.Source)
	g.AddNode("cloud-dc", topology.DataCenter)
	g.AddNode("viewer", topology.Destination)
	for _, l := range []topology.Link{
		{From: "sender", To: "cloud-dc", CapacityMbps: 50, Delay: 10 * time.Millisecond},
		{From: "cloud-dc", To: "viewer", CapacityMbps: 50, Delay: 10 * time.Millisecond},
	} {
		if err := g.AddLink(l); err != nil {
			return err
		}
	}

	// 2. Build the service: coding parameters, redundancy for loss
	// protection, and the data center's per-VNF resources.
	svc, err := core.NewService(core.Config{
		Graph: g,
		DataCenters: []optimize.DataCenter{
			{ID: "cloud-dc", BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500},
		},
		Alpha:      1,
		Params:     rlnc.Params{GenerationBlocks: 4, BlockSize: 1460},
		Redundancy: 2, // NC2: two extra coded packets per generation
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	// 3. Add a session: the controller solves the placement/routing
	// program and the service spins up the coding VNF, source, and
	// receiver.
	if err := svc.AddSession(optimize.Session{
		ID:        1,
		Source:    "sender",
		Receivers: []topology.NodeID{"viewer"},
		MaxDelay:  100 * time.Millisecond,
	}); err != nil {
		return err
	}
	fmt.Printf("deployed: rate %.1f Mbps, %d coding VNF(s)\n",
		svc.Plan().Rates[1], svc.Plan().TotalVNFs())

	// 4. Make the second hop lossy, then send data reliably anyway.
	svc.Network().SetLink("cloud-dc", "viewer", emunet.LinkConfig{
		RateBps: 50e6,
		Delay:   10 * time.Millisecond,
		Loss:    emunet.NewUniformLoss(0.2, 42),
	})
	message := bytes.Repeat([]byte("network coding as a virtual network function! "), 2000)
	stats, err := svc.Send(1, message, 200*time.Millisecond)
	if err != nil {
		return err
	}

	// 5. Verify the receiver got every byte.
	recv, err := svc.Receiver("viewer")
	if err != nil {
		return err
	}
	got, ok := recv.Data(1, stats.Generations)
	if !ok || !bytes.Equal(got[:len(message)], message) {
		return fmt.Errorf("delivery mismatch")
	}
	fmt.Printf("delivered %d bytes in %d generations (%d resend rounds) at %.1f Mbps over a 20%%-lossy hop\n",
		len(message), stats.Generations, stats.Rounds, stats.GoodputMbps)
	return nil
}
