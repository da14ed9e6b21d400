// Conference: the multi-party conferencing scenario the paper cites as a
// driving application (Celerity, Airlift). Three participants each source
// their own multicast session to the other two; all three sessions share
// the same two cloud data centers, whose coding VNFs encode for multiple
// sessions at once ("We allow each VNF in the system to encode data for
// multiple sessions, up to its capacity", Sec. IV-A).
//
//	go run ./examples/conference
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"ncfn/internal/core"
	"ncfn/internal/ncproto"
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
	participants := []topology.NodeID{"alice", "bob", "carol"}
	g := topology.New()
	g.AddNode("dc-east", topology.DataCenter)
	g.AddNode("dc-west", topology.DataCenter)
	for _, p := range participants {
		// Each participant is both a source and a destination; the graph
		// models those roles as separate nodes on the same machine.
		g.AddNode(p, topology.Source)
		g.AddNode(p+".recv", topology.Destination)
		for _, dc := range []topology.NodeID{"dc-east", "dc-west"} {
			if err := g.AddLink(topology.Link{From: p, To: dc, CapacityMbps: 40, Delay: 15 * time.Millisecond}); err != nil {
				return err
			}
			if err := g.AddLink(topology.Link{From: dc, To: p + ".recv", CapacityMbps: 40, Delay: 15 * time.Millisecond}); err != nil {
				return err
			}
		}
	}
	if err := g.AddLink(topology.Link{From: "dc-east", To: "dc-west", CapacityMbps: 100, Delay: 25 * time.Millisecond}); err != nil {
		return err
	}
	if err := g.AddLink(topology.Link{From: "dc-west", To: "dc-east", CapacityMbps: 100, Delay: 25 * time.Millisecond}); err != nil {
		return err
	}

	svc, err := core.NewService(core.Config{
		Graph: g,
		DataCenters: []optimize.DataCenter{
			{ID: "dc-east", BinMbps: 500, BoutMbps: 500, CodeMbps: 300},
			{ID: "dc-west", BinMbps: 500, BoutMbps: 500, CodeMbps: 300},
		},
		Alpha:      2,
		Params:     rlnc.Params{GenerationBlocks: 4, BlockSize: 1460},
		Redundancy: 1,
		Seed:       5,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	// One session per speaker, multicast to the other two participants,
	// admitted jointly: one solve shares the two sites among all three.
	sessions := make([]optimize.Session, len(participants))
	for i, speaker := range participants {
		var receivers []topology.NodeID
		for _, p := range participants {
			if p != speaker {
				receivers = append(receivers, p+".recv")
			}
		}
		sessions[i] = optimize.Session{
			ID:        ncproto.SessionID(i + 1),
			Source:    speaker,
			Receivers: receivers,
			MaxDelay:  120 * time.Millisecond,
			RateCap:   8, // each participant streams 8 Mbps
		}
	}
	if err := svc.AddSession(sessions...); err != nil {
		return err
	}
	plan := svc.Plan()
	fmt.Printf("conference deployed: %d coding VNF(s) across 2 data centers\n", plan.TotalVNFs())
	for i := range participants {
		fmt.Printf("  session %d (%s speaking): %.1f Mbps\n", i+1, participants[i], plan.Rates[ncproto.SessionID(i+1)])
	}

	// speak sends a burst on a session and checks that every listener
	// decoded exactly those bytes.
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	sent := make(map[ncproto.SessionID]int) // generations sent per session
	speak := func(id ncproto.SessionID, listeners ...topology.NodeID) error {
		stats, err := svc.Send(id, payload, 300*time.Millisecond)
		if err != nil {
			return fmt.Errorf("session %d: %w", id, err)
		}
		first := sent[id]
		sent[id] += stats.Generations
		for _, l := range listeners {
			ep, err := svc.Receiver(l)
			if err != nil {
				return err
			}
			var got []byte
			for g := first; g < sent[id]; g++ {
				d, ok := ep.GenerationData(id, ncproto.GenerationID(g))
				if !ok {
					return fmt.Errorf("session %d: %s is missing generation %d", id, l, g)
				}
				got = append(got, d...)
			}
			if !bytes.Equal(got[:len(payload)], payload) {
				return fmt.Errorf("session %d: %s decoded different bytes", id, l)
			}
		}
		fmt.Printf("  session %d delivered to %v: %d generations, %.1f Mbps\n", id, listeners, stats.Generations, stats.GoodputMbps)
		return nil
	}

	// Everyone speaks at once.
	fmt.Println("everyone speaks:")
	for _, sess := range sessions {
		if err := speak(sess.ID, sess.Receivers...); err != nil {
			return err
		}
	}

	// Carol hangs up: she stops listening to alice and bob and her own
	// session ends; the running deployment is re-planned around her.
	fmt.Println("carol hangs up:")
	if err := svc.RemoveReceiver(1, "carol.recv"); err != nil {
		return err
	}
	if err := speak(1, "bob.recv"); err != nil {
		return err
	}
	if err := svc.RemoveReceiver(2, "carol.recv"); err != nil {
		return err
	}
	if err := speak(2, "alice.recv"); err != nil {
		return err
	}
	if err := svc.RemoveSession(3); err != nil {
		return err
	}
	if err := speak(1, "bob.recv"); err != nil {
		return err
	}

	// Carol rejoins: her session comes back, then she listens again.
	fmt.Println("carol rejoins:")
	if err := svc.AddSession(sessions[2]); err != nil {
		return err
	}
	if err := speak(3, sessions[2].Receivers...); err != nil {
		return err
	}
	if err := svc.AddReceiver(1, "carol.recv"); err != nil {
		return err
	}
	if err := speak(1, sessions[0].Receivers...); err != nil {
		return err
	}
	if err := svc.AddReceiver(2, "carol.recv"); err != nil {
		return err
	}
	if err := speak(2, sessions[1].Receivers...); err != nil {
		return err
	}
	fmt.Println("\nthree coded multicast sessions shared two coding VNF sites while one participant left and came back.")
	return nil
}
