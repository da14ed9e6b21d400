// Filetransfer: reliable multicast file delivery over REAL UDP sockets on
// the loopback interface — the same data-plane code the emulated
// experiments use, bound to kernel sockets instead.
//
// Topology: source → relay VNF → two receivers, each on its own UDP port.
// The file is split into generations, coded, recoded at the relay, decoded
// at both receivers, acknowledged per generation, and verified by SHA-256.
//
//	go run ./examples/filetransfer            # 2 MiB of generated data
//	go run ./examples/filetransfer -size 8388608
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/rlnc"
	"ncfn/internal/transfer"
)

func main() {
	size := flag.Int("size", 2<<20, "bytes to transfer")
	flag.Parse()
	if err := run(*size); err != nil {
		log.Fatal(err)
	}
}

func run(size int) error {
	params := rlnc.DefaultParams()
	registry := emunet.NewRegistry()

	// Open one real UDP socket per node, all on loopback.
	srcConn, err := emunet.ListenUDP("src", "127.0.0.1:0", registry)
	if err != nil {
		return err
	}
	relayConn, err := emunet.ListenUDP("relay", "127.0.0.1:0", registry)
	if err != nil {
		return err
	}
	recv1Conn, err := emunet.ListenUDP("recv1", "127.0.0.1:0", registry)
	if err != nil {
		return err
	}
	recv2Conn, err := emunet.ListenUDP("recv2", "127.0.0.1:0", registry)
	if err != nil {
		return err
	}
	fmt.Printf("UDP endpoints: src %v, relay %v, recv1 %v, recv2 %v\n",
		srcConn.UDPAddr(), relayConn.UDPAddr(), recv1Conn.UDPAddr(), recv2Conn.UDPAddr())

	// Relay: a recoding VNF with one extra coded packet per generation.
	relay := dataplane.NewVNF(relayConn, dataplane.WithSeed(3))
	if err := relay.Configure(dataplane.SessionConfig{
		ID: 1, Params: params, Role: dataplane.RoleRecoder, Redundancy: 1,
	}); err != nil {
		return err
	}
	relay.Table().Set(1, []dataplane.HopGroup{
		{Addrs: []string{"recv1"}},
		{Addrs: []string{"recv2"}},
	})
	relay.Start()
	defer relay.Close()

	src, err := dataplane.NewSource(srcConn, dataplane.SourceConfig{
		Session: 1, Params: params, Systematic: true, Redundancy: 1, Seed: 1,
	})
	if err != nil {
		return err
	}
	defer src.Close()
	src.SetHops([]dataplane.HopGroup{{Addrs: []string{"relay"}}})

	recv1 := dataplane.NewMultiReceiver(recv1Conn)
	defer recv1.Close()
	recv2 := dataplane.NewMultiReceiver(recv2Conn)
	defer recv2.Close()
	for _, r := range []*dataplane.MultiReceiver{recv1, recv2} {
		if err := r.AddSession(1, params, "src"); err != nil {
			return err
		}
	}

	// Generate and send the file.
	data := make([]byte, size)
	rand.New(rand.NewSource(99)).Read(data)
	sum := sha256.Sum256(data)
	fmt.Printf("sending %d bytes (sha256 %x...) to 2 receivers via the relay VNF\n", size, sum[:8])

	start := time.Now()
	stats, err := transfer.Multicast(src, data, transfer.MulticastConfig{
		Receivers:  []string{"recv1", "recv2"},
		AckTimeout: 300 * time.Millisecond,
		MaxRounds:  60,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	// Verify both receivers byte for byte.
	for i, r := range []*dataplane.MultiReceiver{recv1, recv2} {
		got, ok := r.Data(1, stats.Generations)
		if !ok {
			return fmt.Errorf("receiver %d is missing generations", i+1)
		}
		gotSum := sha256.Sum256(got[:size])
		if !bytes.Equal(gotSum[:], sum[:]) {
			return fmt.Errorf("receiver %d checksum mismatch", i+1)
		}
	}
	fmt.Printf("delivered and verified at both receivers in %v (%.1f Mbps, %d generations, %d resend rounds)\n",
		elapsed.Round(time.Millisecond), stats.GoodputMbps, stats.Generations, stats.Rounds)
	return nil
}
