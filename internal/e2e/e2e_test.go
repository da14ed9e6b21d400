// Package e2e runs the paper's butterfly as a real multi-process
// deployment: six ncd daemons on loopback (four recoding relays, two
// decoding sinks), configured through the real ncctl binary, fed by an
// in-process source over real UDP sockets. It is the closest the test
// suite gets to the system of Sec. III-A actually running — separate
// address spaces, kernel sockets, and each daemon's admin HTTP endpoint as
// its one control surface.
//
// `make test-e2e` runs it alone; it also rides along in `go test ./...`.
package e2e

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/procnet"
	"ncfn/internal/rlnc"
)

// TestE2EButterflyProcesses deploys the butterfly as six ncd processes,
// configures them via ncctl, streams generations from an in-process source,
// asserts both sinks decode everything, and stops every daemon with ncctl.
func TestE2EButterflyProcesses(t *testing.T) {
	params := rlnc.Params{GenerationBlocks: 4, BlockSize: 1024}
	ngen := 16
	if testing.Short() {
		params.BlockSize = 512
		ngen = 6
	}
	const redundancy = 2
	q := params.GenerationBlocks/2 + redundancy

	dir := t.TempDir()
	bins, err := procnet.Build(dir)
	if err != nil {
		t.Fatal(err)
	}

	daemons := map[string]*procnet.Daemon{}
	for _, name := range procnet.ButterflyNodes {
		d, err := procnet.StartDaemon(bins.Ncd, name, dir, 16)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
		daemons[name] = d
	}

	// The in-process source is node V1: its registry needs the two branch
	// heads; the daemons learn every peer (including V1) from ncctl.
	registry := emunet.NewRegistry()
	for _, branch := range []string{"O1", "C1"} {
		addr, err := net.ResolveUDPAddr("udp", daemons[branch].Data)
		if err != nil {
			t.Fatal(err)
		}
		registry.Register(branch, addr)
	}
	srcConn, err := emunet.ListenUDP("V1", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}

	deploy, err := procnet.Butterfly(daemons, srcConn.UDPAddr().String(), procnet.Session{
		ID: 1, Blocks: params.GenerationBlocks, BlockSize: params.BlockSize, Redundancy: redundancy,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "deploy.json")
	if err := procnet.WriteDeploy(cfgPath, deploy); err != nil {
		t.Fatal(err)
	}
	if out, err := procnet.RunCtl(bins.Ncctl, cfgPath, "start"); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}

	src, err := dataplane.NewSource(srcConn, dataplane.SourceConfig{
		Session: 1, Params: params, Redundancy: redundancy,
		Systematic: true, Seed: 7, TxBatch: 16,
		// Paced well under loopback capacity: six daemons share the
		// machine, and UDP drops beyond the redundancy budget would force
		// the resend path below on every run.
		RateMbps: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetHops([]dataplane.HopGroup{
		{Addrs: []string{"O1"}, PerGen: q},
		{Addrs: []string{"C1"}, PerGen: q},
	})

	data := make([]byte, ngen*params.GenerationBytes())
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	if _, sent, err := src.SendData(data); err != nil || sent != ngen {
		t.Fatalf("send: %d generations, %v", sent, err)
	}

	// Poll the sinks' admin endpoints for decode completion. UDP is lossy
	// in principle even on loopback, so a stall triggers a redundant
	// resend of every generation rather than a flaky failure.
	decoded := func(name string) int {
		snap, err := procnet.Stats(daemons[name].Admin)
		if err != nil {
			t.Logf("stats %s (%s): %v", name, daemons[name].Admin, err)
			return -1
		}
		return int(snap.Counters[dataplane.MetricGenerationsDone])
	}
	genBytes := params.GenerationBytes()
	deadline := time.Now().Add(60 * time.Second)
	lastProgress := time.Now()
	best := 0
	for {
		o2, c2 := decoded("O2"), decoded("C2")
		if o2 >= ngen && c2 >= ngen {
			break
		}
		if o2+c2 > best {
			best = o2 + c2
			lastProgress = time.Now()
		}
		if time.Now().After(deadline) {
			for _, name := range procnet.ButterflyNodes {
				t.Logf("--- %s log ---\n%s", name, daemons[name].Output())
			}
			t.Fatalf("sinks decoded O2=%d C2=%d of %d generations", o2, c2, ngen)
		}
		if time.Since(lastProgress) > time.Second {
			for g := 0; g < ngen; g++ {
				chunk := data[g*genBytes : (g+1)*genBytes]
				if err := src.ResendGeneration(ncproto.GenerationID(g), chunk, 2); err != nil {
					t.Fatal(err)
				}
			}
			lastProgress = time.Now()
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The relays really recoded (not just forwarded): the merge node T
	// received both branches and emitted coded packets downstream.
	snap, err := procnet.Stats(daemons["T"].Admin)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters[dataplane.MetricTxPackets] == 0 {
		t.Fatal("merge relay T emitted no packets")
	}
	// The batched wire path exported its telemetry over the real admin
	// endpoint. The syscall/packet ratio is load-dependent (idle-wakeup
	// EAGAIN probes count as syscalls), so the quantitative ≤1/8 claim is
	// the udpsweep experiment's job under saturation — here we pin that the
	// counters flow end to end and log the observed ratio.
	if emunet.HasBatchIO() {
		pkts := snap.Counters[emunet.MetricUDPTxPackets] + snap.Counters[emunet.MetricUDPRxPackets]
		sys := snap.Counters[emunet.MetricUDPSyscalls]
		if sys == 0 || pkts == 0 {
			t.Fatalf("relay T telemetry missing: syscalls=%d pkts=%d", sys, pkts)
		}
		t.Logf("relay T: %d UDP syscalls for %d packets (%.2f/pkt)", sys, pkts, float64(sys)/float64(pkts))
	}

	if out, err := procnet.RunCtl(bins.Ncctl, cfgPath, "stop", "-tau", "1ms"); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, name := range procnet.ButterflyNodes {
		if err := daemons[name].WaitExit(10 * time.Second); err != nil {
			t.Fatalf("%s after ncctl stop: %v", name, err)
		}
	}
}
