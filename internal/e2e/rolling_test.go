package e2e

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"ncfn/internal/controller"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/procnet"
	"ncfn/internal/rlnc"
)

// TestRollingRestartButterfly is the zero-downtime headline tier (`make
// test-rolling`): the six-process butterfly carries a multicast while `ncctl
// rolling-restart` walks every relay VNF through drain → exec-handoff
// restart → health probe → reload. Only the relays restart (the sinks keep
// their decode state, as in a real fleet upgrade); the data and admin
// addresses are pinned across the handoff, so the source and the forwarding
// tables stay valid. Afterwards both sinks must decode every
// generation sent before, during, and after the walk — zero dropped
// sessions, zero decode failures — with the source's redundancy/resend path
// papering over the packets each relay had in flight when it drained.
func TestRollingRestartButterfly(t *testing.T) {
	params := rlnc.Params{GenerationBlocks: 4, BlockSize: 1024}
	ngen := 12
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
		Systematic: true, Seed: 11, TxBatch: 16,
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

	genBytes := params.GenerationBytes()
	data := make([]byte, ngen*genBytes)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}

	// Phase 1 — traffic before the walk: the first half of the generations.
	half := ngen / 2
	if _, sent, err := src.SendData(data[:half*genBytes]); err != nil || sent != half {
		t.Fatalf("send phase 1: %d generations, %v", sent, err)
	}

	// Phase 2 — the walk: restart every relay, one at a time, while the
	// sinks keep their decode state. The command drains each relay, waits
	// for the exec-handoff replacement to come back healthy on the pinned
	// addresses, then reloads the deploy file into it. Upstream tables name
	// the relay by its unchanged address, so nothing else is pushed.
	out, err := procnet.RunCtl(bins.Ncctl, cfgPath, "rolling-restart",
		"-nodes", "O1,C1,T,V2", "-drain-deadline", "5s", "-wait", "30s")
	if err != nil {
		for _, name := range procnet.ButterflyNodes {
			t.Logf("--- %s log ---\n%s", name, daemons[name].Output())
		}
		t.Fatalf("rolling-restart: %v\n%s", err, out)
	}
	t.Logf("rolling-restart:\n%s", out)

	// Every relay must have survived the handoff: same process (the harness
	// reaper never fired), same addresses, healthy lifecycle.
	for _, name := range []string{"O1", "C1", "T", "V2"} {
		if err := (controller.AdminClient{}).WaitHealthy(daemons[name].Admin, time.Now()); err != nil {
			t.Fatalf("%s after walk: %v", name, err)
		}
	}

	// Phase 3 — traffic after the walk rides the reconfigured relays.
	if _, sent, err := src.SendData(data[half*genBytes:]); err != nil || sent != ngen-half {
		t.Fatalf("send phase 3: %d generations, %v", sent, err)
	}

	// Both sinks decode all generations — the ones from before the walk,
	// the ones that straddled restarts, and the ones after. Stalled
	// generations (in flight through a relay when it drained, or landed on
	// a still-blank replacement) are re-sent, exactly like loss recovery.
	decoded := func(name string) int {
		snap, err := procnet.Stats(daemons[name].Admin)
		if err != nil {
			t.Logf("stats %s (%s): %v", name, daemons[name].Admin, err)
			return -1
		}
		return int(snap.Counters[dataplane.MetricGenerationsDone])
	}
	deadline := time.Now().Add(90 * time.Second)
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
			t.Fatalf("sinks decoded O2=%d C2=%d of %d generations after rolling restart", o2, c2, ngen)
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

	if out, err := procnet.RunCtl(bins.Ncctl, cfgPath, "stop", "-tau", "1ms"); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}
