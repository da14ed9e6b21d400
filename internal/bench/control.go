package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/controller"
	"ncfn/internal/core"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/flowsim"
	"ncfn/internal/gf"
	"ncfn/internal/metrics"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
)

// relayedRTT measures the Table II relayed-path round trip: the time from
// when the first generation is sent until its acknowledgement returns from
// each receiver, with relays either coding or plain-forwarding. The ACK
// travels back over the direct return path (Sec. V-B2: "we allow each
// receiver to send an acknowledge directly back to the source").
func relayedRTT(o Options, coding bool, trials int) (mins, maxs, avgs map[string]float64, err error) {
	g, src, dsts := scaledButterfly(1) // full-rate links: delay dominates
	svc, err := core.NewService(core.Config{
		Graph:           g,
		DataCenters:     butterflyDCs(1),
		Alpha:           0.1,
		Params:          rlnc.DefaultParams(),
		ForceForwarding: !coding,
		Seed:            o.Seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	defer svc.Close()
	if err := svc.AddSession(optimize.Session{
		ID: 1, Source: src, Receivers: dsts, MaxDelay: 150 * time.Millisecond,
	}); err != nil {
		return nil, nil, nil, err
	}
	// Return paths carry the ACK over the direct Internet path back to
	// the source (one-way half of the direct ping RTTs).
	net := svc.Network()
	net.SetLink("O2", string(src), emunet.LinkConfig{Delay: 45434 * time.Microsecond})
	net.SetLink("C2", string(src), emunet.LinkConfig{Delay: 38515 * time.Microsecond})

	source, err := svc.Source(1)
	if err != nil {
		return nil, nil, nil, err
	}
	mins = map[string]float64{}
	maxs = map[string]float64{}
	avgs = map[string]float64{}
	counts := map[string]int{}
	genBytes := source.Params().GenerationBytes()
	payload := make([]byte, genBytes)
	for trial := 0; trial < trials; trial++ {
		start := time.Now()
		if _, err := source.SendGeneration(payload, false); err != nil {
			return nil, nil, nil, err
		}
		seen := map[string]bool{}
		deadline := time.After(5 * time.Second)
		for len(seen) < len(dsts) {
			select {
			case ack := <-source.Acks():
				if seen[ack.From] {
					continue
				}
				seen[ack.From] = true
				rtt := ms(time.Since(start))
				if counts[ack.From] == 0 || rtt < mins[ack.From] {
					mins[ack.From] = rtt
				}
				if rtt > maxs[ack.From] {
					maxs[ack.From] = rtt
				}
				avgs[ack.From] += rtt
				counts[ack.From]++
			case <-deadline:
				return nil, nil, nil, fmt.Errorf("bench: relayed RTT trial %d timed out (got %d acks)", trial, len(seen))
			}
		}
	}
	for dst, c := range counts {
		avgs[dst] /= float64(c)
	}
	return mins, maxs, avgs, nil
}

// Table3 reproduces Table III: the time to update a 10-entry forwarding
// table as a function of the fraction of entries changed. The controller
// pushes one NC_FORWARD_TAB message per changed entry over a control
// channel with realistic propagation delay; the daemon decodes it, applies
// it (one RCU table swap, where the paper's daemon reloaded a table file on
// SIGUSR1) and acknowledges.
func Table3(w io.Writer, o Options) error {
	percents := []int{20, 40, 60, 80, 100}
	if o.Quick {
		percents = []int{20, 100}
	}
	const tableEntries = 10
	// Controller→daemon propagation: the paper's controller sat in Hong
	// Kong with VNFs in Oregon (~15 ms one way within our scaled model).
	const ctrlDelay = 15 * time.Millisecond

	s := metrics.NewSeries("Table III: forwarding table update time vs update percentage",
		"update_pct", "avg_ms")
	for _, pct := range percents {
		changed := tableEntries * pct / 100
		elapsed, err := measureTableUpdate(changed, ctrlDelay)
		if err != nil {
			return fmt.Errorf("table3 %d%%: %w", pct, err)
		}
		s.Add(float64(pct), map[string]float64{"avg_ms": ms(elapsed)})
	}
	if err := s.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: 78.44 ms at 20% rising to 310.61 ms at 100% (10-entry table)")
	return nil
}

// measureTableUpdate times pushing `changed` single-entry updates over the
// control channel and applying each on the daemon.
func measureTableUpdate(changed int, delay time.Duration) (time.Duration, error) {
	n := emunet.NewNetwork()
	defer n.Close()
	n.SetDuplexLink("controller", "daemon", emunet.LinkConfig{Delay: delay})
	ctrlConn := n.Host("controller")
	daemonConn := n.Host("daemon")

	d := controller.NewDaemon(n.Host("daemon-vnf"), nil)
	defer d.Close()

	// Daemon side: receive each control message, apply it, acknowledge —
	// what ncd does for NC_FORWARD_TAB.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < changed; i++ {
			pkt, _, err := daemonConn.Recv()
			if err != nil {
				done <- err
				return
			}
			var msg controller.Message
			if err := json.Unmarshal(pkt, &msg); err != nil {
				done <- err
				return
			}
			if err := d.Apply(&msg); err != nil {
				done <- err
				return
			}
			if err := daemonConn.Send("controller", []byte{0x01}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	start := time.Now()
	for i := 0; i < changed; i++ {
		msg := &controller.Message{
			Signal: controller.NCForwardTab,
			Table: map[ncproto.SessionID][]dataplane.HopGroup{
				ncproto.SessionID(i + 1): {{Addrs: []string{fmt.Sprintf("next-%d", i)}}},
			},
		}
		raw, err := json.Marshal(msg)
		if err != nil {
			return 0, err
		}
		if err := ctrlConn.Send("daemon", raw); err != nil {
			return 0, err
		}
		// Wait for the per-entry acknowledgement before the next push.
		if _, _, err := ctrlConn.Recv(); err != nil {
			return 0, err
		}
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// Launch reproduces the Sec. V-C5 overhead comparison: launching a new VM
// instance versus starting a coding function on a running VM versus a
// forwarding-table update.
func Launch(w io.Writer, o Options) error {
	clk := simclock.NewVirtual(epoch)
	cl := cloud.New(clk, o.Seed, cloud.PaperRegions()...)
	inst, err := cl.LaunchInstance("oregon")
	if err != nil {
		return err
	}
	ready, err := cl.ReadyAt(inst.ID)
	if err != nil {
		return err
	}
	vmLaunch := ready.Sub(clk.Now())

	// Starting a coding function on a running VM: model constant from the
	// paper plus the real in-process initialization cost.
	n := emunet.NewNetwork(emunet.AllowDefault())
	defer n.Close()
	start := time.Now()
	v := dataplane.NewVNF(n.Host("vnf"))
	if err := v.Configure(dataplane.SessionConfig{ID: 1, Params: rlnc.DefaultParams(), Role: dataplane.RoleRecoder}); err != nil {
		return err
	}
	v.Start()
	initCost := time.Since(start)
	v.Close()
	vnfStart := cloud.DefaultVNFStartDelay + initCost

	tabUpdate, err := measureTableUpdate(10, 15*time.Millisecond)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "# Launch/update overhead (Sec. V-C5)")
	fmt.Fprintln(w, "operation\ttime")
	fmt.Fprintf(w, "launch_vm\t%.2fs\n", vmLaunch.Seconds())
	fmt.Fprintf(w, "start_coding_function\t%.2fms\n", ms(vnfStart))
	fmt.Fprintf(w, "update_10_entry_table\t%.2fms\n", ms(tabUpdate))
	fmt.Fprintf(w, "# paper: 35 s, 376.21 ms, 310.61 ms — launching a VM is ~100x slower than starting a function\n")
	return nil
}

// AblationFieldSize compares GF(2^8) against GF(2): the mean number of
// coded packets a receiver needs to decode a 16-block generation. Small
// fields suffer more linear dependency (Sec. III-B's justification for
// GF(2^8)).
func AblationFieldSize(w io.Writer, o Options) error {
	trials := 200
	if o.Quick {
		trials = 30
	}
	const k = 16
	s := metrics.NewSeries("Ablation: packets needed to decode a 16-block generation by field",
		"field_bits", "avg_packets", "overhead_pct")
	for _, field := range []gf.Field{gf.GF2, gf.GF256} {
		total := 0
		for trial := 0; trial < trials; trial++ {
			p := rlnc.Params{GenerationBlocks: k, BlockSize: 8, Field: field}
			data := make([]byte, p.GenerationBytes())
			rand.New(rand.NewSource(o.Seed + int64(trial))).Read(data)
			enc, err := rlnc.NewEncoder(p, data, o.Seed+int64(trial))
			if err != nil {
				return err
			}
			dec, err := rlnc.NewDecoder(p)
			if err != nil {
				return err
			}
			n := 0
			for !dec.Complete() {
				if _, err := dec.Add(enc.Coded()); err != nil {
					return err
				}
				n++
			}
			total += n
		}
		avg := float64(total) / float64(trials)
		bits := 8.0
		if field == gf.GF2 {
			bits = 1
		}
		s.Add(bits, map[string]float64{
			"avg_packets":  avg,
			"overhead_pct": (avg - k) / k * 100,
		})
	}
	if err := s.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# expectation: GF(2) needs ~1.6 extra packets; GF(2^8) overhead is negligible")
	return nil
}

// AblationTauReuse compares the τ-delayed VNF shutdown against immediate
// shutdown: total VM launches during a churn scenario. Reuse within τ
// avoids the ~35 s relaunch penalty.
func AblationTauReuse(w io.Writer, o Options) error {
	run := func(tau time.Duration) (int, float64, error) {
		d, err := flowsim.NewDeployment(flowsim.ScenarioConfig{Seed: o.Seed, Tau: tau})
		if err != nil {
			return 0, 0, err
		}
		// Churn: sessions join, all leave at minute 10, and rejoin at
		// minute 20 — inside a 10-minute τ (idle VNFs reused) but past an
		// immediate shutdown (VMs relaunched).
		var events []flowsim.Event
		for _, s := range d.Sessions[:3] {
			s := s
			events = append(events, flowsim.Event{At: 0, Name: "join", Do: func(c *controller.Controller) error {
				return c.AddSession(s)
			}})
			events = append(events, flowsim.Event{At: 10 * time.Minute, Name: "leave", Do: func(c *controller.Controller) error {
				return c.RemoveSession(s.ID)
			}})
			s2 := s
			events = append(events, flowsim.Event{At: 20 * time.Minute, Name: "rejoin", Do: func(c *controller.Controller) error {
				return c.AddSession(s2)
			}})
		}
		if _, err := flowsim.Run(d.Controller, d.Clock, events, flowsim.RunConfig{
			Duration: 30 * time.Minute,
			Interval: 5 * time.Minute,
		}); err != nil {
			return 0, 0, err
		}
		launches := 0
		for _, region := range d.Regions {
			launches += d.Cloud.Launches(region)
		}
		return launches, d.Cloud.AccruedVMHours(), nil
	}
	withTau, hoursTau, err := run(10 * time.Minute)
	if err != nil {
		return err
	}
	withoutTau, hoursNoTau, err := run(time.Millisecond) // effectively immediate shutdown
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Ablation: tau-delayed shutdown vs immediate shutdown (30-minute churn)")
	fmt.Fprintln(w, "policy\tvm_launches\tvm_hours")
	fmt.Fprintf(w, "tau_10min\t%d\t%.2f\n", withTau, hoursTau)
	fmt.Fprintf(w, "tau_0\t%d\t%.2f\n", withoutTau, hoursNoTau)
	if withoutTau < withTau {
		fmt.Fprintln(w, "# WARNING: immediate shutdown launched fewer VMs than tau reuse this run")
	}
	fmt.Fprintln(w, "# tau reuse trades a little idle VM time for avoided 35 s relaunches")
	return nil
}

// AblationPipelined compares the pipelined recoder (emit on every arrival)
// against a store-and-recode relay that waits for the whole generation
// before emitting, measuring time-to-decode at the receiver when source
// packets trickle in. Pipelining overlaps relay transmission with source
// transmission (Sec. III-B2).
func AblationPipelined(w io.Writer, o Options) error {
	params := rlnc.Params{GenerationBlocks: 4, BlockSize: rlnc.DefaultBlockSize}
	spacing := 20 * time.Millisecond
	trials := 5
	if o.Quick {
		trials = 2
	}
	run := func(pipelined bool) (time.Duration, error) {
		var total time.Duration
		for trial := 0; trial < trials; trial++ {
			d, err := timeToDecode(params, spacing, pipelined, o.Seed+int64(trial))
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total / time.Duration(trials), nil
	}
	pipe, err := run(true)
	if err != nil {
		return err
	}
	batch, err := run(false)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Ablation: pipelined recoding vs store-and-recode (time to decode one generation,")
	fmt.Fprintf(w, "# source packets spaced %v apart over a rate-limited relay link)\n", spacing)
	fmt.Fprintln(w, "mode\ttime_to_decode_ms")
	fmt.Fprintf(w, "pipelined\t%.2f\n", ms(pipe))
	fmt.Fprintf(w, "store_and_recode\t%.2f\n", ms(batch))
	if batch < pipe {
		fmt.Fprintln(w, "# WARNING: batching beat pipelining this run")
	}
	return nil
}

// timeToDecode measures one generation's source-to-decode latency through
// a relay that either recodes packet-by-packet (the system's pipelined VNF)
// or buffers the full generation before emitting.
func timeToDecode(params rlnc.Params, spacing time.Duration, pipelined bool, seed int64) (time.Duration, error) {
	n := emunet.NewNetwork()
	defer n.Close()
	// Rate-limit the relay's outgoing link so that batch emission pays
	// serialization after the wait: 4 x 1460 B at 2 Mbps ≈ 23 ms.
	n.SetLink("src", "relay", emunet.LinkConfig{})
	n.SetLink("relay", "dst", emunet.LinkConfig{RateBps: 2e6, QueuePackets: 64})

	dst := dataplane.NewMultiReceiver(n.Host("dst"))
	defer dst.Close()
	if err := dst.AddSession(1, params, ""); err != nil {
		return 0, err
	}

	if pipelined {
		relay := dataplane.NewVNF(n.Host("relay"), dataplane.WithSeed(seed))
		if err := relay.Configure(dataplane.SessionConfig{ID: 1, Params: params, Role: dataplane.RoleRecoder}); err != nil {
			return 0, err
		}
		relay.Table().Set(1, []dataplane.HopGroup{{Addrs: []string{"dst"}}})
		relay.Start()
		defer relay.Close()
	} else {
		// Store-and-recode relay: buffer all k packets, then emit k
		// recoded packets at once.
		relayConn := n.Host("relay")
		go func() {
			rec, err := rlnc.NewRecoder(params, seed)
			if err != nil {
				return
			}
			for got := 0; got < params.GenerationBlocks; got++ {
				pkt, _, err := relayConn.Recv()
				if err != nil {
					return
				}
				p, err := ncproto.Decode(pkt, params.GenerationBlocks)
				if err != nil {
					continue
				}
				if err := rec.Add(rlnc.CodedBlock{Coeffs: p.Coeffs, Payload: p.Payload}); err != nil {
					continue
				}
			}
			for i := 0; i < params.GenerationBlocks+1; i++ {
				cb, ok := rec.Recode()
				if !ok {
					return
				}
				wire := (&ncproto.Packet{Session: 1, Coeffs: cb.Coeffs, Payload: cb.Payload}).Encode(nil)
				if err := relayConn.Send("dst", wire); err != nil {
					return
				}
			}
		}()
	}

	srcConn := n.Host("src")
	enc, err := rlnc.NewEncoder(params, make([]byte, params.GenerationBytes()), seed)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < params.GenerationBlocks; i++ {
		cb, ok := enc.Systematic()
		if !ok {
			cb = enc.Coded()
		}
		wire := (&ncproto.Packet{Session: 1, Coeffs: cb.Coeffs, Payload: cb.Payload}).Encode(nil)
		if err := srcConn.Send("relay", wire); err != nil {
			return 0, err
		}
		if i < params.GenerationBlocks-1 {
			time.Sleep(spacing)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for dst.Generations(1) == 0 {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("bench: generation never decoded (pipelined=%v)", pipelined)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), nil
}

// Soak is an extension beyond the paper's evaluation: the controller under
// a stochastic workload — Poisson session arrivals with exponential hold
// times — rather than the scripted churn of Fig. 10. It validates that the
// scaling algorithms stay stable under sustained random load.
func Soak(w io.Writer, o Options) error {
	duration := 6 * time.Hour
	if o.Quick {
		duration = 90 * time.Minute
	}
	samples, peak, err := flowsim.Soak(
		flowsim.ScenarioConfig{Seed: o.Seed},
		flowsim.TraceConfig{
			ArrivalsPerHour: 10,
			MeanHold:        25 * time.Minute,
			Duration:        duration,
			Seed:            o.Seed + 1,
		},
		10*time.Minute,
	)
	if err != nil {
		return err
	}
	if err := flowsim.Series("Soak: Poisson churn (10 sessions/h, 25 min mean hold)", samples).WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "# peak concurrent sessions: %d; VNFs must track demand up and down without leaking\n", peak)
	return nil
}
