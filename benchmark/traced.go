package main

import (
	"sync"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/gf"
	"ncfn/internal/procnet"
)

// layerResult is what a traced run produced.
type layerResult struct {
	metrics map[string]metric
	delay   phaseStats
	tput    throughput
}

// queueSamplePeriod is how often a traced run samples the shard-queue
// gauges: in-process snapshots are cheap, a daemon's costs an HTTP fetch.
const (
	queueSamplePeriod      = 100 * time.Millisecond
	queueSamplePeriodProcs = 250 * time.Millisecond
)

// tracedRun runs the delay and throughput phases with span recording on and
// telemetry snapshots at the phase boundaries, takes the isolated layer
// timings, and derives every per-layer metric. In the throughput phase span
// recording alternates slice by slice, which measures its own overhead.
func tracedRun(cfg *runConfig, s *session, pids []int, delayDur, tputDur time.Duration) (*layerResult, error) {
	w := cfg.w
	tr := newTracer()
	s.dr.tr = tr
	s.dr.traceOn.Store(true)
	defer func() { s.dr.tr = nil }()

	// snapshot records every node's telemetry at a phase boundary and
	// returns it with the time one node's snapshot took to fetch.
	snapshot := func(phase string) (nodeStats, time.Duration, error) {
		start := time.Now()
		nodes, err := s.dep.snapshots()
		if err != nil {
			return nil, 0, err
		}
		for name, snap := range nodes {
			snap.Events = nil
			nodes[name] = snap
		}
		tr.snapshot(phase, s.dr.now(), nodes)
		return nodes, time.Since(start) / time.Duration(len(nodes)), nil
	}

	if _, _, err := snapshot("delay-start"); err != nil {
		return nil, err
	}
	delay, err := s.dr.run(1, delayDur, 0)
	if err != nil {
		return nil, err
	}
	// The span medians come from the delay phase, where one generation is
	// in flight and the four children add up to latency_p50_ms.
	spanUs := make(map[string]float64, len(childSpans))
	for _, name := range childSpans {
		spanUs[name] = median(tr.durUs[name])
	}
	before, fetch, err := snapshot("throughput-start")
	if err != nil {
		return nil, err
	}
	stopSampler := sampleQueues(s.dep)
	var tput throughput
	err = tput.measure(s, pids, tputDur, true)
	queuePeak := stopSampler()
	if err != nil {
		return nil, err
	}
	cpu := tput.cpuMs
	after, _, err := snapshot("throughput-end")
	if err != nil {
		return nil, err
	}
	live := s.dep.liveGenerations(after)
	if err := tr.write(cfg.outDir, w.name); err != nil {
		return nil, err
	}

	// The deployment stays up (the caller closes it), but it is idle: the
	// isolated timings below have the cores to themselves.
	lt, err := measureLayers(w, cfg.seed, cfg.warm, cfg.micro)
	if err != nil {
		return nil, err
	}

	win := after.since(before)
	q, k := float64(w.edgeQuota()), float64(w.params.GenerationBlocks)
	resendPkts := float64(tput.resends) * 2 * resendExtra
	srcPkts := float64(tput.attempted)*2*q + resendPkts
	srcCoded := float64(tput.attempted)*(2*q-k) + resendPkts
	rxEdge := win.counter(dataplane.MetricRxPackets, "O1", "C1", "V2")
	rxMerge := win.counter(dataplane.MetricRxPackets, "T")
	rxSink := win.counter(dataplane.MetricRxPackets, sinkNames[0], sinkNames[1])
	txRelay := win.counter(dataplane.MetricTxPackets, relayNames...)
	rxAll := win.counter(dataplane.MetricRxPackets)
	acks := 2 * float64(tput.completed)

	// The outside-in budget: isolated cost per packet times the packets
	// that crossed the layer, against the CPU time actually spent. A
	// layer's self time excludes the layers it calls (dataplane ⊃ rlnc ⊃
	// gf, dataplane ⊃ ncproto); whatever the isolated costs do not explain
	// — scheduler wake-ups, cache misses under contention, kernel, GC,
	// process boundaries — is unattributed.
	nsPerByte := lt.addMulPerKiB / 1024
	gfNs := nsPerByte * (lt.encodeWork*srcCoded + lt.addWork*(rxEdge+rxMerge) + lt.recodeWork*txRelay + lt.decodeWork*rxSink)
	rlncNs := lt.encode*srcCoded + lt.recoderAdd*(rxEdge+rxMerge) + lt.recodeInto*txRelay + lt.decode*rxSink
	wireNs := lt.wireDecode*(rxEdge+rxMerge+rxSink) + lt.wireEncode*(srcPkts+txRelay)
	planeNs := lt.relayEdge*rxEdge + lt.relayMerge*rxMerge + lt.sink*rxSink + lt.source*srcPkts
	hop := lt.inprocHop
	if w.procs {
		hop = lt.udpHop
	}
	netNs := hop * (srcPkts + txRelay + acks)
	cpuNs := cpu * 1e6
	gfShare := ratio(gfNs, cpuNs)
	rlncShare := ratio(positive(rlncNs-gfNs), cpuNs)
	planeShare := ratio(positive(planeNs-rlncNs-wireNs), cpuNs)
	wireShare := ratio(wireNs, cpuNs)
	netShare := ratio(netNs, cpuNs)

	// Only a daemon's snapshot is a stats fetch (an HTTP round trip).
	var statsFetch time.Duration
	if w.procs {
		statsFetch = fetch
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	wide := 0.0
	if gf.WideKernelSelected() {
		wide = 1
	}
	udpPkts := win.counter(emunet.MetricUDPTxPackets) + win.counter(emunet.MetricUDPRxPackets)
	perGen := func(d time.Duration) float64 {
		return ratio(float64(d.Microseconds()), float64(tput.completed))
	}
	m := map[string]metric{
		"gf.addmul_ns_per_kib":       {lt.addMulPerKiB, "ns/KiB"},
		"gf.combine_ns_per_kib":      {lt.combinePerKiB, "ns/KiB"},
		"gf.xorwords_ns_per_kib":     {lt.xorWordsPerKiB, "ns/KiB"},
		"gf.wide_kernel_selected":    {wide, "bool"},
		"rlnc.gf2_decode_ns_per_pkt": {lt.gf2DecodePerPkt, "ns/pkt"},
		"rlnc.encode_ns_per_pkt":     {lt.encode, "ns/pkt"},
		"rlnc.recode_ns_per_pkt":     {lt.recoderAdd + lt.recodeInto, "ns/pkt"},
		"rlnc.decode_ns_per_pkt":     {lt.decode, "ns/pkt"},
		"rlnc.decode_allocs_per_gen": {lt.decodeAllocsPerGen, "count"},
		"rlnc.dependent_share":       {ratio(win.counter(dataplane.MetricDependentGF256), rxAll), "ratio"},

		"ncproto.encode_ns_per_pkt": {lt.wireEncode, "ns/pkt"},
		"ncproto.decode_ns_per_pkt": {lt.wireDecode, "ns/pkt"},

		"dataplane.relay_ns_per_pkt":       {lt.relayEdge, "ns/pkt"},
		"dataplane.relay_merge_ns_per_pkt": {lt.relayMerge, "ns/pkt"},
		"dataplane.relay_cold_ns_per_pkt":  {lt.relayCold, "ns/pkt"},
		"dataplane.relay_allocs_per_pkt":   {lt.relayAllocs, "count"},
		"dataplane.forward_ns_per_pkt":     {lt.forward, "ns/pkt"},
		"dataplane.sink_ns_per_pkt":        {lt.sink, "ns/pkt"},
		"dataplane.source_ns_per_pkt":      {lt.source, "ns/pkt"},
		"dataplane.table_read_ns":          {lt.tableRead, "ns"},
		"dataplane.table_push_us":          {lt.tablePushUs, "us"},
		"dataplane.drop_share":             {ratio(win.counter(dataplane.MetricDroppedPackets), rxAll), "ratio"},
		"dataplane.batch_p50":              {win.quantile(dataplane.MetricBatchPackets, 0.5), "pkt"},
		"dataplane.shard_queue_peak":       {queuePeak, "pkt"},
		"dataplane.decode_latency_p50_us":  {win.quantile(dataplane.MetricDecodeLatencyNs, 0.5) / 1e3, "us"},
		"dataplane.live_generations":       {live, "count"},
		"dataplane.session_mb":             {after.gauge(dataplane.MetricSessionBytes) / 1e6, "MB"},
		"dataplane.evicted_generations":    {win.counter(dataplane.MetricGenerationsEvicted), "count"},

		"emunet.inproc_ns_per_pkt":    {lt.inprocHop, "ns/pkt"},
		"emunet.udp_ns_per_pkt":       {lt.udpHop, "ns/pkt"},
		"emunet.udp_syscalls_per_pkt": {ratio(win.counter(emunet.MetricUDPSyscalls), udpPkts), "1/pkt"},
		"emunet.udp_rx_dropped":       {win.counter(emunet.MetricUDPRxDropped), "count"},
		"emunet.udp_batch_p50":        {win.quantile(emunet.MetricUDPBatchSize, 0.5), "pkt"},

		"reliability.resend_share":  {ratio(float64(tput.resends), float64(tput.attempted)), "ratio"},
		"reliability.wire_overhead": {ratio(srcPkts*float64(w.wireLen()), float64(tput.bytes)), "ratio"},

		"control.daemon_ready_ms": {ms(s.dep.daemonReady), "ms"},
		"control.table_push_ms":   {ms(s.dep.ctlStart), "ms"},
		"control.stats_fetch_ms":  {ms(statsFetch), "ms"},
		"control.plan_solve_ms":   {lt.planSolveMs, "ms"},

		"span.source_send_us": {spanUs[spanSourceSend], "us"},
		"span.transit_us":     {spanUs[spanTransit], "us"},
		"span.sink_skew_us":   {spanUs[spanSinkSkew], "us"},
		"span.ack_return_us":  {spanUs[spanAckReturn], "us"},
		"span.window_wait_us": {perGen(tput.windowWait), "us"},

		"budget.gf_share":             {gfShare, "ratio"},
		"budget.rlnc_self_share":      {rlncShare, "ratio"},
		"budget.dataplane_self_share": {planeShare, "ratio"},
		"budget.ncproto_share":        {wireShare, "ratio"},
		"budget.emunet_share":         {netShare, "ratio"},
		"budget.unattributed_share":   {1 - gfShare - rlncShare - planeShare - wireShare - netShare, "ratio"},

		"harness.latency_p95_ms": {percentile(delay.latencyMs, 95), "ms"},
		"harness.cores_busy":     {ratio(cpu, float64(tput.wall.Milliseconds())), "cores"},
		"trace.overhead_share":   {1 - ratio(tput.tracedMbps, tput.mbps), "ratio"},
	}
	return &layerResult{metrics: m, delay: delay, tput: tput}, nil
}

func positive(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// liveGenerations counts generations with live coding state across the
// deployment: from SessionStatsFor on the VNFs the harness owns, and from
// the dataplane_live_generations gauge on daemons (which reads zero unless
// the daemon runs a session store).
func (d *deployment) liveGenerations(snap nodeStats) float64 {
	total := 0
	count := func(v *dataplane.VNF) {
		for i := 0; i < d.w.sessions; i++ {
			if st, ok := v.SessionStatsFor(sessionID(i)); ok {
				total += st.GenerationsActive
			}
		}
	}
	for _, v := range d.relays {
		count(v)
	}
	for _, s := range d.sinks {
		count(s.vnf)
	}
	for name := range d.daemons {
		total += int(snap[name].Gauges[dataplane.MetricLiveGenerations])
	}
	return float64(total)
}

// sampleQueues polls every node's shard-queue gauge until the returned
// function is called, which reports the deepest backlog seen on one node.
func sampleQueues(d *deployment) (stop func() float64) {
	period := queueSamplePeriod
	if d.w.procs {
		period = queueSamplePeriodProcs
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	peak := int64(0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			for _, v := range d.relays {
				peak = max(peak, v.Telemetry().Gauge(dataplane.MetricShardQueueDepth, 1).Value())
			}
			for _, s := range d.sinks {
				peak = max(peak, s.vnf.Telemetry().Gauge(dataplane.MetricShardQueueDepth, 1).Value())
			}
			for _, dm := range d.daemons {
				if snap, err := procnet.Stats(dm.Admin); err == nil {
					peak = max(peak, snap.Gauges[dataplane.MetricShardQueueDepth])
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak)
	}
}
