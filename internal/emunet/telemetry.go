package emunet

import (
	"ncfn/internal/telemetry"
)

// Telemetry instrument names. Per-link instruments append the directed link
// name ("src->dst") after the colon.
const (
	MetricNetTxPackets      = "emunet_tx_packets"
	MetricNetDroppedPackets = "emunet_dropped_packets"
	MetricNetFaults         = "emunet_fault_injections"
	MetricLinkTxPrefix      = "emunet_link_tx:"
	MetricLinkDropPrefix    = "emunet_link_drop:"
	MetricLinkQueuedPrefix  = "emunet_link_queued:"
	NetFlightName           = "emunet_flight"
)

// UDP transport instrument names (udp.go). Counters are striped two ways:
// cell 0 accumulates rx-side events, cell 1 tx-side.
const (
	MetricUDPSyscalls  = "emunet_udp_syscalls"
	MetricUDPTxPackets = "emunet_udp_tx_packets"
	MetricUDPRxPackets = "emunet_udp_rx_packets"
	MetricUDPRxDropped = "emunet_udp_rx_dropped"
	MetricUDPReadErrs  = "emunet_udp_read_errors"
	MetricUDPBatchSize = "emunet_udp_batch_size"
	UDPFlightName      = "emunet_udp_flight"
)

// Counter cells for the UDP instruments.
const (
	udpRxCell = 0
	udpTxCell = 1
)

// udpTelemetry is one UDP socket's instrument set. Every UDPConn has one
// (on a private registry unless WithUDPTelemetry shares it), so the hot
// paths never nil-check.
type udpTelemetry struct {
	// syscalls counts datagram I/O syscalls, including EAGAIN retries; the
	// headline efficiency ratio is syscalls / (rxPkts + txPkts).
	syscalls *telemetry.Counter
	txPkts   *telemetry.Counter
	rxPkts   *telemetry.Counter
	// rxDropped counts packets discarded because the inbox was full — the
	// userspace analogue of an SO_RCVBUF overflow.
	rxDropped *telemetry.Counter
	readErrs  *telemetry.Counter
	// batch observes datagrams moved per successful I/O syscall; a mass at
	// 1 means batching is not engaging.
	batch *telemetry.Histogram
	rec   *telemetry.Recorder
}

// newUDPTelemetry resolves the socket instrument set from reg. Instruments
// are named (not per-socket), so sockets sharing a registry aggregate.
func newUDPTelemetry(reg *telemetry.Registry) udpTelemetry {
	return udpTelemetry{
		syscalls:  reg.Counter(MetricUDPSyscalls, 2),
		txPkts:    reg.Counter(MetricUDPTxPackets, 2),
		rxPkts:    reg.Counter(MetricUDPRxPackets, 2),
		rxDropped: reg.Counter(MetricUDPRxDropped, 2),
		readErrs:  reg.Counter(MetricUDPReadErrs, 2),
		batch:     reg.Histogram(MetricUDPBatchSize),
		rec:       reg.Recorder(UDPFlightName, telemetry.DefaultRecorderCapacity),
	}
}

// netTelemetry is the network-wide instrument set; individual links carry
// their own linkTel handles resolved from the same registry.
type netTelemetry struct {
	reg    *telemetry.Registry
	tx     *telemetry.Counter
	drops  *telemetry.Counter
	faults *telemetry.Counter
	rec    *telemetry.Recorder
}

// linkTel is one directed link's counter handles, the only record of its
// traffic: registry snapshots see live per-link utilization without
// touching link locks. netSent/netDropped are the network-wide aggregates,
// bumped in lockstep.
type linkTel struct {
	sent       *telemetry.Counter
	dropped    *telemetry.Counter
	netSent    *telemetry.Counter
	netDropped *telemetry.Counter
}

// WithTelemetry attaches the network's instruments — aggregate tx/drop
// counters, per-link utilization, and a fault-injection flight recorder —
// to the given registry. Without this option the network records nothing.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(n *Network) {
		if reg == nil {
			return
		}
		n.tel = &netTelemetry{
			reg:    reg,
			tx:     reg.Counter(MetricNetTxPackets, 1),
			drops:  reg.Counter(MetricNetDroppedPackets, 1),
			faults: reg.Counter(MetricNetFaults, 1),
			rec:    reg.Recorder(NetFlightName, telemetry.DefaultRecorderCapacity),
		}
	}
}

// instrumentLinkLocked resolves a fresh link's telemetry handles and
// publishes its queue-depth gauge. Callers hold the network mutex.
func (n *Network) instrumentLinkLocked(src, dst string, l *link) {
	if n.tel == nil {
		return
	}
	name := src + "->" + dst
	l.tel = &linkTel{
		sent:       n.tel.reg.Counter(MetricLinkTxPrefix+name, 1),
		dropped:    n.tel.reg.Counter(MetricLinkDropPrefix+name, 1),
		netSent:    n.tel.tx,
		netDropped: n.tel.drops,
	}
	n.tel.reg.GaugeFunc(MetricLinkQueuedPrefix+name, func() int64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return int64(len(l.q))
	})
}

// recordFault traces one fault injection or heal. Value is 1 for an
// injected fault and 0 for a heal; node names the victim ("addr" for host
// faults, "src->dst" for link faults).
func (n *Network) recordFault(now int64, node string, injected bool) {
	if n.tel == nil {
		return
	}
	v := int64(0)
	if injected {
		v = 1
		n.tel.faults.Inc(0)
	}
	n.tel.rec.Record(now, telemetry.EventFault, node, 0, 0, v)
}
