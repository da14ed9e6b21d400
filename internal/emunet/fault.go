package emunet

import "time"

// Runtime fault injection. The chaos harness (internal/chaostest) flips
// these faults mid-run to emulate the failures the paper's wide-area
// deployment would see: a BGP blackhole between two regions (link
// partition), a crashed or rebooting VM (host partition), and the netem
// impairments already expressed per link (loss, jitter, duplication,
// reordering — see LinkConfig). Partition faults drop packets silently, the
// way the Internet does: the sender gets no error, traffic simply stops
// arriving until the fault is healed.

// PartitionLink blackholes the directed link from src to dst: every packet
// sent over it is dropped (and counted against the link's drop counter)
// until HealLink. The link's configuration is untouched, so healing
// restores the previous rate/delay/loss behavior.
func (n *Network) PartitionLink(src, dst string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partLinks[[2]string{src, dst}] = true
	n.faulted.Store(true)
	n.recordFault(time.Now().UnixNano(), src+"->"+dst, true)
}

// HealLink removes a link partition.
func (n *Network) HealLink(src, dst string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partLinks, [2]string{src, dst})
	n.faulted.Store(len(n.partHosts)+len(n.partLinks) > 0)
	n.recordFault(time.Now().UnixNano(), src+"->"+dst, false)
}

// PartitionBoth blackholes both directions between a and b.
func (n *Network) PartitionBoth(a, b string) {
	n.PartitionLink(a, b)
	n.PartitionLink(b, a)
}

// PartitionHost isolates a host: every packet it sends, and every packet
// addressed to it, is dropped until HealHost — the network-level view of a
// crashed or unreachable VM.
func (n *Network) PartitionHost(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partHosts[addr] = true
	n.faulted.Store(true)
	n.recordFault(time.Now().UnixNano(), addr, true)
}

// HealHost reconnects a partitioned host.
func (n *Network) HealHost(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partHosts, addr)
	n.faulted.Store(len(n.partHosts)+len(n.partLinks) > 0)
	n.recordFault(time.Now().UnixNano(), addr, false)
}

// Partitioned reports whether a packet from src to dst would currently be
// dropped by a partition fault (either endpoint isolated, or the directed
// link blackholed).
func (n *Network) Partitioned(src, dst string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partHosts[src] || n.partHosts[dst] || n.partLinks[[2]string{src, dst}]
}

// HealAll removes every partition fault at once (the "network recovers"
// step of a chaos schedule).
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	clear(n.partHosts)
	clear(n.partLinks)
	n.faulted.Store(false)
	n.recordFault(time.Now().UnixNano(), "all", false)
}
