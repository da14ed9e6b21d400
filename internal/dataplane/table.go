// Package dataplane implements the network coding VNF of Sec. III: the
// packet-processing function that receives coded UDP datagrams, buffers
// them by (session, generation), recodes in a pipelined fashion, and
// forwards along the session's next hops. The same code runs in four roles:
//
//   - Encoder: a source-side function that splits application data into
//     generations and emits systematic + redundant coded packets.
//   - Recoder: an intermediate VNF. The first packet of a generation is
//     simply forwarded; every later arrival triggers emission of a fresh
//     recoded packet ("pipelined fashion", Sec. III-B2).
//   - Decoder: recovers generations by progressive Gaussian elimination and
//     delivers payload to the application (and ACKs the source).
//   - Forwarder: relays packets unchanged (the routing-only baseline and
//     the single-input-flow case where "direct forwarding is sufficient").
//
// VNFs are substrate-agnostic: they run over an emunet.PacketConn, which is
// backed either by the in-process emulated network or by real UDP sockets.
package dataplane

import (
	"sync"
	"sync/atomic"

	"ncfn/internal/ncproto"
)

// HopGroup is one logical next hop: a set of VNF instances in the same data
// center. Packets are dispatched across the instances by (session,
// generation) hash so that all packets of a generation reach the same
// instance (Sec. IV-A: "Packets belonging to the same generation are
// dispatched to the same VNF instance").
//
// PerGen is the hop's packet quota per generation, derived by the
// controller from the session's actual flow f_m(e) on the corresponding
// link: a link carrying f_m(e) of a session with rate λ_m and k blocks per
// generation receives ⌈k·f_m(e)/λ_m⌉ distinct coded packets per generation.
// Zero means "every packet" (simple replication, the unicast/forwarding
// case).
type HopGroup struct {
	Addrs  []string
	PerGen int
}

// quota resolves the hop's per-generation packet budget given the session
// default (generation size + redundancy).
func (h HopGroup) quota(def int) int {
	if h.PerGen > 0 {
		return h.PerGen
	}
	return def
}

// Pick selects the instance for a generation. The FNV-1a hash is computed
// inline (identical to hash/fnv over the same 6 bytes) so the per-packet
// path does not allocate a hasher.
func (h HopGroup) Pick(s ncproto.SessionID, g ncproto.GenerationID) string {
	if len(h.Addrs) == 0 {
		return ""
	}
	if len(h.Addrs) == 1 {
		return h.Addrs[0]
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	var b = [6]byte{
		byte(s >> 8), byte(s),
		byte(g >> 24), byte(g >> 16), byte(g >> 8), byte(g),
	}
	hash := uint32(offset32)
	for _, c := range b {
		hash ^= uint32(c)
		hash *= prime32
	}
	return h.Addrs[int(hash)%len(h.Addrs)]
}

// ForwardingTable maps each session to its next-hop groups. The paper
// stores it as a text file the daemon reloads on SIGUSR1; here the table
// arrives as NC_FORWARD_TAB JSON and lives only in memory, swapped in whole.
//
// Reads are RCU-style lock-free: the whole table lives in one immutable
// snapshot published through an atomic pointer, so the per-packet lookups
// (AppendNextHops, AppendGroups) cost a single atomic load and never
// contend with writers. Writers serialize on a mutex, copy the map, mutate
// the copy, and publish it; installed hop groups are deep-copied on the way
// in and never mutated afterwards, so a reader that loaded the old snapshot
// keeps a fully consistent (merely stale) view. A reader observes every
// entry of a batch update atomically — there is no interleaving where half
// a push is visible.
type ForwardingTable struct {
	writeMu sync.Mutex // serializes copy-on-write updates
	snap    atomic.Pointer[tableSnapshot]
	version atomic.Uint64
}

// tableSnapshot is one immutable published table state. The map and every
// HopGroup slice reachable from it are frozen at publication.
type tableSnapshot struct {
	entries map[ncproto.SessionID][]HopGroup
}

// NewForwardingTable returns an empty table.
func NewForwardingTable() *ForwardingTable {
	t := &ForwardingTable{}
	t.writeMu.Lock()
	t.snap.Store(&tableSnapshot{entries: map[ncproto.SessionID][]HopGroup{}})
	t.writeMu.Unlock()
	return t
}

// load returns the current immutable snapshot map. Reading a nil map is
// safe, so even a zero-value table (no snapshot published yet) reads as
// empty.
func (t *ForwardingTable) load() map[ncproto.SessionID][]HopGroup {
	if s := t.snap.Load(); s != nil {
		return s.entries
	}
	return nil
}

// Version returns the number of published table updates. Readers can cheaply
// detect that a snapshot they are iterating has been superseded.
func (t *ForwardingTable) Version() uint64 { return t.version.Load() }

// mutate runs one copy-on-write transaction: clone the current map (sharing
// the immutable group slices), apply f, publish. Callers must deep-copy any
// hop groups they install.
func (t *ForwardingTable) mutate(f func(m map[ncproto.SessionID][]HopGroup)) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	old := t.load()
	m := make(map[ncproto.SessionID][]HopGroup, len(old)+1)
	for s, g := range old {
		m[s] = g
	}
	f(m)
	t.snap.Store(&tableSnapshot{entries: m})
	t.version.Add(1)
}

// copyGroups deep-copies hop groups so installed state never aliases caller
// memory.
func copyGroups(hops []HopGroup) []HopGroup {
	cp := make([]HopGroup, len(hops))
	for i, h := range hops {
		cp[i] = HopGroup{Addrs: append([]string(nil), h.Addrs...), PerGen: h.PerGen}
	}
	return cp
}

// Set replaces the hop groups for a session.
func (t *ForwardingTable) Set(s ncproto.SessionID, hops []HopGroup) {
	cp := copyGroups(hops)
	t.mutate(func(m map[ncproto.SessionID][]HopGroup) { m[s] = cp })
}

// Delete removes a session's entry.
func (t *ForwardingTable) Delete(s ncproto.SessionID) {
	t.mutate(func(m map[ncproto.SessionID][]HopGroup) { delete(m, s) })
}

// ApplyBatch applies one controller push as a single copy-on-write
// transaction: a nil hop list deletes the session, anything else replaces
// it. Readers observe either the whole batch or none of it, and the table is
// copied once regardless of batch size (Set in a loop would copy it per
// entry).
func (t *ForwardingTable) ApplyBatch(entries map[ncproto.SessionID][]HopGroup) {
	t.mutate(func(m map[ncproto.SessionID][]HopGroup) {
		for s, hops := range entries {
			if hops == nil {
				delete(m, s)
				continue
			}
			m[s] = copyGroups(hops)
		}
	})
}

// AppendNextHops appends the instance addresses for (s, g) to dst and
// returns it — the allocation-free variant of NextHops for the packet path.
// The lookup is lock-free: one atomic snapshot load, no reader-writer
// contention even while a controller push is in flight.
func (t *ForwardingTable) AppendNextHops(dst []string, s ncproto.SessionID, g ncproto.GenerationID) []string {
	for _, h := range t.load()[s] {
		if a := h.Pick(s, g); a != "" {
			dst = append(dst, a)
		}
	}
	return dst
}

// AppendGroups appends the session's hop groups to dst and returns it — the
// allocation-free read for the packet path. The appended
// values share the snapshot's backing arrays, which are immutable once
// published (writers deep-copy on the way in and publish whole snapshots),
// so callers may read them freely but must not mutate them; a concurrent
// table update leaves previously appended groups intact but stale.
func (t *ForwardingTable) AppendGroups(dst []HopGroup, s ncproto.SessionID) []HopGroup {
	return append(dst, t.load()[s]...)
}

// Snapshot returns a deep copy of the table contents.
func (t *ForwardingTable) Snapshot() map[ncproto.SessionID][]HopGroup {
	entries := t.load()
	out := make(map[ncproto.SessionID][]HopGroup, len(entries))
	for s, groups := range entries {
		out[s] = copyGroups(groups)
	}
	return out
}
