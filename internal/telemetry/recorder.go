package telemetry

import (
	"encoding/json"
	"runtime"
	"sort"
	"sync/atomic"
)

// EventType tags a flight-recorder event.
type EventType uint8

// Event types. The set covers the state transitions the chaos harness and
// the admin endpoint need to reconstruct a run: data-plane packet drops and
// decode progress, the pause/resume cycle of forwarding-table swaps,
// generation evictions, and the control plane's retry/failover/
// fault-injection history.
const (
	EventNone EventType = iota
	// EventPacketDrop: malformed, unknown-session, or undecodable packets
	// were dropped (Value is how many), or a decoded generation was thrown
	// away because the application was not draining deliveries (Value is
	// its size in bytes).
	EventPacketDrop
	// EventRankAdvance: a decoder gained innovative packets. Value is the
	// new rank.
	EventRankAdvance
	// EventGenerationDecode: a generation decoded and was delivered. Value
	// is the decode latency in nanoseconds (first packet to delivery).
	EventGenerationDecode
	// EventPause / EventResume: the data plane paused/resumed for a table
	// swap. Value on resume is the paused duration in nanoseconds.
	EventPause
	EventResume
	// EventRetry: a control-plane attempt failed and will be retried.
	// Value is the attempt number.
	EventRetry
	// EventFailover: a supervised VNF was recovered (or abandoned). Value
	// is the detection-to-recovery duration in nanoseconds.
	EventFailover
	// EventFault: a fault was injected (crash, partition, link fault).
	// Value is implementation-defined.
	EventFault
	// EventGenerationEvict: an admission at the buffer capacity retired the
	// oldest live generation's coding state. Value is the estimated bytes
	// released.
	EventGenerationEvict
	// EventDrainStart: the data plane entered drain — no new coding state
	// is admitted while in-flight generations flush. Value is unused.
	EventDrainStart
	// EventDrainQuiesced: a draining data plane observed empty shard queues
	// and flushed coalescer rings. Value is the drain duration in
	// nanoseconds (drain start to first quiescent observation).
	EventDrainQuiesced
	// EventReload: a deploy-config hot-reload was applied. Value packs the
	// reload's change count (sessions added + updated + removed + table
	// entries changed).
	EventReload
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventPacketDrop:
		return "packet_drop"
	case EventRankAdvance:
		return "rank_advance"
	case EventGenerationDecode:
		return "generation_decode"
	case EventPause:
		return "pause"
	case EventResume:
		return "resume"
	case EventRetry:
		return "retry"
	case EventFailover:
		return "failover"
	case EventFault:
		return "fault"
	case EventGenerationEvict:
		return "generation_evict"
	case EventDrainStart:
		return "drain_start"
	case EventDrainQuiesced:
		return "drain_quiesced"
	case EventReload:
		return "reload"
	default:
		return "none"
	}
}

// MarshalJSON renders the type as its name.
func (t EventType) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON parses the name form, so snapshots fetched from a remote
// admin endpoint (ncctl stats, the procnet harness) round-trip. Unknown
// names — a newer daemon talking to an older reader — decode as EventNone
// rather than failing the whole snapshot.
func (t *EventType) UnmarshalJSON(raw []byte) error {
	var name string
	if err := json.Unmarshal(raw, &name); err != nil {
		return err
	}
	for et := EventNone; et <= EventReload; et++ {
		if et.String() == name {
			*t = et
			return nil
		}
	}
	*t = EventNone
	return nil
}

// Event is one decoded flight-recorder entry.
type Event struct {
	// Seq is the global record sequence (1-based, dense). Gaps in a
	// snapshot mean older events were overwritten.
	Seq uint64 `json:"seq"`
	// Time is the caller-supplied timestamp in nanoseconds. Recorders never
	// read a clock themselves: under simclock.Virtual these are virtual
	// nanoseconds and replay identically.
	Time int64     `json:"time_ns"`
	Type EventType `json:"type"`
	// Node labels the emitting component (VNF name, link, region); at most
	// nodeBytes bytes are retained.
	Node string `json:"node,omitempty"`
	// Session and Gen locate data-plane events; zero elsewhere.
	Session uint64 `json:"session,omitempty"`
	Gen     uint64 `json:"gen,omitempty"`
	// Value is the type-specific measurement (see the EventType docs).
	Value int64 `json:"value,omitempty"`
}

// nodeBytes is the retained length of an event's node label.
const nodeBytes = 16

// DefaultRecorderCapacity is the ring size used when none is given.
const DefaultRecorderCapacity = 1024

// busyBit marks a slot's sequence word while its writer is mid-publish.
const busyBit = uint64(1) << 63

// rslot is one ring slot. Every field is atomic: writers publish with a
// per-slot sequence protocol and readers validate it, so concurrent Record
// and Snapshot need no lock and are race-detector-clean. 64 bytes total —
// one cache line per slot.
type rslot struct {
	seq     atomic.Uint64 // 0 empty; busyBit|s while writing; s once published
	time    atomic.Int64
	typ     atomic.Uint64
	node0   atomic.Uint64 // node label bytes 0..7, little-endian packed
	node1   atomic.Uint64 // node label bytes 8..15
	session atomic.Uint64
	gen     atomic.Uint64
	value   atomic.Int64
}

// Recorder is a fixed-capacity lock-free flight recorder: the last cap
// events survive, older ones are overwritten in place. Record is wait-free
// in steady state (one fetch-add plus plain atomic stores); a writer only
// spins in the pathological case of a concurrent writer lapping the entire
// ring before an earlier claim finished publishing.
type Recorder struct {
	slots []rslot
	mask  uint64
	head  atomic.Uint64 // total events ever recorded
}

// NewRecorder builds a recorder holding the last capacity events (rounded
// up to a power of two; DefaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	n := ceilPow2(capacity)
	return &Recorder{slots: make([]rslot, n), mask: uint64(n - 1)}
}

// Record appends one event. now is the caller's clock reading in
// nanoseconds; node is truncated to 16 bytes. Zero allocation, no locks.
//
//nc:hotpath
func (r *Recorder) Record(now int64, typ EventType, node string, session, gen uint64, value int64) {
	s := r.head.Add(1)
	sl := &r.slots[(s-1)&r.mask]
	// The slot last published sequence s-cap (or 0 on the first lap). Claim
	// it; a failed CAS means that lap's writer is still publishing — yield
	// until it finishes (in practice never: it would need cap concurrent
	// in-flight Records).
	prev := uint64(0)
	if s > uint64(len(r.slots)) {
		prev = s - uint64(len(r.slots))
	}
	for !sl.seq.CompareAndSwap(prev, busyBit|s) {
		runtime.Gosched()
	}
	var n0, n1 uint64
	for i := 0; i < len(node) && i < nodeBytes; i++ {
		b := uint64(node[i])
		if i < 8 {
			n0 |= b << (8 * i)
		} else {
			n1 |= b << (8 * (i - 8))
		}
	}
	sl.time.Store(now)
	sl.typ.Store(uint64(typ))
	sl.node0.Store(n0)
	sl.node1.Store(n1)
	sl.session.Store(session)
	sl.gen.Store(gen)
	sl.value.Store(value)
	sl.seq.Store(s)
}

// Snapshot returns the retained events in sequence order. Slots being
// rewritten during the scan are skipped (their previous content is about to
// be obsolete anyway); everything returned is internally consistent.
func (r *Recorder) Snapshot() []Event {
	events := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		sl := &r.slots[i]
		s1 := sl.seq.Load()
		if s1 == 0 || s1&busyBit != 0 {
			continue
		}
		ev := Event{
			Seq:     s1,
			Time:    sl.time.Load(),
			Type:    EventType(sl.typ.Load()),
			Node:    unpackNode(sl.node0.Load(), sl.node1.Load()),
			Session: sl.session.Load(),
			Gen:     sl.gen.Load(),
			Value:   sl.value.Load(),
		}
		if sl.seq.Load() != s1 {
			continue // overwritten mid-read; drop the torn copy
		}
		events = append(events, ev)
	}
	// Slots are scanned in ring order, which is sequence order rotated by
	// head mod cap; sort restores global order.
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	return events
}

// unpackNode reverses Record's label packing.
func unpackNode(n0, n1 uint64) string {
	var buf [nodeBytes]byte
	n := 0
	for i := 0; i < nodeBytes; i++ {
		var b byte
		if i < 8 {
			b = byte(n0 >> (8 * i))
		} else {
			b = byte(n1 >> (8 * (i - 8)))
		}
		if b == 0 {
			break
		}
		buf[i] = b
		n++
	}
	return string(buf[:n])
}
