package buffer

import (
	"container/list"
	"fmt"
	"sync"

	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
)

// This file is the seed's FIFO generation buffer, kept as test code: the
// reference model the data plane's generation index is checked against
// (differential_test.go replays relay traces through a model recoder that
// does its bookkeeping with Track and a Contains scan over every live
// generation, exactly as VNF.recode did, and requires byte-identical
// emissions). Nothing outside tests uses it.

// GenKey identifies one generation of one session.
type GenKey struct {
	Session    ncproto.SessionID
	Generation ncproto.GenerationID
}

// String renders the key for logs.
func (k GenKey) String() string {
	return fmt.Sprintf("s%d/g%d", k.Session, k.Generation)
}

// Entry holds the buffered coded blocks of one generation.
type Entry struct {
	Key    GenKey
	Blocks []rlnc.CodedBlock
	// n counts the blocks recorded for the generation, including those
	// tracked without payload retention (see Track).
	n int
	// elem is the entry's position in the FIFO list.
	elem *list.Element
}

// Buffer is a FIFO generation buffer. It is safe for concurrent use; the
// data plane's receive goroutine writes while the recode path reads.
type Buffer struct {
	mu       sync.Mutex
	capacity int
	entries  map[GenKey]*Entry
	fifo     *list.List // of GenKey, front = oldest
	evicted  uint64
	stored   uint64
}

// New returns a buffer holding at most capacity generations. A
// non-positive capacity selects DefaultCapacity.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Buffer{
		capacity: capacity,
		entries:  make(map[GenKey]*Entry, capacity),
		fifo:     list.New(),
	}
}

// Capacity returns the maximum number of generations held.
func (b *Buffer) Capacity() int { return b.capacity }

// Len returns the number of generations currently buffered.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// Evicted returns the cumulative number of generations discarded by FIFO
// eviction.
func (b *Buffer) Evicted() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evicted
}

// Stored returns the cumulative number of blocks added.
func (b *Buffer) Stored() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stored
}

// Add appends a coded block to its generation's entry, creating the entry
// (and evicting the oldest generation if at capacity) as needed. It returns
// the number of blocks now held for the generation.
func (b *Buffer) Add(key GenKey, cb rlnc.CodedBlock) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[key]
	if !ok {
		if len(b.entries) >= b.capacity {
			b.evictOldestLocked()
		}
		e = &Entry{Key: key}
		e.elem = b.fifo.PushBack(key)
		b.entries[key] = e
	}
	e.Blocks = append(e.Blocks, cb.Clone())
	e.n++
	b.stored++
	return e.n
}

// Track records a block arrival for its generation without retaining the
// payload — the allocation-free variant of Add for data planes that keep
// coded state elsewhere (e.g. in a rank-limited recoder basis) but still
// need the buffer's per-generation counting and FIFO eviction semantics.
// It returns the number of blocks now recorded for the generation.
func (b *Buffer) Track(key GenKey) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[key]
	if !ok {
		if len(b.entries) >= b.capacity {
			b.evictOldestLocked()
		}
		e = &Entry{Key: key}
		e.elem = b.fifo.PushBack(key)
		b.entries[key] = e
	}
	e.n++
	b.stored++
	return e.n
}

// Blocks returns copies of the coded blocks buffered for a generation; the
// second result reports whether the generation is present.
func (b *Buffer) Blocks(key GenKey) ([]rlnc.CodedBlock, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[key]
	if !ok {
		return nil, false
	}
	out := make([]rlnc.CodedBlock, len(e.Blocks))
	for i, cb := range e.Blocks {
		out[i] = cb.Clone()
	}
	return out, true
}

// Count returns the number of blocks held for a generation (0 if absent).
func (b *Buffer) Count(key GenKey) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[key]; ok {
		return e.n
	}
	return 0
}

// Contains reports whether the generation is buffered.
func (b *Buffer) Contains(key GenKey) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.entries[key]
	return ok
}

// Drop removes a generation (e.g. after it has been fully delivered) and
// reports whether it was present. Dropped generations do not count as
// evictions.
func (b *Buffer) Drop(key GenKey) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[key]
	if !ok {
		return false
	}
	b.fifo.Remove(e.elem)
	delete(b.entries, key)
	return true
}

// DropSession removes every generation of a session, returning how many
// were removed. Used when a session ends (NC_VNF_END / forwarding-table
// removal).
func (b *Buffer) DropSession(s ncproto.SessionID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for el := b.fifo.Front(); el != nil; {
		next := el.Next()
		key := el.Value.(GenKey)
		if key.Session == s {
			b.fifo.Remove(el)
			delete(b.entries, key)
			n++
		}
		el = next
	}
	return n
}

// Oldest returns the key of the generation next in line for eviction.
func (b *Buffer) Oldest() (GenKey, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	front := b.fifo.Front()
	if front == nil {
		return GenKey{}, false
	}
	return front.Value.(GenKey), true
}

func (b *Buffer) evictOldestLocked() {
	front := b.fifo.Front()
	if front == nil {
		return
	}
	key := front.Value.(GenKey)
	b.fifo.Remove(front)
	delete(b.entries, key)
	b.evicted++
}
