package telemetry

import "sync/atomic"

// cell is one cache-line-sized counter slot. The padding keeps adjacent
// cells on distinct 64-byte lines so per-shard writers never invalidate each
// other's line (false sharing is the entire cost of a shared atomic counter
// under contention).
type cell struct {
	n atomic.Uint64
	_ [56]byte
}

// icell is the signed (gauge) variant of cell.
type icell struct {
	n atomic.Int64
	_ [56]byte
}

// ceilPow2 rounds n up to a power of two, minimum 1.
func ceilPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Counter is a monotonically increasing counter sharded over padded atomic
// cells. Writers add to the cell matching their shard index; Value sums the
// cells on read. The zero number of cells is never used — construct through
// NewCounter or Registry.Counter.
type Counter struct {
	cells []cell
	mask  uint64
}

// NewCounter builds a counter with at least cells padded cells (rounded up
// to a power of two, minimum 1).
func NewCounter(cells int) *Counter {
	n := ceilPow2(cells)
	return &Counter{cells: make([]cell, n), mask: uint64(n - 1)}
}

// Add increments the counter by n on the given shard's cell. Out-of-range
// shard indices wrap, so callers can pass any stable small integer (worker
// index, goroutine ordinal) without bounds bookkeeping. One relaxed atomic
// add; no allocation.
//
//nc:hotpath
func (c *Counter) Add(shard int, n uint64) {
	c.cells[uint64(shard)&c.mask].n.Add(n)
}

// Inc is Add(shard, 1).
//
//nc:hotpath
func (c *Counter) Inc(shard int) {
	c.cells[uint64(shard)&c.mask].n.Add(1)
}

// Value aggregates the cells. The sum is not an atomic snapshot across
// cells — like any statistical counter it may miss adds racing with the
// read — but every add is eventually counted exactly once.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is an instantaneous signed value sharded over padded atomic cells:
// each shard owns its cell via Set/Add, and Value sums the cells. A
// per-shard queue depth summed across shards is the instrument's canonical
// use.
type Gauge struct {
	cells []icell
	mask  uint64
}

// NewGauge builds a gauge with at least cells padded cells (rounded up to a
// power of two, minimum 1).
func NewGauge(cells int) *Gauge {
	n := ceilPow2(cells)
	return &Gauge{cells: make([]icell, n), mask: uint64(n - 1)}
}

// Set stores v into the shard's cell. One relaxed atomic store.
//
//nc:hotpath
func (g *Gauge) Set(shard int, v int64) {
	g.cells[uint64(shard)&g.mask].n.Store(v)
}

// Add adjusts the shard's cell by delta (negative to decrement).
//
//nc:hotpath
func (g *Gauge) Add(shard int, delta int64) {
	g.cells[uint64(shard)&g.mask].n.Add(delta)
}

// Value sums the cells.
func (g *Gauge) Value() int64 {
	var total int64
	for i := range g.cells {
		total += g.cells[i].n.Load()
	}
	return total
}
