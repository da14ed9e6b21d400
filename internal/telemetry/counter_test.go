package telemetry

import (
	"sync"
	"testing"
)

// TestCounterShardedVsSerialDifferential pins the aggregation contract: the
// sum over per-shard cells after a concurrent run equals a serial
// single-cell run over the same add sequence. Run under -race this also
// proves the cells are properly independent.
func TestCounterShardedVsSerialDifferential(t *testing.T) {
	const (
		shards  = 8
		perShrd = 10000
	)
	sharded := NewCounter(shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perShrd; i++ {
				sharded.Add(s, uint64(s+1))
			}
		}(s)
	}
	wg.Wait()

	serial := NewCounter(1)
	for s := 0; s < shards; s++ {
		for i := 0; i < perShrd; i++ {
			serial.Add(0, uint64(s+1))
		}
	}
	if got, want := sharded.Value(), serial.Value(); got != want {
		t.Fatalf("sharded sum %d != serial sum %d", got, want)
	}
}

func TestCounterShardWraps(t *testing.T) {
	c := NewCounter(4)
	c.Add(0, 1)
	c.Add(4, 1)  // wraps onto cell 0
	c.Add(-1, 1) // negative indices wrap too (uint conversion)
	if c.Value() != 3 {
		t.Fatalf("Value = %d, want 3", c.Value())
	}
	if len(c.cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(c.cells))
	}
}

func TestCounterCellRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := len(NewCounter(tc.in).cells); got != tc.want {
			t.Errorf("NewCounter(%d) has %d cells, want %d", tc.in, got, tc.want)
		}
	}
}

func TestGaugeSetAddValue(t *testing.T) {
	g := NewGauge(4)
	g.Set(0, 10)
	g.Set(1, -3)
	g.Add(2, 5)
	g.Add(2, -2)
	if got := g.Value(); got != 10 {
		t.Fatalf("Value = %d, want 10", got)
	}
	g.Set(0, 0)
	if got := g.Value(); got != 0 {
		t.Fatalf("Value = %d, want 0", got)
	}
}

func TestGaugeConcurrentShards(t *testing.T) {
	const shards = 8
	g := NewGauge(shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Set(s, int64(i))
			}
			g.Set(s, int64(s))
		}(s)
	}
	wg.Wait()
	// 0+1+...+7
	if got := g.Value(); got != 28 {
		t.Fatalf("Value = %d, want 28", got)
	}
}

// The hot-path contract: one relaxed atomic op, zero allocation.
func TestCounterGaugeAllocFree(t *testing.T) {
	c := NewCounter(8)
	if n := testing.AllocsPerRun(1000, func() { c.Add(3, 7) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Inc(1) }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op", n)
	}
	g := NewGauge(8)
	if n := testing.AllocsPerRun(1000, func() { g.Set(2, 42) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(2, -1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %v/op", n)
	}
}
