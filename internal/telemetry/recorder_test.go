package telemetry

import (
	"sync"
	"testing"
)

func TestRecorderOrderAndFields(t *testing.T) {
	r := NewRecorder(8)
	r.Record(100, EventPacketDrop, "O1", 1, 7, 0)
	r.Record(200, EventRankAdvance, "O1", 1, 7, 3)
	r.Record(300, EventGenerationDecode, "C2", 1, 7, 12345)
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if evs[2].Type != EventGenerationDecode || evs[2].Node != "C2" ||
		evs[2].Session != 1 || evs[2].Gen != 7 || evs[2].Value != 12345 || evs[2].Time != 300 {
		t.Fatalf("decode event mangled: %+v", evs[2])
	}
}

func TestRecorderWraparoundKeepsNewest(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(int64(i), EventRetry, "node", 0, 0, int64(i))
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := uint64(7 + i)
		if ev.Seq != want || ev.Value != int64(want) {
			t.Fatalf("event %d = %+v, want seq %d", i, ev, want)
		}
	}
	if n := r.head.Load(); n != 10 {
		t.Fatalf("recorded = %d, want 10", n)
	}
}

func TestRecorderNodeTruncation(t *testing.T) {
	r := NewRecorder(4)
	r.Record(1, EventFault, "a-very-long-node-name-indeed", 0, 0, 0)
	r.Record(2, EventFault, "", 0, 0, 0)
	r.Record(3, EventFault, "exactly-16-bytes", 0, 0, 0)
	evs := r.Snapshot()
	if evs[0].Node != "a-very-long-node" {
		t.Fatalf("long name kept as %q", evs[0].Node)
	}
	if evs[1].Node != "" {
		t.Fatalf("empty name kept as %q", evs[1].Node)
	}
	if evs[2].Node != "exactly-16-bytes" {
		t.Fatalf("16-byte name kept as %q", evs[2].Node)
	}
}

// TestRecorderConcurrent hammers the ring from many writers while readers
// snapshot continuously. Under -race this proves the seqlock-free protocol
// synchronizes entirely through atomics; the assertions prove no snapshot
// ever surfaces a torn or out-of-order event.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Value encodes the writer so a torn event would surface as
				// an inconsistent (writer, value) pair.
				r.Record(int64(w*perWriter+i), EventRetry, "w", uint64(w), uint64(i), int64(w*perWriter+i))
			}
		}(w)
	}
	var rwg sync.WaitGroup
	for g := 0; g < 2; g++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := r.Snapshot()
				for i := 1; i < len(evs); i++ {
					if evs[i-1].Seq >= evs[i].Seq {
						t.Errorf("snapshot out of order: %d then %d", evs[i-1].Seq, evs[i].Seq)
						return
					}
				}
				for _, ev := range evs {
					if ev.Time != ev.Value || ev.Session*perWriter+ev.Gen != uint64(ev.Value) {
						t.Errorf("torn event: %+v", ev)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if n := r.head.Load(); n != writers*perWriter {
		t.Fatalf("recorded = %d, want %d", n, writers*perWriter)
	}
	if got := len(r.Snapshot()); got != 64 {
		t.Fatalf("retained %d, want full ring of 64", got)
	}
}

func TestRecorderDefaultsAndCap(t *testing.T) {
	if got := len(NewRecorder(0).slots); got != DefaultRecorderCapacity {
		t.Fatalf("default cap = %d", got)
	}
	if got := len(NewRecorder(100).slots); got != 128 {
		t.Fatalf("cap rounding = %d, want 128", got)
	}
}

func TestEventTypeNames(t *testing.T) {
	names := map[EventType]string{
		EventPacketDrop: "packet_drop", EventRankAdvance: "rank_advance",
		EventGenerationDecode: "generation_decode", EventPause: "pause",
		EventResume: "resume", EventRetry: "retry", EventFailover: "failover",
		EventFault: "fault", EventNone: "none", EventType(200): "none",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	b, err := EventFailover.MarshalJSON()
	if err != nil || string(b) != `"failover"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
}

func TestRecorderRecordAllocFree(t *testing.T) {
	r := NewRecorder(256)
	if n := testing.AllocsPerRun(1000, func() {
		r.Record(12345, EventGenerationDecode, "relay-with-name", 3, 99, 1<<20)
	}); n != 0 {
		t.Fatalf("Record allocates %v/op", n)
	}
}
