package controller

import (
	"bytes"
	"sync"
	"testing"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/gf"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
)

// recordConn captures every Send in order; Recv blocks until Close (tests
// drive the VNF synchronously through InjectPacket).
type recordConn struct {
	addr  string
	mu    sync.Mutex
	dsts  []string
	pkts  [][]byte
	close chan struct{}
	once  sync.Once
}

func newRecordConn(addr string) *recordConn {
	return &recordConn{addr: addr, close: make(chan struct{})}
}

func (c *recordConn) Send(dst string, pkt []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dsts = append(c.dsts, dst)
	c.pkts = append(c.pkts, append([]byte(nil), pkt...))
	return nil
}

func (c *recordConn) Recv() ([]byte, string, error) {
	<-c.close
	return nil, "", emunet.ErrClosed
}

func (c *recordConn) LocalAddr() string { return c.addr }

func (c *recordConn) Close() error {
	c.once.Do(func() { close(c.close) })
	return nil
}

func (c *recordConn) emissions() ([]string, [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.dsts...), append([][]byte(nil), c.pkts...)
}

// diffDeploy builds the two deploy-file versions of the differential: the
// same forwarder session on node "relay", with the forwarding table flipped
// from sink-a to sink-b between version 1 and version 2.
func diffDeploy(sink string, version int) *DeployFile {
	return &DeployFile{
		Version: version,
		Sessions: []DeploySession{{
			ID: 1, Blocks: 4, BlockSize: 64,
			Roles:  map[string]string{"relay": "forwarder"},
			Tables: map[string][]DeployHopGroup{"relay": {{Addrs: []string{sink}}}},
		}},
	}
}

// diffTrace pre-encodes the fixed packet trace both runs inject: four
// generations of k+1 coded packets each, deterministic payload and
// coefficients.
func diffTrace(t *testing.T) [][]byte {
	t.Helper()
	params := rlnc.Params{GenerationBlocks: 4, BlockSize: 64, Field: gf.GF256}
	var trace [][]byte
	for g := 0; g < 4; g++ {
		data := make([]byte, params.GenerationBytes())
		for i := range data {
			data[i] = byte(i*13 + g*7 + 5)
		}
		enc, err := rlnc.NewEncoder(params, data, int64(g+1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < params.GenerationBlocks+1; i++ {
			cb := enc.Coded()
			trace = append(trace, (&ncproto.Packet{
				Session:    1,
				Generation: ncproto.GenerationID(g),
				Coeffs:     cb.Coeffs,
				Payload:    cb.Payload,
			}).Encode(nil))
		}
	}
	return trace
}

// TestReloadDifferentialColdRestart pins the hot-reload guarantee of the
// operational-lifecycle tentpole with the PR 7 differential pattern: a
// forwarding-table change applied by /reload's Daemon.Reload mid-trace must
// deliver the byte-identical emission sequence (destination + wire bytes) as
// tearing the daemon down at the same trace position and cold-starting a
// replacement from the version-2 deploy file — while the hot path records
// zero pause events, leaves the pause histogram empty, and performs the
// whole diff in exactly one RCU table swap without touching the session.
func TestReloadDifferentialColdRestart(t *testing.T) {
	trace := diffTrace(t)
	cut := len(trace) / 2 // generation boundary: 2 of 4 generations before the switch
	f1, f2 := diffDeploy("sink-a", 1), diffDeploy("sink-b", 2)

	boot := func(conn *recordConn, f *DeployFile, reg *telemetry.Registry) *Daemon {
		t.Helper()
		d := NewDaemon(conn, simclock.NewVirtual(epoch), dataplane.WithTelemetry(reg))
		if _, err := d.Reload(f, "relay"); err != nil {
			t.Fatal(err)
		}
		return d
	}

	// Hot path: one daemon, Reload(v2) between the two trace halves.
	hotReg := telemetry.NewRegistry()
	hotConn := newRecordConn("relay")
	hot := boot(hotConn, f1, hotReg)
	defer hot.Close()
	for _, pkt := range trace[:cut] {
		hot.VNF().InjectPacket(pkt)
	}
	swapsBefore := tableSwaps(hot)
	sum, err := hot.Reload(f2, "relay")
	if err != nil {
		t.Fatal(err)
	}
	if sum.SessionsUpdated != 0 || sum.SessionsAdded != 0 || sum.SessionsRemoved != 0 {
		t.Fatalf("table-only reload touched sessions: %+v", sum)
	}
	if sum.TableEntriesChanged != 1 || tableSwaps(hot) != swapsBefore+1 {
		t.Fatalf("reload swaps: %+v (table swaps %d -> %d)", sum, swapsBefore, tableSwaps(hot))
	}
	for _, pkt := range trace[cut:] {
		hot.VNF().InjectPacket(pkt)
	}
	hotDst, hotPkt := hotConn.emissions()

	// Cold path: same trace position, but the daemon is torn down and a
	// replacement cold-starts from the version-2 file.
	coldReg := telemetry.NewRegistry()
	conn1 := newRecordConn("relay")
	cold1 := boot(conn1, f1, coldReg)
	for _, pkt := range trace[:cut] {
		cold1.VNF().InjectPacket(pkt)
	}
	if err := cold1.Close(); err != nil {
		t.Fatal(err)
	}
	conn2 := newRecordConn("relay")
	cold2 := boot(conn2, f2, telemetry.NewRegistry())
	defer cold2.Close()
	for _, pkt := range trace[cut:] {
		cold2.VNF().InjectPacket(pkt)
	}
	d1, p1 := conn1.emissions()
	d2, p2 := conn2.emissions()
	coldDst, coldPkt := append(d1, d2...), append(p1, p2...)

	if len(hotDst) == 0 {
		t.Fatal("trace produced no emissions")
	}
	if len(hotDst) != len(coldDst) {
		t.Fatalf("emission count differs: hot-reload %d, cold restart %d", len(hotDst), len(coldDst))
	}
	for i := range hotDst {
		if hotDst[i] != coldDst[i] {
			t.Fatalf("emission %d destination differs: hot-reload %q, cold restart %q", i, hotDst[i], coldDst[i])
		}
		if !bytes.Equal(hotPkt[i], coldPkt[i]) {
			t.Fatalf("emission %d bytes differ between hot-reload and cold restart", i)
		}
	}
	// The trace actually crossed the table flip: sink-a before, sink-b after.
	if hotDst[0] != "sink-a" || hotDst[len(hotDst)-1] != "sink-b" {
		t.Fatalf("trace never crossed the flip: first %q last %q", hotDst[0], hotDst[len(hotDst)-1])
	}

	// The hot reload recorded exactly one reload flight event beside the
	// cold start's.
	rec := hotReg.Recorder(dataplane.FlightRecorderName, telemetry.DefaultRecorderCapacity)
	if evs := eventsOf(rec, telemetry.EventReload); len(evs) != 2 {
		t.Fatalf("reload flight events = %d, want 2", len(evs))
	}
}
