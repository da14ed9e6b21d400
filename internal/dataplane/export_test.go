package dataplane

import (
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
)

// WithWorkers sets the number of pipeline shards (worker goroutines)
// packets are dispatched across by session ID. The default is GOMAXPROCS;
// one worker reproduces the fully serial data plane.
func WithWorkers(n int) VNFOption {
	return func(v *VNF) { v.workers = n }
}

// Groups returns a copy of the hop groups for a session.
func (t *ForwardingTable) Groups(s ncproto.SessionID) []HopGroup {
	return copyGroups(t.load()[s])
}

// Len returns the number of session entries.
func (t *ForwardingTable) Len() int {
	return len(t.load())
}

// Stats are cumulative VNF counters.
type Stats struct {
	PacketsIn        uint64
	PacketsOut       uint64
	PacketsDropped   uint64 // malformed or unknown-session packets
	GenerationsDone  uint64 // decoder only
	RecodedEmissions uint64
	Forwarded        uint64
}

// Stats returns a snapshot of the VNF's counters, aggregated across
// telemetry cells.
func (v *VNF) Stats() Stats {
	return Stats{
		PacketsIn:        v.tel.rx.Value(),
		PacketsOut:       v.tel.tx.Value(),
		PacketsDropped:   v.tel.drops.Value(),
		GenerationsDone:  v.tel.gens.Value(),
		RecodedEmissions: v.tel.recoded.Value(),
		Forwarded:        v.tel.forwarded.Value(),
	}
}

// newSink builds a receiving endpoint on conn carrying one session.
func newSink(conn emunet.PacketConn, id ncproto.SessionID, params rlnc.Params, srcAddr string, opts ...VNFOption) (*MultiReceiver, error) {
	m := NewMultiReceiver(conn, opts...)
	if err := m.AddSession(id, params, srcAddr); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}
