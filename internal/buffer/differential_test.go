package buffer_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ncfn/internal/buffer"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
)

// The differential lives here, not in internal/dataplane, because the
// reference Buffer is test code of this package and Go test files cannot be
// imported: an external test package sees both it and the data plane's
// public API.

// emission is one packet a relay sent.
type emission struct {
	dst string
	pkt []byte
}

// captureConn records every Send in order; Recv blocks until Close.
type captureConn struct {
	out  []emission
	done chan struct{}
}

func newCaptureConn() *captureConn { return &captureConn{done: make(chan struct{})} }

func (c *captureConn) Send(dst string, pkt []byte) error {
	c.out = append(c.out, emission{dst, append([]byte(nil), pkt...)})
	return nil
}
func (c *captureConn) Recv() ([]byte, string, error) { <-c.done; return nil, "", emunet.ErrClosed }
func (c *captureConn) LocalAddr() string             { return "relay" }
func (c *captureConn) Close() error                  { close(c.done); return nil }

// refSession is the reference relay's per-session state: the parallel
// per-generation maps VNF.recode kept before the generation index.
type refSession struct {
	cfg      dataplane.SessionConfig
	groups   []dataplane.HopGroup
	nextSeed int64
	recoders map[ncproto.GenerationID]*rlnc.Recoder
	received map[ncproto.GenerationID]int
	emitted  map[ncproto.GenerationID][]int
}

// refRelay is the seed's recoder bookkeeping, kept as the model: every
// packet Tracks its generation in the FIFO buffer and then scans every live
// recoder of its session for ones the buffer no longer Contains, and every
// generation gets a freshly constructed recoder. Pacing and emission follow
// VNF.recode line for line.
type refRelay struct {
	buf      *buffer.Buffer
	sessions map[ncproto.SessionID]*refSession
	out      []emission
}

func (r *refRelay) inject(t *testing.T, wire []byte) {
	hdr, err := ncproto.PeekHeader(wire)
	if err != nil {
		t.Fatal(err)
	}
	st := r.sessions[hdr.Session]
	params := st.cfg.Params
	var p ncproto.Packet
	if err := ncproto.DecodeInto(&p, wire, params.GenerationBlocks); err != nil {
		t.Fatal(err)
	}
	cb := rlnc.CodedBlock{Coeffs: p.Coeffs, Payload: p.Payload}
	rec, ok := st.recoders[p.Generation]
	if !ok {
		if rec, err = rlnc.NewRecoder(params, st.nextSeed); err != nil {
			t.Fatal(err)
		}
		st.nextSeed++
		st.recoders[p.Generation] = rec
	}
	if err := rec.Add(cb); err != nil {
		t.Fatal(err)
	}
	count := r.buf.Track(buffer.GenKey{Session: p.Session, Generation: p.Generation})
	for gid := range st.recoders {
		if !r.buf.Contains(buffer.GenKey{Session: p.Session, Generation: gid}) {
			delete(st.recoders, gid)
			delete(st.emitted, gid)
			delete(st.received, gid)
		}
	}
	st.received[p.Generation]++
	n := st.received[p.Generation]
	k := params.GenerationBlocks
	inPerGen := st.cfg.InPerGen
	if inPerGen <= 0 {
		inPerGen = k
	}
	counters := st.emitted[p.Generation]
	if len(counters) != len(st.groups) {
		counters = make([]int, len(st.groups))
	}
	firstUsed := false
	for gi, h := range st.groups {
		dst := h.Pick(p.Session, p.Generation)
		quota := h.PerGen
		if quota <= 0 {
			quota = k + st.cfg.Redundancy
		}
		target := n * quota / inPerGen
		if quota <= inPerGen {
			target = max(n-(inPerGen-quota), 0)
		}
		for i := counters[gi]; i < target; i++ {
			out := ncproto.Packet{Session: p.Session, Generation: p.Generation}
			if count == 1 && !firstUsed {
				firstUsed = true
				out.Coeffs, out.Payload = cb.Coeffs, cb.Payload
			} else {
				var mixed rlnc.CodedBlock
				if !rec.RecodeInto(&mixed) {
					continue
				}
				out.Coeffs, out.Payload = mixed.Coeffs, mixed.Payload
			}
			r.out = append(r.out, emission{dst, out.Encode(nil)})
		}
		counters[gi] = max(counters[gi], target)
	}
	st.emitted[p.Generation] = counters
}

// relayTrace builds a random multi-session arrival order for a relay with
// the given buffer capacity: each step either starts a session's next
// generation or continues one that is still buffered, never one the FIFO
// has already retired (what a late packet does is specified by
// TestFIFORetirementLatePacket, not by the seed's accident).
func relayTrace(t *testing.T, rng *rand.Rand, cfgs []dataplane.SessionConfig, capacity, steps int) [][]byte {
	type liveGen struct{ pkts [][]byte }
	var (
		live    []*liveGen // FIFO order, oldest first
		nextGen = make(map[ncproto.SessionID]ncproto.GenerationID)
		trace   [][]byte
	)
	for len(trace) < steps {
		var ready []*liveGen // buffered generations with packets left to send
		for _, g := range live {
			if len(g.pkts) > 0 {
				ready = append(ready, g)
			}
		}
		if len(ready) > 0 && rng.Intn(3) != 0 {
			g := ready[rng.Intn(len(ready))]
			trace = append(trace, g.pkts[0])
			g.pkts = g.pkts[1:]
			continue
		}
		cfg := cfgs[rng.Intn(len(cfgs))]
		gen := nextGen[cfg.ID]
		nextGen[cfg.ID]++
		seed := int64(cfg.ID)<<20 | int64(gen)
		data := make([]byte, cfg.Params.GenerationBytes())
		rand.New(rand.NewSource(seed)).Read(data)
		enc, err := rlnc.NewEncoder(cfg.Params, data, seed)
		if err != nil {
			t.Fatal(err)
		}
		g := &liveGen{}
		for i := 0; i < cfg.Params.GenerationBlocks+2; i++ {
			var cb rlnc.CodedBlock
			enc.CodedInto(&cb)
			g.pkts = append(g.pkts, (&ncproto.Packet{
				Session: cfg.ID, Generation: gen, Coeffs: cb.Coeffs, Payload: cb.Payload,
			}).Encode(nil))
		}
		// A spent generation keeps its FIFO slot, exactly as in the relay.
		if live = append(live, g); len(live) > capacity {
			live = live[1:]
		}
		trace = append(trace, g.pkts[0])
		g.pkts = g.pkts[1:]
	}
	return trace
}

// TestRelayMatchesReferenceBookkeeping is the differential oracle for the
// generation index: the same random multi-session traces through (1) the
// reference relay above, (2) a VNF with defaults and (3) a VNF that also
// runs the LRU session store must emit byte-identical packets to identical
// destinations, at buffer capacities small enough that FIFO retirement —
// in place, across sessions, onto pooled spares — happens on most
// admissions. O(1) bookkeeping and record recycling change no output.
func TestRelayMatchesReferenceBookkeeping(t *testing.T) {
	cfgs := []dataplane.SessionConfig{
		{ID: 1, Params: rlnc.Params{GenerationBlocks: 4, BlockSize: 32}, Role: dataplane.RoleRecoder, Redundancy: 1},
		{ID: 2, Params: rlnc.Params{GenerationBlocks: 3, BlockSize: 48}, Role: dataplane.RoleRecoder, Redundancy: 2, InPerGen: 5},
		{ID: 3, Params: rlnc.Params{GenerationBlocks: 6, BlockSize: 16}, Role: dataplane.RoleRecoder},
	}
	groups := map[ncproto.SessionID][]dataplane.HopGroup{
		1: {{Addrs: []string{"a"}}},
		2: {{Addrs: []string{"a", "b"}, PerGen: 2}, {Addrs: []string{"c"}}},
		3: {{Addrs: []string{"b"}, PerGen: 7}, {Addrs: []string{"c", "d", "e"}, PerGen: 3}},
	}
	const seed = 31
	for _, capacity := range []int{2, 3, 8} {
		for round := 0; round < 4; round++ {
			t.Run(fmt.Sprintf("capacity=%d/trace=%d", capacity, round), func(t *testing.T) {
				trace := relayTrace(t, rand.New(rand.NewSource(int64(100*capacity+round))), cfgs, capacity, 600)

				ref := &refRelay{buf: buffer.New(capacity), sessions: make(map[ncproto.SessionID]*refSession)}
				for _, cfg := range cfgs {
					ref.sessions[cfg.ID] = &refSession{
						cfg: cfg, groups: groups[cfg.ID], nextSeed: seed,
						recoders: make(map[ncproto.GenerationID]*rlnc.Recoder),
						received: make(map[ncproto.GenerationID]int),
						emitted:  make(map[ncproto.GenerationID][]int),
					}
				}
				for _, w := range trace {
					ref.inject(t, w)
				}
				if len(ref.out) == 0 {
					t.Fatal("trace produced no emissions")
				}

				for name, opts := range map[string][]dataplane.VNFOption{
					"defaults":      nil,
					"session-store": {dataplane.WithSessionStore(dataplane.SessionStoreConfig{MaxGenerations: 1024})},
				} {
					conn := newCaptureConn()
					v := dataplane.NewVNF(conn, append(opts, dataplane.WithSeed(seed), dataplane.WithBufferCapacity(capacity))...)
					for _, cfg := range cfgs {
						if err := v.Configure(cfg); err != nil {
							t.Fatal(err)
						}
						v.Table().Set(cfg.ID, groups[cfg.ID])
					}
					for _, w := range trace {
						v.InjectPacket(w)
					}
					v.Close()
					if len(conn.out) != len(ref.out) {
						t.Fatalf("%s: %d emissions, reference %d", name, len(conn.out), len(ref.out))
					}
					for i, want := range ref.out {
						if got := conn.out[i]; got.dst != want.dst || !bytes.Equal(got.pkt, want.pkt) {
							t.Fatalf("%s: emission %d differs from the reference bookkeeping", name, i)
						}
					}
					if n, _ := v.SessionStoreStats(); n > capacity {
						t.Fatalf("%s: %d live generations, capacity %d", name, n, capacity)
					}
				}
			})
		}
	}
}
