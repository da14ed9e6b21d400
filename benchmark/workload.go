package main

import (
	"math"
	"math/rand"

	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
)

// redundancy is the extra coded packets per generation per edge (NC2, the
// program's deployed default); with the butterfly's 2-branch split every
// edge carries k/2 + redundancy distinct packets per generation.
const redundancy = 2

// corpusGenerations is the number of distinct seeded generations the load
// generator cycles through; a delivered generation is byte-compared against
// the entry its (session, generation id) maps to.
const corpusGenerations = 64

// workload describes one benchmark workload: a butterfly deployment and the
// closed-loop load offered to it. BENCHMARK.json records, under the same
// names, why each was chosen.
type workload struct {
	name string
	// procs runs the four relays as real ncd processes over loopback UDP;
	// otherwise every node is a VNF in this process over emunet.Network.
	procs  bool
	params rlnc.Params
	// sessions is the number of concurrent multicast sessions, each with
	// its own Source. window is W, the generations kept in flight during
	// the throughput phase; perSession caps how many of them one session
	// may own.
	sessions   int
	window     int
	perSession int
	// store builds relays and sinks WithSessionStore{MaxGenerations: 1024}.
	store bool
	// tablePushEvery, when positive, pushes a 32-entry UpdateTable to every
	// relay after that many completed generations.
	tablePushEvery int
}

// workloads lists the four workloads in BENCHMARK.json order.
var workloads = []workload{
	{
		name:     "inproc-k4",
		params:   rlnc.Params{GenerationBlocks: 4, BlockSize: 1460},
		sessions: 1, window: 8, perSession: 8,
	},
	{
		name:     "inproc-k64",
		params:   rlnc.Params{GenerationBlocks: 64, BlockSize: 1460},
		sessions: 1, window: 4, perSession: 4,
	},
	{
		name:     "inproc-tenants512",
		params:   rlnc.Params{GenerationBlocks: 4, BlockSize: 256},
		sessions: 512, window: 64, perSession: 1,
		store: true, tablePushEvery: 256,
	},
	{
		name:     "procs-k16",
		procs:    true,
		params:   rlnc.Params{GenerationBlocks: 16, BlockSize: 1024},
		sessions: 1, window: 8, perSession: 8,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// edgeQuota is the per-edge packet quota of procnet.Butterfly.
func (w *workload) edgeQuota() int { return w.params.GenerationBlocks/2 + redundancy }

// wireLen is the size of one coded data packet on the wire.
func (w *workload) wireLen() int {
	return ncproto.HeaderLen(w.params.GenerationBlocks) + w.params.BlockSize
}

// sessionID maps a session index to its wire session id (ids start at 1).
func sessionID(idx int) ncproto.SessionID { return ncproto.SessionID(idx + 1) }

// corpus is the seeded payload set. sent is what the source transmits and
// want what the sinks must deliver; they alias unless a test corrupts an
// entry of sent to prove the byte check fires.
type corpus struct {
	sent [][]byte
	want [][]byte
}

func newCorpus(seed int64, genBytes int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{sent: make([][]byte, corpusGenerations)}
	for i := range c.sent {
		c.sent[i] = make([]byte, genBytes)
		rng.Read(c.sent[i])
	}
	c.want = append([][]byte(nil), c.sent...)
	return c
}

// index maps a (session, generation) to its corpus entry; consecutive
// generations of one session and the same generation of adjacent sessions
// land on different entries.
func (c *corpus) index(s ncproto.SessionID, g ncproto.GenerationID) int {
	return (int(s)*17 + int(g)) % corpusGenerations
}

// pickTableLen is the length of the seeded session pick table the driver
// cycles through.
const pickTableLen = 4096

// newPickTable draws pickTableLen session indices with Pareto(1.2) shares
// capped at 64, so a few tenants carry most of the traffic as in a real
// multi-tenant service. A one-session workload gets a table of zeros.
func newPickTable(seed int64, sessions int) []uint16 {
	table := make([]uint16, pickTableLen)
	if sessions <= 1 {
		return table
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5e5510))
	cum := make([]float64, sessions)
	total := 0.0
	for i := range cum {
		share := math.Min(64, math.Pow(1-rng.Float64(), -1/1.2))
		total += share
		cum[i] = total
	}
	for i := range table {
		x := rng.Float64() * total
		lo, hi := 0, sessions-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		table[i] = uint16(lo)
	}
	return table
}
