package chaostest

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/controller"
	"ncfn/internal/core"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
	"ncfn/internal/topology"
)

// Session is the single multicast session the harness runs.
const Session = ncproto.SessionID(1)

// Tick is the virtual-time supervision interval: the cadence at which the
// harness advances the clock and ticks the Service's supervisor.
const Tick = time.Second

// sinkNodes are the decoding endpoints. Sinks don't fail over: the paper's
// failover concerns coding VNFs.
var sinkNodes = []string{"O2", "C2"}

// RelayNodes lists the butterfly's data centers, the supervised coding
// VNFs, in sorted order — the order the controller launches their VMs in.
func RelayNodes() []string { return []string{"C1", "O1", "T", "V2"} }

// Cluster is one core.Service running the paper's butterfly (Fig. 6) on a
// virtual clock, with the scenario helpers chaos tests drive it by.
type Cluster struct {
	Net   *emunet.Network
	Clock *simclock.Virtual
	Sup   *controller.Supervisor
	// Reg is the Service's registry: links, cloud faults, VNFs and the
	// supervisor all report into it.
	Reg *telemetry.Registry

	*core.Service
	src  *dataplane.Source
	mu   sync.Mutex
	gens [][]byte // payload of each generation sent (for resends)
}

// NewButterfly admits the multicast V1 → O2, C2 into a fresh Service and
// waits out the launch latency of the VMs the controller started for it.
func NewButterfly(seed int64) (*Cluster, error) {
	g, src, sinks := topology.Butterfly()
	var dcs []optimize.DataCenter
	for _, n := range RelayNodes() {
		dcs = append(dcs, optimize.DataCenter{ID: topology.NodeID(n), BinMbps: 1000, BoutMbps: 1000, CodeMbps: 500})
	}
	clk := simclock.NewVirtual(time.Unix(0, 0))
	svc, err := core.NewService(core.Config{Graph: g, DataCenters: dcs, Alpha: 0.1,
		Params: rlnc.Params{GenerationBlocks: 4, BlockSize: 32}, Seed: seed, Clock: clk})
	if err != nil {
		return nil, err
	}
	c := &Cluster{Net: svc.Network(), Clock: clk, Sup: svc.Supervisor(), Reg: svc.Telemetry(), Service: svc}
	err = svc.AddSession(optimize.Session{ID: Session, Source: src, Receivers: sinks, MaxDelay: 150 * time.Millisecond})
	if err == nil {
		c.src, err = svc.Source(Session)
	}
	if err != nil {
		svc.Close()
		return nil, err
	}
	clk.Advance(cloud.DefaultLaunchDelay)
	return c, nil
}

// Addr returns a relay's current data-plane address.
func (c *Cluster) Addr(node string) string {
	_, addr, _ := c.Relay(topology.NodeID(node))
	return addr
}

// Daemon returns a relay's control daemon (closed while it is down).
func (c *Cluster) Daemon(node string) *controller.Daemon {
	d, _, _ := c.Relay(topology.NodeID(node))
	return d
}

// DeployFileFor returns the Service's current file at the given version —
// the document an operator would POST to a relay's /reload. With
// extraSession set it also names an inert second session on the node, so
// reload soaks can churn session adds and removes around the live traffic.
func (c *Cluster) DeployFileFor(node string, version int, extraSession bool) *controller.DeployFile {
	f := c.DeployFile()
	f.Version = version
	if extraSession {
		f.Sessions = append(f.Sessions, controller.DeploySession{ID: 200, Blocks: 4, BlockSize: 32,
			Roles:  map[string]string{node: "forwarder"},
			Tables: map[string][]controller.DeployHopGroup{node: {{Addrs: []string{"spare"}}}}})
	}
	return f
}

// RollingRestart drains one relay to quiescence and redeploys it on its
// instance at a fresh address — the in-process twin of one step of `ncctl
// rolling-restart`. The drain runs on the virtual clock; realTimeout bounds,
// in real time, how long the harness keeps advancing it.
func (c *Cluster) RollingRestart(node string, realTimeout time.Duration) error {
	d, _, inst := c.Relay(topology.NodeID(node))
	if err := d.StartDrain(time.Minute); err != nil {
		return fmt.Errorf("chaostest: rolling restart %s: %w", node, err)
	}
	deadline := time.Now().Add(realTimeout) //nolint:nc real-time bound on the in-process drain goroutine, not simulated time
	for !d.Closed() {
		if time.Now().After(deadline) { //nolint:nc same real-time bound
			return fmt.Errorf("chaostest: rolling restart %s: drain never completed", node)
		}
		c.Clock.Advance(time.Millisecond)
		time.Sleep(100 * time.Microsecond) //nolint:nc real-time yield to the drain goroutine
	}
	return c.Redeploy(topology.NodeID(node), inst)
}

// CrashVNF kills a relay the hard way: its VM crashes and its VNF dies with
// all coding state. Detection and recovery are the supervisor's job.
func (c *Cluster) CrashVNF(node string) error {
	d, _, inst := c.Relay(topology.NodeID(node))
	if err := c.Cloud().CrashInstance(inst); err != nil {
		return err
	}
	return d.Close()
}

// PartitionNode blackholes a relay's current address; the VM stays Running,
// so no failover follows.
func (c *Cluster) PartitionNode(node string) { c.Net.PartitionHost(c.Addr(node)) }

// HealNode reconnects a partitioned relay.
func (c *Cluster) HealNode(node string) { c.Net.HealHost(c.Addr(node)) }

// RunTicks advances virtual time by n supervision intervals, ticking the
// supervisor at each.
func (c *Cluster) RunTicks(n int) {
	for i := 0; i < n; i++ {
		c.Clock.Advance(Tick)
		c.Tick()
	}
}

// RunTicksUntilRecovered ticks until the supervisor has logged at least
// events failovers, up to max ticks; it returns the ticks taken, or -1.
func (c *Cluster) RunTicksUntilRecovered(events, max int) int {
	for i := 1; i <= max; i++ {
		if c.RunTicks(1); len(c.Sup.Events()) >= events {
			return i
		}
	}
	return -1
}

// SendGenerations sends n fresh generations of deterministic payload,
// remembering each for resends, and returns the payload sent.
func (c *Cluster) SendGenerations(n int) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var all []byte
	for i := 0; i < n; i++ {
		data := make([]byte, c.src.Params().GenerationBytes())
		for j := range data {
			data[j] = byte(len(c.gens)*31 + j)
		}
		if gid, err := c.src.SendGeneration(data, false); err != nil || int(gid) != len(c.gens) {
			return nil, fmt.Errorf("chaostest: generation %d sent as %d: %v", len(c.gens), gid, err)
		}
		c.gens = append(c.gens, data)
		all = append(all, data...)
	}
	return all, nil
}

// SinkData reassembles a sink's decoded stream over all sent generations.
func (c *Cluster) SinkData(sink string) ([]byte, bool) {
	ep, err := c.Receiver(topology.NodeID(sink))
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		return nil, false
	}
	return ep.Data(Session, len(c.gens))
}

// WaitAllDecoded blocks until every sink has decoded every sent generation,
// resending every 25 ms what some sink misses (the source's ACK-timeout
// reliability loop) with two extra packets per hop group, which regrows
// full rank at the relays within a few rounds without flooding. The timeout
// is real time: it bounds the wait for in-process goroutines.
func (c *Cluster) WaitAllDecoded(timeout time.Duration) error {
	deadline := time.NewTimer(timeout) //nolint:nc real-time bound on in-process goroutines, not simulated time
	defer deadline.Stop()
	resend := time.NewTicker(25 * time.Millisecond) //nolint:nc real-time resend pacing while the harness waits
	defer resend.Stop()
	for {
		c.mu.Lock()
		gens := c.gens
		c.mu.Unlock()
		var missing []ncproto.GenerationID
		for _, s := range sinkNodes {
			ep, _ := c.Receiver(topology.NodeID(s))
			missing = append(missing, ep.MissingBelow(Session, len(gens))...)
		}
		if len(missing) == 0 {
			return nil
		}
		slices.Sort(missing)
		missing = slices.Compact(missing)
		select {
		case <-c.src.Acks(): // a sink decoded something; re-check
		case <-resend.C:
			for _, g := range missing {
				_ = c.src.ResendGeneration(g, gens[g], 2) // a failed resend is retried next round
			}
		case <-deadline.C:
			return fmt.Errorf("chaostest: generations %v of %d undecoded after %v", missing, len(gens), timeout)
		}
	}
}
