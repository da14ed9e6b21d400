package chaostest

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/controller"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
	"ncfn/internal/topology"
)

// Session is the single multicast session the harness runs.
const Session = ncproto.SessionID(1)

// Tick is the virtual-time supervision interval: the cadence at which the
// harness advances the clock and ticks the failover supervisor.
const Tick = time.Second

// butterfly is the paper's butterfly (Fig. 2) as a deploy file over logical
// node names: source V1 splits each k=4 generation into two conceptual
// flows of 2 packets through O1 and C1; each relay recodes 2 packets down to
// its own sink and 2 toward the merge node T; T compresses its 4 inbound
// packets to 2 for V2, which replicates them to both sinks. Every sink thus
// receives exactly k = 4 packets per generation — the multicast rate no
// routing-only scheme achieves on these link budgets. The sinks O2 and C2
// run receiving endpoints rather than daemons, so they have no role here.
var butterfly = controller.DeployFile{Sessions: []controller.DeploySession{{
	ID:        int(Session),
	Blocks:    4,
	BlockSize: 32,
	Field:     256,
	Roles:     map[string]string{"O1": "recoder", "C1": "recoder", "T": "recoder", "V2": "forwarder"},
	InPerGen:  map[string]int{"O1": 2, "C1": 2, "T": 4},
	Tables: map[string][]controller.DeployHopGroup{
		"V1": {{Addrs: []string{"O1"}, PerGen: 2}, {Addrs: []string{"C1"}, PerGen: 2}},
		"O1": {{Addrs: []string{"O2"}, PerGen: 2}, {Addrs: []string{"T"}, PerGen: 2}},
		"C1": {{Addrs: []string{"C2"}, PerGen: 2}, {Addrs: []string{"T"}, PerGen: 2}},
		"T":  {{Addrs: []string{"V2"}, PerGen: 2}},
		"V2": {{Addrs: []string{"O2"}}, {Addrs: []string{"C2"}}},
	},
}}}

// sinkNodes are the decoding endpoints (fixed addresses; sinks don't fail
// over in this harness — the paper's failover concerns coding VNFs).
var sinkNodes = []string{"O2", "C2"}

// RelayNodes lists the supervised coding VNFs in deterministic order.
func RelayNodes() []string {
	roles := butterfly.Sessions[0].Roles
	nodes := make([]string, 0, len(roles))
	for n := range roles {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// Cluster is a running butterfly deployment under chaos supervision.
type Cluster struct {
	Net   *emunet.Network
	Clock *simclock.Virtual
	Cloud *cloud.Cloud
	Sup   *controller.Supervisor
	// Reg is the cluster-wide telemetry registry: every layer (emunet
	// links, cloud faults, daemons' VNFs, the failover supervisor) shares
	// it, so one snapshot covers the whole deployment and chaos tests can
	// assert on flight-recorder events deterministically.
	Reg *telemetry.Registry

	params rlnc.Params
	seed   int64

	mu        sync.Mutex
	epoch     map[string]int                // logical node -> deployment count
	addr      map[string]string             // logical node -> current address
	daemons   map[string]*controller.Daemon // live daemons by logical node
	instances map[string]string             // logical node -> cloud instance ID

	src   *dataplane.Source
	sinks map[string]*dataplane.MultiReceiver
	gens  [][]byte // payload of each generation sent (for resends)
}

// NewButterfly deploys the butterfly on a fresh virtual-clock stack. All
// relay VMs are launched, brought to Running (advancing virtual time by the
// launch latency), configured, and placed under supervision.
func NewButterfly(seed int64) (*Cluster, error) {
	params, err := butterfly.Sessions[0].Params()
	if err != nil {
		return nil, err
	}
	clk := simclock.NewVirtual(time.Unix(0, 0))
	relays := RelayNodes()
	regions := make([]cloud.Region, 0, len(relays))
	for _, n := range relays {
		regions = append(regions, cloud.Region{ID: topologyID(n), BaseInMbps: 900, BaseOutMbps: 900})
	}
	reg := telemetry.NewRegistry()
	cl := cloud.New(clk, seed, regions...)
	cl.AttachTelemetry(reg)
	c := &Cluster{
		Net:   emunet.NewNetwork(emunet.AllowDefault(), emunet.WithTelemetry(reg)),
		Clock: clk,
		Cloud: cl,
		Reg:   reg,
		// Taken from the deploy file, so the live session configs compare
		// equal to what a reload of the same file yields — the reload soak
		// relies on unchanged sessions being left untouched.
		params:    params,
		seed:      seed,
		epoch:     make(map[string]int),
		addr:      make(map[string]string),
		daemons:   make(map[string]*controller.Daemon),
		instances: make(map[string]string),
		sinks:     make(map[string]*dataplane.MultiReceiver),
	}

	// Launch one VM per relay and wait out the launch latency in virtual
	// time, as the controller's initial deployment does.
	for _, n := range relays {
		inst, err := cl.LaunchInstance(topologyID(n))
		if err != nil {
			return nil, err
		}
		c.instances[n] = inst.ID
	}
	clk.Advance(cloud.DefaultLaunchDelay)

	// Assign every relay its first address before any table is built, then
	// configure and start the daemons.
	c.mu.Lock()
	for _, n := range relays {
		c.epoch[n] = 1
		c.addr[n] = fmt.Sprintf("%s#1", n)
	}
	for _, n := range relays {
		if err := c.deployLocked(n); err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	c.mu.Unlock()

	// Source and sinks.
	src, err := dataplane.NewSource(c.Net.Host("V1"), dataplane.SourceConfig{
		Session: Session,
		Params:  c.params,
		Seed:    seed,
		Clock:   clk,
	})
	if err != nil {
		return nil, err
	}
	c.src = src
	c.mu.Lock()
	hops := c.renderLocked().NodeTable("V1")[Session]
	c.mu.Unlock()
	src.SetHops(hops)
	for _, s := range sinkNodes {
		r := dataplane.NewMultiReceiver(c.Net.Host(s), dataplane.WithSeed(seed))
		if err := r.AddSession(Session, c.params, "V1"); err != nil {
			r.Close()
			return nil, err
		}
		c.sinks[s] = r
	}

	// Supervision: cloud-level health checks, redeploy reloads the file.
	c.Sup = controller.NewSupervisor(controller.SupervisorConfig{
		Cloud:         cl,
		Clock:         clk,
		FailThreshold: 2,
		Telemetry:     reg,
	})
	for _, n := range relays {
		node := n
		c.Sup.Manage(topologyID(node), topologyID(node), c.instances[node],
			controller.InstanceCheck(cl),
			func(ctx context.Context, newInstance string) error {
				return c.redeploy(node, newInstance)
			})
	}
	return c, nil
}

// topologyID converts a logical node name to the topology.NodeID used by the
// cloud and supervisor layers.
func topologyID(n string) topology.NodeID { return topology.NodeID(n) }

// Addr returns a logical node's current data-plane address.
func (c *Cluster) Addr(node string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addrLocked(node)
}

// addrLocked resolves a relay to its current address; the source and the
// sinks never move, so their names are their addresses.
func (c *Cluster) addrLocked(node string) string {
	if a, ok := c.addr[node]; ok {
		return a
	}
	return node
}

// renderLocked resolves the butterfly file's logical next hops to the
// nodes' current addresses.
func (c *Cluster) renderLocked() *controller.DeployFile {
	sess := butterfly.Sessions[0]
	tables := make(map[string][]controller.DeployHopGroup, len(sess.Tables))
	for node, groups := range sess.Tables {
		resolved := make([]controller.DeployHopGroup, len(groups))
		for i, g := range groups {
			addrs := make([]string, len(g.Addrs))
			for j, a := range g.Addrs {
				addrs[j] = c.addrLocked(a)
			}
			resolved[i] = controller.DeployHopGroup{Addrs: addrs, PerGen: g.PerGen}
		}
		tables[node] = resolved
	}
	sess.Tables = tables
	return &controller.DeployFile{Sessions: []controller.DeploySession{sess}}
}

// deployLocked starts a daemon+VNF for the node at its current address and
// brings it up the way every daemon reaches a file: Reload of the rendered
// file, which starts a blank daemon it gives a role.
func (c *Cluster) deployLocked(node string) error {
	d := controller.NewDaemon(c.Net.Host(c.addr[node]), c.Clock,
		dataplane.WithSeed(c.seed+int64(c.epoch[node])),
		dataplane.WithTelemetry(c.Reg),
		dataplane.WithClock(c.Clock))
	c.daemons[node] = d
	if _, err := d.Reload(c.renderLocked(), node); err != nil {
		return fmt.Errorf("chaostest: deploy %s: %w", node, err)
	}
	return nil
}

// redeploy is the supervisor's recovery callback: bring the replacement
// instance into service at a fresh address (a new VM gets a new IP), then
// Reload every other live daemon from the re-rendered file and re-set the
// source's hops, so whatever named the dead address names the new one.
func (c *Cluster) redeploy(node, newInstance string) error {
	c.mu.Lock()
	c.instances[node] = newInstance
	c.epoch[node]++
	c.addr[node] = fmt.Sprintf("%s#%d", node, c.epoch[node])
	err := c.deployLocked(node)
	f := c.renderLocked()
	for _, m := range RelayNodes() {
		if d := c.daemons[m]; err == nil && m != node && d != nil {
			_, err = d.Reload(f, m)
		}
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.src.SetHops(f.NodeTable("V1")[Session])
	return nil
}

// Daemon returns a relay's live control daemon (nil while it is down).
func (c *Cluster) Daemon(node string) *controller.Daemon {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.daemons[node]
}

// DeployFileFor renders the butterfly against current addresses as a
// versioned deploy file — the document an operator would POST to a relay's
// /reload. With extraSession set, the file also names an inert second
// session on the given node (a forwarder entry pointing nowhere useful), so
// reload soaks can churn session adds and removes around the live traffic.
func (c *Cluster) DeployFileFor(node string, version int, extraSession bool) *controller.DeployFile {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.renderLocked()
	f.Version = version
	if extraSession {
		f.Sessions = append(f.Sessions, controller.DeploySession{
			ID:        200,
			Blocks:    c.params.GenerationBlocks,
			BlockSize: c.params.BlockSize,
			Roles:     map[string]string{node: "forwarder"},
			Tables:    map[string][]controller.DeployHopGroup{node: {{Addrs: []string{"spare"}}}},
		})
	}
	return f
}

// RollingRestart drains one relay to quiescence, closes it, and brings a
// replacement into service at a fresh address through redeploy — the
// in-process twin of one step of `ncctl rolling-restart`. The drain
// waiter runs on the cluster's virtual clock; realTimeout bounds, in real
// time, how long the harness keeps advancing the clock toward quiescence.
func (c *Cluster) RollingRestart(node string, realTimeout time.Duration) error {
	c.mu.Lock()
	d := c.daemons[node]
	inst := c.instances[node]
	c.mu.Unlock()
	if d == nil {
		return fmt.Errorf("chaostest: rolling restart %s: no live daemon", node)
	}
	if err := d.StartDrain(time.Minute); err != nil {
		return fmt.Errorf("chaostest: rolling restart %s: %w", node, err)
	}
	deadline := time.Now().Add(realTimeout) //nolint:nc real-time bound on the in-process drain goroutine, not simulated time
	for !d.Closed() {
		if time.Now().After(deadline) { //nolint:nc same real-time bound
			return fmt.Errorf("chaostest: rolling restart %s: drain never completed", node)
		}
		// The drain waiter polls quiescence sweeps on the virtual clock;
		// advance it and yield so the waiter gets scheduled between steps.
		c.Clock.Advance(time.Millisecond)
		time.Sleep(100 * time.Microsecond) //nolint:nc real-time yield to the drain goroutine
	}
	return c.redeploy(node, inst)
}

// CrashVNF kills a relay the hard way: the VM crashes at the cloud layer and
// the VNF process dies with it (all its coding state is lost). Detection and
// recovery are the supervisor's job.
func (c *Cluster) CrashVNF(node string) error {
	c.mu.Lock()
	inst := c.instances[node]
	d := c.daemons[node]
	c.daemons[node] = nil
	c.mu.Unlock()
	if err := c.Cloud.CrashInstance(inst); err != nil {
		return err
	}
	if d != nil {
		return d.Close()
	}
	return nil
}

// PartitionNode blackholes a relay's current address; the VM stays Running.
func (c *Cluster) PartitionNode(node string) {
	c.Net.PartitionHost(c.Addr(node))
}

// HealNode reconnects a partitioned relay. Partitions never trigger
// redeploys (the VM stays Running), so the address is the one PartitionNode
// isolated.
func (c *Cluster) HealNode(node string) {
	c.Net.HealHost(c.Addr(node))
}

// RunTicks advances virtual time by n supervision intervals, ticking the
// failover supervisor once at each step.
func (c *Cluster) RunTicks(n int) {
	for i := 0; i < n; i++ {
		c.Clock.Advance(Tick)
		c.Sup.Tick()
	}
}

// RunTicksUntilRecovered ticks until the supervisor has logged at least
// events failover events, up to max ticks. It returns the ticks consumed, or
// -1 if recovery did not complete.
func (c *Cluster) RunTicksUntilRecovered(events, max int) int {
	for i := 0; i < max; i++ {
		c.Clock.Advance(Tick)
		c.Sup.Tick()
		if len(c.Sup.Events()) >= events {
			return i + 1
		}
	}
	return -1
}

// SendGenerations encodes and sends n fresh generations of deterministic
// payload, remembering each for later resends. It returns the payload sent.
func (c *Cluster) SendGenerations(n int) ([]byte, error) {
	genBytes := c.params.GenerationBytes()
	var all []byte
	for i := 0; i < n; i++ {
		c.mu.Lock()
		idx := len(c.gens)
		c.mu.Unlock()
		data := make([]byte, genBytes)
		for j := range data {
			data[j] = byte(idx*31 + j)
		}
		gid, err := c.src.SendGeneration(data, false)
		if err != nil {
			return nil, err
		}
		if int(gid) != idx {
			return nil, fmt.Errorf("chaostest: generation id %d, expected %d", gid, idx)
		}
		c.mu.Lock()
		c.gens = append(c.gens, data)
		c.mu.Unlock()
		all = append(all, data...)
	}
	return all, nil
}

// Sent returns how many generations have been sent.
func (c *Cluster) Sent() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.gens)
}

// SinkData reassembles a sink's decoded stream over all sent generations.
func (c *Cluster) SinkData(sink string) ([]byte, bool) {
	return c.sinks[sink].Data(Session, c.Sent())
}

// WaitAllDecoded blocks until every sink has decoded every sent generation,
// driving the source's reliability path (resend missing generations) while
// it waits. The timeout is real time — it only bounds how long the harness
// waits for in-process goroutines, not simulated time.
func (c *Cluster) WaitAllDecoded(timeout time.Duration) error {
	deadline := time.NewTimer(timeout) //nolint:nc real-time bound on in-process goroutines, not simulated time
	defer deadline.Stop()
	resend := time.NewTicker(25 * time.Millisecond) //nolint:nc real-time resend pacing while the harness waits
	defer resend.Stop()
	for {
		if c.allDecoded() {
			return nil
		}
		select {
		case <-c.src.Acks():
			// Progress: a sink decoded something; loop re-checks.
		case <-resend.C:
			c.resendMissing()
		case <-deadline.C:
			return fmt.Errorf("chaostest: decode incomplete after %v: %s", timeout, c.describeProgress())
		}
	}
}

func (c *Cluster) allDecoded() bool {
	total := c.Sent()
	for _, s := range sinkNodes {
		if c.sinks[s].Generations(Session) < total {
			return false
		}
	}
	return true
}

func (c *Cluster) describeProgress() string {
	total := c.Sent()
	var b bytes.Buffer
	for _, s := range sinkNodes {
		fmt.Fprintf(&b, "%s=%d/%d ", s, c.sinks[s].Generations(Session), total)
	}
	return b.String()
}

// resendMissing re-encodes every generation some sink is still missing —
// the source-side reliability loop (ACK-timeout resend).
func (c *Cluster) resendMissing() {
	total := c.Sent()
	missing := make(map[int]bool)
	for _, s := range sinkNodes {
		for _, g := range c.sinks[s].MissingBelow(Session, total) {
			missing[int(g)] = true
		}
	}
	gids := make([]int, 0, len(missing))
	for g := range missing {
		gids = append(gids, g)
	}
	sort.Ints(gids)
	c.mu.Lock()
	gens := c.gens
	c.mu.Unlock()
	for _, g := range gids {
		// Two extra packets per hop group per round: enough to regrow full
		// rank at the relays within a few rounds without flooding.
		_ = c.src.ResendGeneration(ncproto.GenerationID(g), gens[g], 2)
	}
}

// Close tears the whole deployment down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	daemons := make([]*controller.Daemon, 0, len(c.daemons))
	for _, d := range c.daemons {
		if d != nil {
			daemons = append(daemons, d)
		}
	}
	c.mu.Unlock()
	if c.src != nil {
		c.src.Close()
	}
	for _, s := range c.sinks {
		s.Close()
	}
	for _, d := range daemons {
		d.Close()
	}
	return c.Net.Close()
}
