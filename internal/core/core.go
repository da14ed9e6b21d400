// Package core is the top-level orchestration API — the paper's primary
// contribution assembled into one deployable service. A Service takes an
// overlay graph of sources, candidate data centers, and receivers; its
// controller solves the coding-function deployment and routing program
// (Sec. IV) as sessions and receivers come and go (Algorithm 3), and each
// decision is applied to live coding VNFs on the in-process emulated
// network, with sources and receivers wired up, moving data with
// randomized network coding. Ticked, the Service also heals: a dead VNF is
// relaunched and the controller's file re-applied (Sec. V-C5).
//
// The examples/ directory shows the intended usage: build a Service, add
// sessions, then Send.
package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/controller"
	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
	"ncfn/internal/telemetry"
	"ncfn/internal/topology"
	"ncfn/internal/transfer"
)

// Errors.
var (
	ErrNotDeployed   = errors.New("core: service not deployed")
	ErrAlreadyClosed = errors.New("core: service closed")
)

// maxPathHops bounds feasible paths: up to 3 relays, which covers the
// butterfly's long branch.
const maxPathHops = 4

// Config describes a Service deployment.
type Config struct {
	// Graph is the overlay: sources, data centers, receivers, and links
	// with capacity (Mbps) and delay. Links with zero capacity are
	// treated as unconstrained.
	Graph *topology.Graph
	// DataCenters lists candidate VNF sites and their per-VNF resources.
	DataCenters []optimize.DataCenter
	// Alpha is the throughput/cost tradeoff factor of program (2).
	Alpha float64
	// Params are the coding parameters (defaults to the paper's 4x1460).
	Params rlnc.Params
	// Redundancy is extra coded packets per generation (NC0/NC1/NC2).
	Redundancy int
	// BufferGenerations overrides each VNF's generation buffer capacity
	// (Fig. 5's sweep parameter); zero selects the 1024 default.
	BufferGenerations int
	// ForceForwarding turns every relay into a plain forwarder — the
	// routing-only ("Non-NC") baseline of Fig. 7, which moves packets
	// through the same relays but never mixes them.
	ForceForwarding bool
	// Seed fixes coding randomness.
	Seed int64
	// Clock drives the cloud, the controller, the supervisor and the VNFs'
	// lifecycle (nil: the real clock). Links and Send run in real time.
	Clock simclock.Clock
}

// Service orchestrates sessions over deployed coding functions. Its
// controller decides (program (2) and Algorithm 3 on every join and quit);
// the Service renders each decision as a deploy file and reconciles the
// running data plane with it.
type Service struct {
	cfg   Config
	reg   *telemetry.Registry
	net   *emunet.Network
	cloud *cloud.Cloud
	ctrl  *controller.Controller
	sup   *controller.Supervisor

	mu      sync.Mutex
	file    *controller.DeployFile // the last file every live daemon took
	daemons map[topology.NodeID]*controller.Daemon
	// moves counts each data center's redeploys (see addrLocked); started
	// counts the VNFs ever started, which seeds the next.
	moves   map[topology.NodeID]int
	started int
	// sources holds one Source per session ever routed. A removed
	// session's Source is unrouted, not closed: closing it would close its
	// node's emunet host for good, and the session may return.
	sources map[ncproto.SessionID]*dataplane.Source
	// sourceAt names the one session each node sources, live or parked:
	// two Sources on one emunet host would read each other's traffic.
	sourceAt  map[topology.NodeID]ncproto.SessionID
	endpoints map[topology.NodeID]*dataplane.MultiReceiver
	closed    bool
}

// NewService builds a service with no sessions over the emulated network
// of the overlay graph.
func NewService(cfg Config) (*Service, error) {
	if cfg.Graph == nil {
		return nil, errors.New("core: nil graph")
	}
	if cfg.Params.GenerationBlocks == 0 && cfg.Params.BlockSize == 0 {
		cfg.Params = rlnc.DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	regions := make([]cloud.Region, len(cfg.DataCenters))
	for i, dc := range cfg.DataCenters {
		regions[i] = cloud.Region{ID: dc.ID}
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	reg := telemetry.NewRegistry()
	cl := cloud.New(cfg.Clock, cfg.Seed, regions...)
	cl.AttachTelemetry(reg)
	return &Service{
		cfg:   cfg,
		reg:   reg,
		net:   buildNetwork(cfg.Graph, reg),
		cloud: cl,
		ctrl: controller.New(controller.Config{
			Optimize: optimize.Config{
				Graph:       cfg.Graph,
				DataCenters: slices.Clone(cfg.DataCenters),
				Alpha:       cfg.Alpha,
				MaxPathHops: maxPathHops,
			},
			Cloud: cl,
			Clock: cfg.Clock,
		}),
		sup:       controller.NewSupervisor(controller.SupervisorConfig{Cloud: cl, Clock: cfg.Clock, Telemetry: reg}),
		file:      &controller.DeployFile{},
		daemons:   make(map[topology.NodeID]*controller.Daemon),
		moves:     make(map[topology.NodeID]int),
		sources:   make(map[ncproto.SessionID]*dataplane.Source),
		sourceAt:  make(map[topology.NodeID]ncproto.SessionID),
		endpoints: make(map[topology.NodeID]*dataplane.MultiReceiver),
	}, nil
}

// AddSession admits sessions jointly — one solve of program (2) over them,
// with the flows of sessions already admitted pinned — and brings them up
// on the running deployment. A node sources one session: a session whose
// source already sources another, live or removed, is refused before the
// solve.
func (s *Service) AddSession(ss ...optimize.Session) error {
	return s.apply(func() error {
		claimed := maps.Clone(s.sourceAt)
		for _, sess := range ss {
			if id, ok := claimed[sess.Source]; ok && id != sess.ID {
				return fmt.Errorf("session %d: node %s already sources session %d", sess.ID, sess.Source, id)
			}
			claimed[sess.Source] = sess.ID
		}
		if err := s.ctrl.AddSession(ss...); err != nil {
			return err
		}
		s.sourceAt = claimed
		return nil
	})
}

// RemoveSession ends a session; the controller may re-plan the rest.
func (s *Service) RemoveSession(id ncproto.SessionID) error {
	return s.apply(func() error { return s.ctrl.RemoveSession(id) })
}

// AddReceiver joins a receiver node to a session.
func (s *Service) AddReceiver(id ncproto.SessionID, r topology.NodeID) error {
	return s.apply(func() error { return s.ctrl.AddReceiver(id, r) })
}

// RemoveReceiver takes a receiver node out of a session; removing the last
// one ends the session.
func (s *Service) RemoveReceiver(id ncproto.SessionID, r topology.NodeID) error {
	return s.apply(func() error { return s.ctrl.RemoveReceiver(id, r) })
}

// Plan returns the controller's adopted plan.
func (s *Service) Plan() *optimize.Plan {
	_, plan := s.ctrl.Plan()
	return plan
}

// apply runs one controller decision, reconciles the data plane with the
// plan it leaves, and supervises each VNF that started — outside s.mu,
// which a redeploy takes under the supervisor's lock.
func (s *Service) apply(decide func() error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrAlreadyClosed
	}
	had := maps.Clone(s.daemons)
	err := decide()
	if err != nil {
		err = fmt.Errorf("core: %w", err)
	} else {
		err = s.applyLocked()
	}
	var fresh []topology.NodeID
	for dc := range s.daemons {
		if had[dc] == nil {
			fresh = append(fresh, dc)
		}
	}
	s.mu.Unlock()
	check := controller.InstanceCheck(s.cloud)
	for _, dc := range fresh {
		_, _, inst := s.Relay(dc)
		s.sup.Manage(dc, dc, inst, func(string) error {
			// Check the instance the pool runs the VNF on now: one the
			// controller idled and reaped is no failure to heal.
			if _, _, inst := s.Relay(dc); inst != "" {
				return check(inst)
			}
			return nil
		}, func(_ context.Context, relaunched string) error { return s.Redeploy(dc, relaunched) })
	}
	return err
}

// Redeploy brings a data center's VNF back into service on a cloud
// instance, which takes the pool's place of the one that served: the old
// daemon is closed, a fresh one starts at a new address with the data
// center's graph links cloned onto it, and every live daemon reloads the
// re-rendered file. It is the supervisor's redeploy callback, and a
// rolling restart's last step.
func (s *Service) Redeploy(dc topology.NodeID, instance string) error {
	_, _, cur := s.Relay(dc)
	s.ctrl.ReplaceInstance(dc, cur, instance)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrAlreadyClosed
	}
	if s.daemons[dc] == nil {
		return fmt.Errorf("%w: data center %s", ErrNotDeployed, dc)
	}
	s.daemons[dc].Close()
	s.moves[dc]++
	for _, l := range s.cfg.Graph.Links() {
		if l.From == dc || l.To == dc {
			s.net.SetLink(s.addrLocked(l.From), s.addrLocked(l.To), linkConfig(l))
		}
	}
	s.startLocked(dc)
	return s.applyLocked()
}

// Tick advances the failover supervisor once on the Service's clock: each
// VNF's instance is health-checked on the cloud API, and a dead one is
// relaunched and, once running, redeployed. Only the Service's owner ticks.
func (s *Service) Tick() { s.sup.Tick() }

// addrLocked is a node's data-plane address: a data center's VNF serves at
// its ID, then at dc#2, dc#3, ... after redeploys (a new VM gets a new IP).
func (s *Service) addrLocked(node topology.NodeID) string {
	if n := s.moves[node]; n > 0 {
		return fmt.Sprintf("%s#%d", node, n+1)
	}
	return string(node)
}

// startLocked starts a data center's VNF at its current address.
func (s *Service) startLocked(dc topology.NodeID) *controller.Daemon {
	opts := []dataplane.VNFOption{
		dataplane.WithSeed(s.cfg.Seed + int64(s.started) + 100),
		dataplane.WithTelemetry(s.reg),
		dataplane.WithClock(s.cfg.Clock),
	}
	if s.cfg.BufferGenerations > 0 {
		opts = append(opts, dataplane.WithBufferCapacity(s.cfg.BufferGenerations))
	}
	s.started++
	s.daemons[dc] = controller.NewDaemon(s.net.Host(s.addrLocked(dc)), s.cfg.Clock, opts...)
	return s.daemons[dc]
}

// applyLocked renders the controller's plan as a deploy file and brings the
// data plane to it: every live daemon reloads the file (a data center that
// gains its first role gets a daemon, cold-started; a crashed one waits for
// its redeploy), every routed session gets a Source fed its table entry,
// each receiver node a shared endpoint decoding its sessions, and what the
// file dropped is retired. The file is recorded last, so a failed apply is
// retried against the file every daemon last took. Files are unversioned:
// s.mu orders them, and a retry re-sends the same content.
func (s *Service) applyLocked() error {
	sessions, plan := s.ctrl.Plan()
	f, err := controller.BuildDeployFile(s.cfg.Params, s.cfg.Redundancy, sessions, plan, func(dc topology.NodeID) []string {
		return []string{s.addrLocked(dc)}
	})
	if err != nil {
		return fmt.Errorf("core: build deploy file: %w", err)
	}
	if s.cfg.ForceForwarding {
		for i := range f.Sessions {
			for node, role := range f.Sessions[i].Roles {
				if role == dataplane.RoleRecoder.String() {
					f.Sessions[i].Roles[node] = dataplane.RoleForwarder.String()
				}
			}
		}
	}
	for _, dc := range s.cfg.DataCenters {
		d, ok := s.daemons[dc.ID]
		if !ok && len(f.NodeTable(string(dc.ID))) > 0 { // a role exactly where it forwards
			d = s.startLocked(dc.ID)
		}
		if d == nil || d.Closed() {
			continue
		}
		if _, err := d.Reload(f, string(dc.ID)); err != nil {
			return fmt.Errorf("core: apply deploy file at %s: %w", dc.ID, err)
		}
	}

	for _, sess := range sessions {
		recv := receivers(f, sess.ID)
		if recv == nil {
			continue // unrouted
		}
		src, ok := s.sources[sess.ID]
		if !ok {
			src, err = dataplane.NewSource(s.net.Host(string(sess.Source)), dataplane.SourceConfig{
				Session:    sess.ID,
				Params:     s.cfg.Params,
				RateMbps:   plan.Rates[sess.ID],
				Redundancy: s.cfg.Redundancy,
				Systematic: true,
				Seed:       s.cfg.Seed + int64(sess.ID),
			})
			if err != nil {
				return fmt.Errorf("core: source for session %d: %w", sess.ID, err)
			}
			s.sources[sess.ID] = src
		}
		src.SetHops(f.NodeTable(string(sess.Source))[sess.ID])

		// One receiving endpoint per node, shared by every session that
		// terminates there (a node may subscribe to several sessions).
		had := receivers(s.file, sess.ID)
		for _, r := range recv {
			if slices.Contains(had, r) {
				continue
			}
			// The reverse path for generation ACKs: receiver → source.
			s.net.SetLink(r, string(sess.Source), emunet.LinkConfig{})
			ep, ok := s.endpoints[topology.NodeID(r)]
			if !ok {
				ep = dataplane.NewMultiReceiver(s.net.Host(r), dataplane.WithTelemetry(s.reg))
				s.endpoints[topology.NodeID(r)] = ep
			}
			if err := ep.AddSession(sess.ID, s.cfg.Params, string(sess.Source)); err != nil {
				return fmt.Errorf("core: receiver %s for session %d: %w", r, sess.ID, err)
			}
		}
	}
	for _, ds := range s.file.Sessions {
		id := ncproto.SessionID(ds.ID)
		recv := receivers(f, id)
		for _, r := range receivers(s.file, id) {
			if !slices.Contains(recv, r) {
				s.endpoints[topology.NodeID(r)].RemoveSession(id)
			}
		}
		if recv == nil {
			s.sources[id].SetHops(nil)
		}
	}
	s.file = f
	return nil
}

// receivers lists, sorted, the nodes the file has decode a session; nil
// when the file does not route it.
func receivers(f *controller.DeployFile, id ncproto.SessionID) []string {
	var out []string
	for i := range f.Sessions {
		if f.Sessions[i].ID != int(id) {
			continue
		}
		for node, role := range f.Sessions[i].Roles {
			if role == dataplane.RoleDecoder.String() {
				out = append(out, node)
			}
		}
	}
	sort.Strings(out)
	return out
}

// buildNetwork materializes the overlay graph as an emulated network.
func buildNetwork(g *topology.Graph, reg *telemetry.Registry) *emunet.Network {
	n := emunet.NewNetwork(emunet.WithTelemetry(reg))
	for _, node := range g.Nodes() {
		n.Host(string(node.ID))
	}
	for _, l := range g.Links() {
		n.SetLink(string(l.From), string(l.To), linkConfig(l))
	}
	return n
}

// linkConfig shapes an overlay link.
func linkConfig(l topology.Link) emunet.LinkConfig {
	cfg := emunet.LinkConfig{Delay: l.Delay, QueuePackets: 512}
	if l.CapacityMbps > 0 {
		cfg.RateBps = l.CapacityMbps * 1e6
	}
	return cfg
}

// Telemetry returns the deployment-wide registry: every VNF, receiver
// endpoint, the network, the cloud and the supervisor report into it, so
// one Snapshot covers the whole deployment.
func (s *Service) Telemetry() *telemetry.Registry { return s.reg }

// Network exposes the underlying packet network (for tests and
// experiments that add impairments to its links).
func (s *Service) Network() *emunet.Network { return s.net }

// Cloud exposes the VM provider the controller launches VNFs on.
func (s *Service) Cloud() *cloud.Cloud { return s.cloud }

// Supervisor exposes the failover supervisor; its Events are the log.
func (s *Service) Supervisor() *controller.Supervisor { return s.sup }

// Relay returns a data center's VNF as it runs now: its daemon (nil before
// the file gives it a role, closed while it is down), its address, and the
// instance it runs on — whatever its pool holds, each data center runs one
// in-process VNF, on the pool's first active instance.
func (s *Service) Relay(dc topology.NodeID) (d *controller.Daemon, addr, instance string) {
	if inst := s.ctrl.Instances(dc); len(inst) > 0 {
		instance = inst[0]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.daemons[dc], s.addrLocked(dc), instance
}

// DeployFile returns a copy of the last deploy file every live daemon took;
// its sessions share their maps with the Service's file, read-only.
func (s *Service) DeployFile() *controller.DeployFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := *s.file
	f.Sessions = slices.Clone(f.Sessions)
	return &f
}

// Source returns the sender handle of a routed session.
func (s *Service) Source(id ncproto.SessionID) (*dataplane.Source, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if receivers(s.file, id) == nil {
		return nil, fmt.Errorf("%w: session %d", ErrNotDeployed, id)
	}
	return s.sources[id], nil
}

// Receiver returns the receiving endpoint at a node; read a session's
// bytes from it by session ID. Every session that terminates at the node
// shares the one endpoint.
func (s *Service) Receiver(node topology.NodeID) (*dataplane.MultiReceiver, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.endpoints[node]
	if !ok {
		return nil, fmt.Errorf("%w: receiver %s", ErrNotDeployed, node)
	}
	return ep, nil
}

// Send reliably multicasts data on a session, blocking until every
// receiver has acknowledged every generation (or reliability gives up).
func (s *Service) Send(id ncproto.SessionID, data []byte, timeout time.Duration) (transfer.MulticastStats, error) {
	s.mu.Lock()
	src, recv := s.sources[id], receivers(s.file, id)
	s.mu.Unlock()
	if recv == nil {
		return transfer.MulticastStats{}, fmt.Errorf("%w: session %d", ErrNotDeployed, id)
	}
	cfg := transfer.MulticastConfig{Receivers: recv}
	if timeout > 0 {
		cfg.AckTimeout = timeout
	}
	return transfer.Multicast(src, data, cfg)
}

// Close tears the deployment down: sources, receivers, VNFs, and the
// network.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, src := range s.sources {
		src.Close()
	}
	for _, ep := range s.endpoints {
		ep.Close()
	}
	for _, d := range s.daemons {
		d.Close()
	}
	return s.net.Close()
}
