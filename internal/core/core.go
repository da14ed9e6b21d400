// Package core is the top-level orchestration API — the paper's primary
// contribution assembled into one deployable service. A Service takes an
// overlay graph of sources, candidate data centers, and receivers; its
// controller solves the coding-function deployment and routing program
// (Sec. IV) as sessions and receivers come and go (Algorithm 3), and each
// decision is applied to live coding VNFs on the in-process emulated
// network, with sources and receivers wired up, moving data with
// randomized network coding.
//
// The examples/ directory shows the intended usage: build a Service, add
// sessions, then Send.
package core

import (
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
}

// Service orchestrates sessions over deployed coding functions. Its
// controller decides (program (2) and Algorithm 3 on every join and quit);
// the Service renders each decision as a deploy file and reconciles the
// running data plane with it.
type Service struct {
	cfg  Config
	reg  *telemetry.Registry
	net  *emunet.Network
	ctrl *controller.Controller

	mu      sync.Mutex
	file    *controller.DeployFile // the last file applied
	daemons map[topology.NodeID]*controller.Daemon
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
	reg := telemetry.NewRegistry()
	return &Service{
		cfg: cfg,
		reg: reg,
		net: buildNetwork(cfg.Graph, reg),
		ctrl: controller.New(controller.Config{
			Optimize: optimize.Config{
				Graph:       cfg.Graph,
				DataCenters: slices.Clone(cfg.DataCenters),
				Alpha:       cfg.Alpha,
				MaxPathHops: maxPathHops,
			},
			// The pools' launches are bookkeeping: each data center runs
			// one in-process VNF whatever its pool holds.
			Cloud: cloud.New(nil, cfg.Seed, regions...),
		}),
		file:      &controller.DeployFile{},
		daemons:   make(map[topology.NodeID]*controller.Daemon),
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

// apply runs one controller decision and reconciles the data plane with
// the plan it leaves.
func (s *Service) apply(decide func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrAlreadyClosed
	}
	if err := decide(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return s.applyLocked()
}

// applyLocked renders the controller's plan as the next version of the
// deploy file and brings the data plane to it: every data center's daemon
// reloads the file (one that gains its first role gets a daemon,
// cold-started), every routed session gets a Source fed its table entry,
// each receiver node a shared endpoint decoding its sessions, and what the
// file dropped is retired.
func (s *Service) applyLocked() error {
	sessions, plan := s.ctrl.Plan()
	f, err := controller.BuildDeployFile(s.cfg.Params, s.cfg.Redundancy, sessions, plan, func(dc topology.NodeID) []string {
		// Live mode runs one VNF instance per data center; generation
		// dispatch across multiple instances is exercised by the
		// dataplane unit tests.
		return []string{string(dc)}
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
	prev := s.file
	f.Version = prev.Version + 1
	s.file = f

	for _, dc := range s.cfg.DataCenters {
		d, ok := s.daemons[dc.ID]
		if !ok {
			// A data center has a role exactly where it forwards.
			if len(f.NodeTable(string(dc.ID))) == 0 {
				continue
			}
			opts := []dataplane.VNFOption{
				dataplane.WithSeed(s.cfg.Seed + int64(len(s.daemons)) + 100),
				dataplane.WithTelemetry(s.reg),
			}
			if s.cfg.BufferGenerations > 0 {
				opts = append(opts, dataplane.WithBufferCapacity(s.cfg.BufferGenerations))
			}
			d = controller.NewDaemon(s.net.Host(string(dc.ID)), nil, opts...)
			s.daemons[dc.ID] = d
		}
		_, err := d.Reload(f, string(dc.ID))
		if err == nil && !ok {
			err = d.Apply(&controller.Message{Signal: controller.NCStart})
		}
		if err != nil {
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
		had := receivers(prev, sess.ID)
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
	for _, ds := range prev.Sessions {
		id := ncproto.SessionID(ds.ID)
		recv := receivers(f, id)
		for _, r := range receivers(prev, id) {
			if !slices.Contains(recv, r) {
				s.endpoints[topology.NodeID(r)].RemoveSession(id)
			}
		}
		if recv == nil {
			s.sources[id].SetHops(nil)
		}
	}
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
		cfg := emunet.LinkConfig{Delay: l.Delay, QueuePackets: 512}
		if l.CapacityMbps > 0 {
			cfg.RateBps = l.CapacityMbps * 1e6
		}
		n.SetLink(string(l.From), string(l.To), cfg)
	}
	return n
}

// Telemetry returns the deployment-wide registry: every VNF, receiver
// endpoint, and the network report into it, so one Snapshot covers the
// whole data plane.
func (s *Service) Telemetry() *telemetry.Registry { return s.reg }

// Network exposes the underlying packet network (for tests and
// experiments that add impairments to its links).
func (s *Service) Network() *emunet.Network { return s.net }

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
