// Package core is the top-level orchestration API — the paper's primary
// contribution assembled into one deployable service. A Service takes an
// overlay graph of sources, candidate data centers, and receivers, solves
// the coding-function deployment and routing program (Sec. IV), deploys
// live coding VNFs onto a packet network (the in-process emulated network,
// or real UDP sockets), wires up sources and receivers, and moves data with
// randomized network coding.
//
// The examples/ directory shows the intended usage: build a Service,
// register sessions, Deploy, then Send.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

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

// Service orchestrates sessions over deployed coding functions.
type Service struct {
	cfg Config

	reg *telemetry.Registry

	mu        sync.Mutex
	sessions  []optimize.Session
	plan      *optimize.Plan
	net       *emunet.Network
	daemons   []*controller.Daemon
	sources   map[ncproto.SessionID]*dataplane.Source
	endpoints map[topology.NodeID]*dataplane.MultiReceiver
	closed    bool
}

// NewService builds an (undeployed) service.
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
	return &Service{
		cfg:       cfg,
		reg:       telemetry.NewRegistry(),
		sources:   make(map[ncproto.SessionID]*dataplane.Source),
		endpoints: make(map[topology.NodeID]*dataplane.MultiReceiver),
	}, nil
}

// AddSession registers a session before deployment.
func (s *Service) AddSession(sess optimize.Session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan != nil {
		return errors.New("core: cannot add sessions after Deploy")
	}
	for _, have := range s.sessions {
		if have.ID == sess.ID {
			return fmt.Errorf("core: duplicate session %d", sess.ID)
		}
	}
	s.sessions = append(s.sessions, sess)
	return nil
}

// Plan returns the solved deployment plan (after Deploy).
func (s *Service) Plan() *optimize.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan
}

// Deploy solves program (2) for the registered sessions, renders the plan
// as a controller.DeployFile, and instantiates the data plane from it: one
// daemon-managed coding VNF per data center the file gives a role, cold-
// started with the control messages ncctl would send, a Source per session
// fed its table entry, and a receiving endpoint per destination.
func (s *Service) Deploy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrAlreadyClosed
	}
	if s.plan != nil {
		return errors.New("core: already deployed")
	}
	if len(s.sessions) == 0 {
		return errors.New("core: no sessions registered")
	}
	ocfg := optimize.Config{
		Graph:       s.cfg.Graph,
		DataCenters: s.cfg.DataCenters,
		Alpha:       s.cfg.Alpha,
		MaxPathHops: maxPathHops,
	}
	plan, err := optimize.Solve(ocfg, s.sessions)
	if err != nil {
		return fmt.Errorf("core: solve deployment: %w", err)
	}
	f, err := controller.BuildDeployFile(s.cfg.Params, s.cfg.Redundancy, s.sessions, plan, func(dc topology.NodeID) []string {
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

	s.net = buildNetwork(s.cfg.Graph, s.reg)

	// Reverse paths for generation ACKs: receiver → source.
	for _, sess := range s.sessions {
		for _, r := range sess.Receivers {
			s.net.SetLink(string(r), string(sess.Source), emunet.LinkConfig{})
		}
	}

	// Cold-start a daemon at every data center the file gives a role,
	// with the NC_SETTINGS → NC_FORWARD_TAB → NC_START sequence ncctl
	// sends to ncd.
	for _, dc := range s.cfg.DataCenters {
		msgs, err := f.NodeMessages(string(dc.ID))
		if err != nil {
			return fmt.Errorf("core: messages for %s: %w", dc.ID, err)
		}
		if msgs == nil {
			continue
		}
		opts := []dataplane.VNFOption{
			dataplane.WithSeed(s.cfg.Seed + int64(len(s.daemons)) + 100),
			dataplane.WithTelemetry(s.reg),
		}
		if s.cfg.BufferGenerations > 0 {
			opts = append(opts, dataplane.WithBufferCapacity(s.cfg.BufferGenerations))
		}
		d := controller.NewDaemon(s.net.Host(string(dc.ID)), nil, opts...)
		s.daemons = append(s.daemons, d)
		for _, m := range msgs {
			if err := d.Apply(m); err != nil {
				return fmt.Errorf("core: deploy %s: %w", dc.ID, err)
			}
		}
	}

	// Sources and receivers.
	for _, sess := range s.sessions {
		rate := plan.Rates[sess.ID]
		src, err := dataplane.NewSource(s.net.Host(string(sess.Source)), dataplane.SourceConfig{
			Session:    sess.ID,
			Params:     s.cfg.Params,
			RateMbps:   rate,
			Redundancy: s.cfg.Redundancy,
			Systematic: true,
			Seed:       s.cfg.Seed + int64(sess.ID),
		})
		if err != nil {
			return fmt.Errorf("core: source for session %d: %w", sess.ID, err)
		}
		src.SetHops(f.NodeTable(string(sess.Source))[sess.ID])
		s.sources[sess.ID] = src

		// One receiving endpoint per node, shared by every session that
		// terminates there (a node may subscribe to several sessions).
		for _, r := range sess.Receivers {
			ep, ok := s.endpoints[r]
			if !ok {
				ep = dataplane.NewMultiReceiver(s.net.Host(string(r)), dataplane.WithTelemetry(s.reg))
				s.endpoints[r] = ep
			}
			if err := ep.AddSession(sess.ID, s.cfg.Params, string(sess.Source)); err != nil {
				return fmt.Errorf("core: receiver %s for session %d: %w", r, sess.ID, err)
			}
		}
	}
	s.plan = plan
	return nil
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
func (s *Service) Telemetry() *telemetry.Registry {
	return s.reg
}

// Network exposes the underlying packet network (for tests that add
// impairments after deployment).
func (s *Service) Network() *emunet.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.net
}

// Source returns the sender handle of a session.
func (s *Service) Source(id ncproto.SessionID) (*dataplane.Source, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.sources[id]
	if !ok {
		return nil, fmt.Errorf("%w: session %d", ErrNotDeployed, id)
	}
	return src, nil
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
	src, ok := s.sources[id]
	var receiverAddrs []string
	var sess *optimize.Session
	for i := range s.sessions {
		if s.sessions[i].ID == id {
			sess = &s.sessions[i]
		}
	}
	if sess != nil {
		for _, r := range sess.Receivers {
			receiverAddrs = append(receiverAddrs, string(r))
		}
	}
	s.mu.Unlock()
	if !ok || sess == nil {
		return transfer.MulticastStats{}, fmt.Errorf("%w: session %d", ErrNotDeployed, id)
	}
	cfg := transfer.MulticastConfig{Receivers: receiverAddrs}
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
	if s.net != nil {
		return s.net.Close()
	}
	return nil
}
