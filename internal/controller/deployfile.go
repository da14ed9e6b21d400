package controller

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"ncfn/internal/dataplane"
	"ncfn/internal/gf"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/telemetry"
)

// DeployFile is the deployment JSON schema: sessions, roles, forwarding
// tables, and peer address bindings as one document (see cmd/ncctl for an
// example). ncctl reads it to drive start/stop/reload/rolling-restart, the
// procnet harness writes it for the multi-process tiers, and a daemon's
// admin /reload endpoint diffs one against its live state to hot-apply
// changes without a restart. Version, when nonzero, makes reloads
// monotonic: a daemon refuses a reload whose version is not newer than the
// one it last applied.
type DeployFile struct {
	Version  int             `json:"version,omitempty"`
	Sessions []DeploySession `json:"sessions"`
	// Peers maps logical node names to UDP data-plane addresses.
	Peers map[string]string `json:"peers,omitempty"`
	// Daemons maps node names to TCP control addresses.
	Daemons map[string]string `json:"daemons,omitempty"`
	// Admin maps node names to HTTP admin addresses.
	Admin map[string]string `json:"admin,omitempty"`
}

// DeploySession is one session entry of the deployment document.
type DeploySession struct {
	ID         int `json:"id"`
	Blocks     int `json:"blocks"`
	BlockSize  int `json:"blockSize"`
	Redundancy int `json:"redundancy"`
	// Field selects the coefficient field: 2 for GF(2), 256 or 0 for
	// GF(2^8).
	Field    int                         `json:"field,omitempty"`
	Roles    map[string]string           `json:"roles"`
	InPerGen map[string]int              `json:"inPerGen,omitempty"`
	Tables   map[string][]DeployHopGroup `json:"tables,omitempty"`
}

// DeployHopGroup is one next-hop group of a forwarding-table entry.
type DeployHopGroup struct {
	Addrs  []string `json:"addrs"`
	PerGen int      `json:"perGen,omitempty"`
}

// ParseFieldOrder maps the JSON field order (2, 256, or 0 for the default)
// to the gf.Field enum.
func ParseFieldOrder(order int) (gf.Field, error) {
	switch order {
	case 0, 256:
		return gf.GF256, nil
	case 2:
		return gf.GF2, nil
	default:
		return 0, fmt.Errorf("unknown field order %d (want 2 or 256)", order)
	}
}

// ParseRole maps a deploy-file role string to a dataplane role.
func ParseRole(s string) (dataplane.Role, error) {
	switch s {
	case "recoder":
		return dataplane.RoleRecoder, nil
	case "decoder":
		return dataplane.RoleDecoder, nil
	case "forwarder":
		return dataplane.RoleForwarder, nil
	default:
		return 0, fmt.Errorf("unknown role %q", s)
	}
}

// Params builds the session's coding parameters, applying the defaults for
// omitted blocks/blockSize.
func (s *DeploySession) Params() (rlnc.Params, error) {
	blocks := s.Blocks
	if blocks == 0 {
		blocks = rlnc.DefaultGenerationBlocks
	}
	blockSize := s.BlockSize
	if blockSize == 0 {
		blockSize = rlnc.DefaultBlockSize
	}
	field, err := ParseFieldOrder(s.Field)
	if err != nil {
		return rlnc.Params{}, fmt.Errorf("session %d: %w", s.ID, err)
	}
	p := rlnc.Params{GenerationBlocks: blocks, BlockSize: blockSize, Field: field}
	if err := p.Validate(); err != nil {
		return rlnc.Params{}, fmt.Errorf("session %d: %w", s.ID, err)
	}
	return p, nil
}

// Config builds the session's dataplane configuration for one node, or
// (nil, nil) when the node plays no role in the session.
func (s *DeploySession) Config(node string) (*dataplane.SessionConfig, error) {
	roleName, ok := s.Roles[node]
	if !ok {
		return nil, nil
	}
	role, err := ParseRole(roleName)
	if err != nil {
		return nil, fmt.Errorf("session %d: node %s: %w", s.ID, node, err)
	}
	params, err := s.Params()
	if err != nil {
		return nil, err
	}
	return &dataplane.SessionConfig{
		ID:         ncproto.SessionID(s.ID),
		Params:     params,
		Role:       role,
		Redundancy: s.Redundancy,
		InPerGen:   s.InPerGen[node],
	}, nil
}

// ParseDeployFile unmarshals and validates a deployment document: every
// session's roles and parameters must parse for every node they name.
func ParseDeployFile(raw []byte) (*DeployFile, error) {
	var f DeployFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("controller: parse deploy file: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Validate checks every session's roles and coding parameters.
func (f *DeployFile) Validate() error {
	seen := make(map[int]bool, len(f.Sessions))
	for i := range f.Sessions {
		s := &f.Sessions[i]
		if seen[s.ID] {
			return fmt.Errorf("controller: deploy file: duplicate session %d", s.ID)
		}
		seen[s.ID] = true
		if s.ID < 0 || s.ID > math.MaxUint16 {
			return fmt.Errorf("controller: deploy file: session %d: id outside the wire's 16 bits", s.ID)
		}
		if _, err := s.Params(); err != nil {
			return fmt.Errorf("controller: deploy file: %w", err)
		}
		for node, roleName := range s.Roles {
			if _, err := ParseRole(roleName); err != nil {
				return fmt.Errorf("controller: deploy file: session %d: node %s: %w", s.ID, node, err)
			}
		}
	}
	return nil
}

// Nodes lists the daemon nodes in deterministic (sorted) order.
func (f *DeployFile) Nodes() []string {
	nodes := make([]string, 0, len(f.Daemons))
	for n := range f.Daemons {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	return nodes
}

// NodeTable builds the desired forwarding table for one node: one entry per
// session that routes through it.
func (f *DeployFile) NodeTable(node string) map[ncproto.SessionID][]dataplane.HopGroup {
	table := make(map[ncproto.SessionID][]dataplane.HopGroup)
	for i := range f.Sessions {
		s := &f.Sessions[i]
		if groups, ok := s.Tables[node]; ok {
			table[ncproto.SessionID(s.ID)] = hopGroups(groups)
		}
	}
	return table
}

// hopGroups converts a table entry's hop groups; an entry with none is nil.
func hopGroups(groups []DeployHopGroup) []dataplane.HopGroup {
	if len(groups) == 0 {
		return nil
	}
	hops := make([]dataplane.HopGroup, len(groups))
	for i, g := range groups {
		hops[i] = dataplane.HopGroup{Addrs: g.Addrs, PerGen: g.PerGen}
	}
	return hops
}

// ColdStart builds the control sequence that brings a blank daemon up as
// the file's node: the file's diff against an empty node, with the peer
// bindings on its first message, then NC_START. A node with no role in any
// session yields nil.
func (f *DeployFile) ColdStart(node string) ([]*Message, error) {
	msgs, _, err := f.diff(node, nil, nil)
	if err != nil || len(msgs) == 0 {
		return nil, err
	}
	msgs[0].Peers = f.Peers
	return append(msgs, &Message{Signal: NCStart}), nil
}

// ReloadSummary reports what a hot-reload changed.
type ReloadSummary struct {
	Version             int `json:"version"`
	SessionsAdded       int `json:"sessionsAdded"`
	SessionsUpdated     int `json:"sessionsUpdated"`
	SessionsRemoved     int `json:"sessionsRemoved"`
	TableEntriesChanged int `json:"tableEntriesChanged"`
}

// changes is the total number of applied changes.
func (s ReloadSummary) changes() int {
	return s.SessionsAdded + s.SessionsUpdated + s.SessionsRemoved + s.TableEntriesChanged
}

// diff is the one deploy-file differ: given a node's live sessions and
// forwarding table, the control messages that bring it to the file's view of
// the node, and a summary of what they change. In order:
//
//   - NC_SETTINGS for each session the file adds on the node or whose
//     settings differ, in file order — a settings change replaces the
//     session's coding state wholesale, so an unchanged session is never
//     touched;
//   - ONE NC_FORWARD_TAB carrying every changed table entry, i.e. one RCU
//     snapshot swap with no pause events; an entry whose session stays but
//     loses its table is deleted (nil hops), and the entries of sessions the
//     file drops go with their NC_SESSION_END;
//   - NC_SESSION_END for each live session the file no longer names on the
//     node, in ID order.
//
// A table entry counts only where the node plays a role in its session (the
// source's entry is not a daemon's), and an entry with no hop groups is no
// entry. Against an empty node (nil, nil) the messages are the cold start.
func (f *DeployFile) diff(node string, live map[ncproto.SessionID]dataplane.SessionConfig,
	table map[ncproto.SessionID][]dataplane.HopGroup) ([]*Message, ReloadSummary, error) {
	var msgs []*Message
	var sum ReloadSummary
	desired := make(map[ncproto.SessionID]bool)
	batch := make(map[ncproto.SessionID][]dataplane.HopGroup)
	for i := range f.Sessions {
		s := &f.Sessions[i]
		cfg, err := s.Config(node)
		if err != nil {
			return nil, sum, err
		}
		if cfg == nil {
			continue
		}
		desired[cfg.ID] = true
		if have, ok := live[cfg.ID]; !ok || have != *cfg {
			msgs = append(msgs, &Message{Signal: NCSettings, Settings: cfg})
			if ok {
				sum.SessionsUpdated++
			} else {
				sum.SessionsAdded++
			}
		}
		if hops := hopGroups(s.Tables[node]); !equalHopGroups(table[cfg.ID], hops) {
			batch[cfg.ID] = hops
		}
	}
	if len(batch) > 0 {
		msgs = append(msgs, &Message{Signal: NCForwardTab, Table: batch})
		sum.TableEntriesChanged = len(batch)
	}
	var ended []ncproto.SessionID
	for id := range live {
		if !desired[id] {
			ended = append(ended, id)
		}
	}
	slices.Sort(ended)
	for _, id := range ended {
		msgs = append(msgs, &Message{Signal: NCSessionEnd, Session: id})
	}
	sum.SessionsRemoved = len(ended)
	return msgs, sum, nil
}

// Reload brings the daemon's live VNF to the deploy file's view of one node
// by applying diff's messages. Peer bindings in the file are NOT registered
// here (the transport layer owns name resolution); the admin endpoint
// registers them before calling Reload. Reload refuses to run on a draining
// or closed daemon and, for versioned files, enforces version monotonicity.
func (d *Daemon) Reload(f *DeployFile, node string) (ReloadSummary, error) {
	if err := f.Validate(); err != nil {
		return ReloadSummary{}, err
	}
	if err := d.checkReloadable(f.Version); err != nil {
		return ReloadSummary{}, err
	}
	vnf := d.VNF()
	live := make(map[ncproto.SessionID]dataplane.SessionConfig)
	for _, id := range vnf.SessionIDs() {
		if cfg, ok := vnf.SessionConfigFor(id); ok {
			live[id] = cfg
		}
	}
	msgs, sum, err := f.diff(node, live, vnf.Table().Snapshot())
	sum.Version = f.Version
	if err != nil {
		return sum, err
	}
	for _, m := range msgs {
		if err := d.Apply(m); err != nil {
			return sum, err
		}
	}
	vnf.Telemetry().Recorder(dataplane.FlightRecorderName, telemetry.DefaultRecorderCapacity).
		Record(d.clock.Now().UnixNano(), telemetry.EventReload, node, 0, 0, int64(sum.changes()))
	return sum, nil
}

// equalHopGroups reports whether two hop-group lists are identical.
func equalHopGroups(a, b []dataplane.HopGroup) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PerGen != b[i].PerGen || len(a[i].Addrs) != len(b[i].Addrs) {
			return false
		}
		for j := range a[i].Addrs {
			if a[i].Addrs[j] != b[i].Addrs[j] {
				return false
			}
		}
	}
	return true
}
