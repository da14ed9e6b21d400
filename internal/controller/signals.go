// Package controller implements the control plane of Sec. III-A and the
// dynamic deployment and scaling algorithms of Sec. IV-B.
//
// A central controller computes coding-function deployments by solving
// program (2) (package optimize), launches and recycles VNFs (VMs) through
// the cloud API with the paper's τ-delayed shutdown for reuse, and pushes
// per-session settings and forwarding tables to daemons running beside each
// coding function. The controller reacts to bandwidth variation (Alg. 1)
// and session/receiver churn (Alg. 3); it does not react to delay changes
// (Alg. 2), which no experiment exercises.
package controller

import (
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/ncproto"
)

// Signal is a control-plane message type (Sec. III-A's signal list).
type Signal int

// The five control signals of Sec. III-A.
const (
	// NCStart starts network-coding-enabled transmission for a session.
	NCStart Signal = iota + 1
	// NCVNFStart launches new VNFs (VMs) in a data center.
	NCVNFStart
	// NCVNFEnd informs a VNF it is no longer used; the daemon shuts the
	// VM down after τ, allowing reuse if demand returns.
	NCVNFEnd
	// NCForwardTab pushes a forwarding-table update.
	NCForwardTab
	// NCSettings delivers per-session VNF roles, session IDs, UDP ports,
	// and generation/block sizes.
	NCSettings
	// NCSessionEnd removes one session's configuration and coding state
	// without touching the rest of the VNF — the per-session half of
	// NCVNFEnd, used by deploy-file hot-reloads to retire sessions a new
	// config no longer names.
	NCSessionEnd
)

// String names the signal using the paper's identifiers.
func (s Signal) String() string {
	switch s {
	case NCStart:
		return "NC_START"
	case NCVNFStart:
		return "NC_VNF_START"
	case NCVNFEnd:
		return "NC_VNF_END"
	case NCForwardTab:
		return "NC_FORWARD_TAB"
	case NCSettings:
		return "NC_SETTINGS"
	case NCSessionEnd:
		return "NC_SESSION_END"
	default:
		return "NC_UNKNOWN"
	}
}

// Message is one controller→daemon control message: the signal vocabulary
// Daemon.Apply runs. A deploy file reaches a daemon as the messages of its
// diff, applied in process by Daemon.Reload.
type Message struct {
	Signal Signal `json:"signal"`
	// Session applies to NCStart and session-scoped settings.
	Session ncproto.SessionID `json:"session,omitempty"`
	// Settings carries NCSettings payloads.
	Settings *dataplane.SessionConfig `json:"settings,omitempty"`
	// Table carries NCForwardTab payloads: nil hop slices delete entries.
	Table map[ncproto.SessionID][]dataplane.HopGroup `json:"table,omitempty"`
	// NumVNFs is how many VNFs NCVNFStart requests.
	NumVNFs int `json:"numVNFs,omitempty"`
	// ShutdownAfter is τ for NCVNFEnd.
	ShutdownAfter time.Duration `json:"shutdownAfterNs,omitempty"`
}
