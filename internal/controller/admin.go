package controller

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/gf"
	"ncfn/internal/ncproto"
	"ncfn/internal/telemetry"
)

// DefaultDrainDeadline bounds a drain that never quiesces (a wedged shard,
// a conn that keeps delivering admitted-generation traffic): the daemon
// closes anyway once it expires.
const DefaultDrainDeadline = 30 * time.Second

// AdminConfig wires a daemon's admin HTTP endpoint.
type AdminConfig struct {
	// Daemon is the node's control agent; required for /drain, /reload,
	// /restart and /stop (nil serves /stats only).
	Daemon *Daemon
	// Registry backs /stats (required).
	Registry *telemetry.Registry
	// Node is this daemon's logical name; /reload diffs the deploy file's
	// view of this node against the live VNF.
	Node string
	// Peers, when non-nil, receives the peer bindings of reloaded deploy
	// files: the names their forwarding tables use, resolved to UDP
	// addresses.
	Peers *emunet.Registry
	// DrainDeadline is the drain deadline when a request names none;
	// zero selects DefaultDrainDeadline.
	DrainDeadline time.Duration
	// Restart, when non-nil, enables POST /restart: it runs after the
	// restart's drain completed and the daemon closed (cmd/ncd re-execs
	// itself here). Nil answers /restart with 501.
	Restart func()
}

// NewAdminMux builds the admin endpoint, a daemon's only control surface:
// the observability routes (/stats, /debug/vars, /debug/pprof) plus the
// lifecycle routes — /drain (POST to start a graceful drain, GET for drain
// status), /reload (POST a deploy file to apply its diff; a blank daemon's
// cold start), /restart (POST to drain and then hand off to a fresh
// process), and /stop (POST NC_VNF_END with ?tau=). See PROTOCOL.md §4.
func NewAdminMux(cfg AdminConfig) *http.ServeMux {
	if cfg.DrainDeadline <= 0 {
		cfg.DrainDeadline = DefaultDrainDeadline
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		raw, err := json.MarshalIndent(statsOf(cfg), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(raw)
	})
	if cfg.Daemon != nil {
		mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) { handleDrain(cfg, w, r) })
		mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) { handleReload(cfg, w, r) })
		mux.HandleFunc("/restart", func(w http.ResponseWriter, r *http.Request) { handleRestart(cfg, w, r) })
		mux.HandleFunc("/stop", func(w http.ResponseWriter, r *http.Request) { handleStop(cfg, w, r) })
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statsDoc is the /stats document: the registry's telemetry snapshot and,
// beside it, what each session configured on the daemon's VNF would answer
// to "why is this relay holding that many generations" — its live set and the
// retirement watermark it has learned — and which GF(2^8) kernel this
// process multiplies with, the first thing to compare when two relays differ
// severalfold in CPU per megabyte. Readers of the snapshot alone
// (procnet.Stats, the benchmark) ignore the extra keys.
type statsDoc struct {
	telemetry.Snapshot
	GFKernel string                           `json:"gfKernel"`
	Sessions map[ncproto.SessionID]sessionDoc `json:"sessions,omitempty"`
}

// sessionDoc is one session's dataplane.SessionStats on the wire.
type sessionDoc struct {
	Role              string               `json:"role"`
	PacketsIn         uint64               `json:"packetsIn"`
	PacketsOut        uint64               `json:"packetsOut"`
	GenerationsDone   uint64               `json:"generationsDone"`
	GenerationsActive int                  `json:"generationsActive"`
	DoneBelow         ncproto.GenerationID `json:"doneBelow"`
}

func statsOf(cfg AdminConfig) statsDoc {
	doc := statsDoc{Snapshot: cfg.Registry.Snapshot(), GFKernel: gf.KernelName()}
	if cfg.Daemon == nil {
		return doc
	}
	v := cfg.Daemon.VNF()
	doc.Sessions = make(map[ncproto.SessionID]sessionDoc)
	for _, id := range v.SessionIDs() {
		if st, ok := v.SessionStatsFor(id); ok {
			doc.Sessions[id] = sessionDoc{
				Role: st.Role.String(), PacketsIn: st.PacketsIn, PacketsOut: st.PacketsOut,
				GenerationsDone: st.GenerationsDone, GenerationsActive: st.GenerationsActive, DoneBelow: st.DoneBelow,
			}
		}
	}
	return doc
}

// ServeAdmin serves the admin endpoint on ln until the listener closes, and
// returns the error that ended it.
func ServeAdmin(ln net.Listener, cfg AdminConfig) error {
	srv := &http.Server{Handler: NewAdminMux(cfg), ReadHeaderTimeout: 5 * time.Second}
	return srv.Serve(ln)
}

// drainStatus is the GET /drain document, and the answer to every POST
// that changes a daemon's lifecycle (/drain, /restart, /stop). The admin
// client reads it too.
type drainStatus struct {
	// State is the drain state machine position: running | draining |
	// quiesced.
	State string `json:"state"`
	// Draining reports whether a drain (or restart) is in progress.
	Draining bool `json:"draining"`
	// Version is the last applied deploy-file version (see /reload).
	Version int `json:"version"`
}

// drainStateName maps the dataplane drain gauge values to wire names.
func drainStateName(s int64) string {
	switch s {
	case dataplane.DrainStateDraining:
		return "draining"
	case dataplane.DrainStateQuiesced:
		return "quiesced"
	default:
		return "running"
	}
}

// statusOf snapshots the daemon's lifecycle position.
func statusOf(d *Daemon) drainStatus {
	return drainStatus{
		State:    drainStateName(d.VNF().DrainState()),
		Draining: d.Draining(),
		Version:  d.DeployVersion(),
	}
}

// writeJSON writes v with the given status code and a Content-Length, so
// the response is complete on the wire once flushed: a chunked body would
// end with a terminator net/http writes only after the handler returns.
func writeJSON(w http.ResponseWriter, code int, v any) {
	raw, _ := json.Marshal(v) // the admin documents are plain structs
	raw = append(raw, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.WriteHeader(code)
	_, _ = w.Write(raw)
}

// lifecycleStatus maps drain/reload errors onto HTTP statuses: lifecycle
// conflicts (double drain, reload-while-draining, stale version, closed
// daemon) are 409s, config problems are 400s.
func lifecycleStatus(err error) int {
	switch {
	case errors.Is(err, ErrAlreadyDraining), errors.Is(err, ErrStaleVersion), errors.Is(err, ErrDaemonClosed):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// drainDeadline reads the request's ?deadline=<duration> override.
func drainDeadline(cfg AdminConfig, r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("deadline")
	if raw == "" {
		return cfg.DrainDeadline, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad deadline %q", raw)
	}
	return d, nil
}

// handleDrain serves /drain: GET reports the drain status, POST starts a
// graceful drain (409 when one is already in progress).
func handleDrain(cfg AdminConfig, w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, statusOf(cfg.Daemon))
	case http.MethodPost:
		deadline, err := drainDeadline(cfg, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := cfg.Daemon.StartDrain(deadline); err != nil {
			http.Error(w, err.Error(), lifecycleStatus(err))
			return
		}
		writeJSON(w, http.StatusOK, statusOf(cfg.Daemon))
	default:
		http.Error(w, "drain: GET or POST", http.StatusMethodNotAllowed)
	}
}

// maxDeployFile bounds a /reload request body.
const maxDeployFile = 16 << 20

// handleReload serves POST /reload: the body is a deploy file; its diff
// against the node's live state is hot-applied (Daemon.Reload) and the
// summary returned. 400 on malformed or invalid files, 409 on lifecycle
// conflicts (draining, stale version).
func handleReload(cfg AdminConfig, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "reload: POST a deploy file", http.StatusMethodNotAllowed)
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxDeployFile))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f, err := ParseDeployFile(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := registerPeers(cfg.Peers, f.Peers); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sum, err := cfg.Daemon.Reload(f, cfg.Node)
	if err != nil {
		http.Error(w, err.Error(), lifecycleStatus(err))
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// handleRestart serves POST /restart: drain, and once the drain completes
// (quiesced or deadline) and the daemon closes, run the configured restart
// hook — cmd/ncd's exec handoff into a fresh process on the same addresses.
func handleRestart(cfg AdminConfig, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "restart: POST", http.StatusMethodNotAllowed)
		return
	}
	if cfg.Restart == nil {
		http.Error(w, "restart: not supported by this daemon", http.StatusNotImplemented)
		return
	}
	deadline, err := drainDeadline(cfg, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// An idle daemon quiesces at once, and the hook replaces the process:
	// hold it until the whole answer is on the wire — writeJSON's
	// Content-Length and the flush below put it there before the handler
	// returns — or the caller reads EOF.
	answered := make(chan struct{})
	defer close(answered)
	if err := cfg.Daemon.startDrain(deadline, func() { <-answered; cfg.Restart() }); err != nil {
		http.Error(w, err.Error(), lifecycleStatus(err))
		return
	}
	writeJSON(w, http.StatusOK, statusOf(cfg.Daemon))
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// handleStop serves POST /stop?tau=<duration>: NC_VNF_END, so the daemon
// closes once τ passes unless a reload that gives it a role comes first.
// The answer is on the wire before the τ timer is armed: a short τ closes
// the daemon, and cmd/ncd exits with it.
func handleStop(cfg AdminConfig, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "stop: POST", http.StatusMethodNotAllowed)
		return
	}
	tau, err := time.ParseDuration(r.URL.Query().Get("tau"))
	if err != nil || tau < 0 {
		http.Error(w, fmt.Sprintf("stop: bad tau %q", r.URL.Query().Get("tau")), http.StatusBadRequest)
		return
	}
	if cfg.Daemon.Closed() {
		http.Error(w, ErrDaemonClosed.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, statusOf(cfg.Daemon))
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	_ = cfg.Daemon.Apply(&Message{Signal: NCVNFEnd, ShutdownAfter: tau}) // fails only once closed
}

// registerPeers binds each peer name to its resolved UDP address in the
// registry (nil ignores the bindings).
func registerPeers(registry *emunet.Registry, peers map[string]string) error {
	if registry == nil {
		return nil
	}
	for peer, addr := range peers {
		udpAddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("controller: resolve peer %s=%s: %w", peer, addr, err)
		}
		registry.Register(peer, udpAddr)
	}
	return nil
}
