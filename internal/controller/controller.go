package controller

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"ncfn/internal/cloud"
	"ncfn/internal/ncproto"
	"ncfn/internal/optimize"
	"ncfn/internal/simclock"
	"ncfn/internal/topology"
)

// Errors.
var (
	ErrUnknownSession = errors.New("controller: unknown session")
	ErrDuplicate      = errors.New("controller: duplicate session")
)

// Config configures the controller.
type Config struct {
	// Optimize carries the graph, candidate data centers, and α.
	Optimize optimize.Config
	// Cloud is the VM provider used to launch/terminate VNF instances.
	Cloud *cloud.Cloud
	// Clock drives τ timers and threshold windows.
	Clock simclock.Clock
	// Tau is the idle-VNF shutdown delay (default 10 min, Sec. V-C).
	Tau time.Duration
	// Tau1/Rho1 confirm bandwidth changes (Alg. 1): a change must exceed
	// Rho1 (fraction) and persist Tau1 before the controller reacts.
	Tau1 time.Duration
	Rho1 float64
	// Retry bounds cloud launch attempts (zero fields take the defaults of
	// DefaultRetryPolicy).
	Retry RetryPolicy
}

// DefaultTau matches the evaluation's 10-minute threshold values.
const DefaultTau = 10 * time.Minute

// sessionFlows is the adopted routing state of one session.
type sessionFlows struct {
	session optimize.Session
	rate    float64
	links   map[[2]topology.NodeID]float64
	paths   []optimize.PathFlow
}

// SignalEvent records one control signal the controller emitted, for the
// experiment harness and for audit logs.
type SignalEvent struct {
	At     time.Time
	Signal Signal
	DC     topology.NodeID
	Detail string
}

// pendingChange tracks a not-yet-confirmed bandwidth observation.
type pendingChange struct {
	since time.Time
	inM   float64
	outM  float64
}

// Controller is the central control plane.
type Controller struct {
	cfg Config

	mu        sync.Mutex
	flows     map[ncproto.SessionID]*sessionFlows
	pools     map[topology.NodeID]*vnfPool
	pendingBW map[topology.NodeID]*pendingChange
	events    []SignalEvent
}

// New builds a controller. The optimize config's DataCenters define the
// candidate deployment sites; a pool is created for each.
func New(cfg Config) *Controller {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Tau <= 0 {
		cfg.Tau = DefaultTau
	}
	if cfg.Tau1 <= 0 {
		cfg.Tau1 = DefaultTau
	}
	if cfg.Rho1 <= 0 {
		cfg.Rho1 = 0.05
	}
	c := &Controller{
		cfg:       cfg,
		flows:     make(map[ncproto.SessionID]*sessionFlows),
		pools:     make(map[topology.NodeID]*vnfPool),
		pendingBW: make(map[topology.NodeID]*pendingChange),
	}
	for _, dc := range cfg.Optimize.DataCenters {
		c.pools[dc.ID] = newVNFPool(dc.ID, cfg.Cloud, cfg.Clock, cfg.Tau, cfg.Retry)
	}
	return c
}

// record appends a signal event.
func (c *Controller) record(sig Signal, dc topology.NodeID, detail string) {
	c.events = append(c.events, SignalEvent{
		At:     c.cfg.Clock.Now(),
		Signal: sig,
		DC:     dc,
		Detail: detail,
	})
}

// Events returns a copy of the emitted signal log.
func (c *Controller) Events() []SignalEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SignalEvent(nil), c.events...)
}

// flowsLocked lists the adopted flows in session-ID order. The controller
// walks flows and pools only in fixed orders (pools in the configured
// data-center order), so one seed gives one run: float sums, solve inputs,
// cloud calls and the jitter they draw from the cloud's one rng all repeat.
func (c *Controller) flowsLocked() []*sessionFlows {
	out := make([]*sessionFlows, 0, len(c.flows))
	for _, f := range c.flows {
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b *sessionFlows) int { return cmp.Compare(a.session.ID, b.session.ID) })
	return out
}

// sessionsLocked lists the adopted sessions in ID order.
func (c *Controller) sessionsLocked() []optimize.Session {
	var out []optimize.Session
	for _, f := range c.flowsLocked() {
		out = append(out, f.session)
	}
	return out
}

func (c *Controller) totalRateLocked() float64 {
	total := 0.0
	for _, f := range c.flowsLocked() {
		total += f.rate
	}
	return total
}

// EffectiveThroughput estimates the rate actually delivered given the data
// centers' true per-VNF inbound bandwidth, which can differ from what the
// controller believes between a bandwidth change and its confirmed reaction
// (Alg. 1 waits ρ1/τ1 before acting). Each session is throttled by the
// most-overloaded data center its flows enter; with no overload it equals
// the plan's total rate.
func (c *Controller) EffectiveThroughput(actual func(dc topology.NodeID) (inMbps, outMbps float64)) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	load := c.loadLocked(nil)
	// ratio is the share of the used bandwidth a capacity carries.
	ratio := func(capacity, used float64) float64 {
		if used <= 0 {
			return 1
		}
		return max(0, min(1, capacity/used))
	}
	factor := make(map[topology.NodeID]float64, len(c.pools))
	for _, dc := range c.cfg.Optimize.DataCenters {
		active, _ := c.pools[dc.ID].counts()
		in, out := actual(dc.ID)
		factor[dc.ID] = min(ratio(in*float64(active), load.DCInMbps[dc.ID]), ratio(out*float64(active), load.DCOutMbps[dc.ID]))
	}
	total := 0.0
	for _, sf := range c.flowsLocked() {
		f := 1.0
		for e, mbps := range sf.links {
			for _, end := range e {
				if df, ok := factor[end]; ok && mbps > 0 {
					f = min(f, df)
				}
			}
		}
		total += sf.rate * f
	}
	return total
}

// LoadPerDC returns the aggregate inbound and outbound Mbps each data
// center currently relays (the scaling experiments use it to pick "a
// currently used data center" for bandwidth cuts).
func (c *Controller) LoadPerDC() (in, out map[topology.NodeID]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	load := c.loadLocked(nil)
	return load.DCInMbps, load.DCOutMbps
}

// VNFCounts returns the total (active, idle-within-τ) VNF counts.
func (c *Controller) VNFCounts() (active, idle int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vnfCountsLocked()
}

func (c *Controller) vnfCountsLocked() (active, idle int) {
	for _, p := range c.pools {
		a, i := p.counts()
		active += a
		idle += i
	}
	return active, idle
}

// Instances lists a data center's active VNF instances.
func (c *Controller) Instances(dc topology.NodeID) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.pools[dc]; p != nil {
		return slices.Clone(p.active)
	}
	return nil
}

// ReplaceInstance puts a relaunched instance in a failed one's place in its
// data center's pool, so a later scale-in idles and reaps the live VM.
func (c *Controller) ReplaceInstance(dc topology.NodeID, failed, relaunched string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.pools[dc]; p != nil {
		if i := slices.Index(p.active, failed); i >= 0 {
			p.active[i] = relaunched
		}
	}
}

// Tick reaps idle VNFs whose τ deadline has passed. Call it periodically
// (the experiments call it at every measurement interval).
func (c *Controller) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, dc := range c.cfg.Optimize.DataCenters {
		if n := c.pools[dc.ID].reap(); n > 0 {
			c.record(NCVNFEnd, dc.ID, fmt.Sprintf("terminated %d idle VNFs after tau", n))
		}
	}
}

// objectiveLocked computes Σλ − α·activeVNFs for the adopted state.
func (c *Controller) objectiveLocked() float64 {
	active, _ := c.vnfCountsLocked()
	return c.totalRateLocked() - c.cfg.Optimize.Alpha*float64(active)
}

// baseVNFsLocked snapshots active pool sizes for scale-out solves.
func (c *Controller) baseVNFsLocked() map[topology.NodeID]int {
	out := make(map[topology.NodeID]int, len(c.pools))
	for dc, p := range c.pools {
		a, _ := p.counts()
		out[dc] = a
	}
	return out
}

// loadLocked aggregates adopted flows, excluding the given sessions.
func (c *Controller) loadLocked(exclude map[ncproto.SessionID]bool) *optimize.Load {
	load := optimize.NewLoad()
	for _, f := range c.flowsLocked() {
		if exclude[f.session.ID] {
			continue
		}
		edges := make([][2]topology.NodeID, 0, len(f.links))
		for e := range f.links {
			edges = append(edges, e)
		}
		slices.SortFunc(edges, func(a, b [2]topology.NodeID) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		for _, e := range edges {
			mbps := f.links[e]
			if mbps <= 0 {
				continue
			}
			load.LinkMbps[e] += mbps
			if c.pools[e[1]] != nil {
				load.DCInMbps[e[1]] += mbps
			}
			if c.pools[e[0]] != nil {
				load.DCOutMbps[e[0]] += mbps
			}
		}
	}
	return load
}

// adoptPlanLocked merges a solved plan for the given sessions into the
// controller state and scales pools to the plan's VNF counts.
func (c *Controller) adoptPlanLocked(plan *optimize.Plan, sessions []optimize.Session) error {
	for _, s := range sessions {
		sf := &sessionFlows{
			session: s,
			rate:    plan.Rates[s.ID],
			links:   plan.LinkFlows[s.ID],
		}
		for _, pf := range plan.PathFlows {
			if pf.Session == s.ID {
				sf.paths = append(sf.paths, pf)
			}
		}
		c.flows[s.ID] = sf
	}
	return c.scalePoolsLocked(plan.VNFs)
}

// scalePoolsLocked sets each pool's active size, emitting signals.
func (c *Controller) scalePoolsLocked(target map[topology.NodeID]int) error {
	for _, d := range c.cfg.Optimize.DataCenters {
		dc, p := d.ID, c.pools[d.ID]
		want := target[dc]
		a, _ := p.counts()
		if want == a {
			continue
		}
		launched, err := p.ensure(want)
		if err != nil {
			return fmt.Errorf("controller: scale %s to %d: %w", dc, want, err)
		}
		if want > a {
			c.record(NCVNFStart, dc, fmt.Sprintf("scale out to %d (launched %d, reused %d)", want, launched, want-a-launched))
		} else {
			c.record(NCVNFEnd, dc, fmt.Sprintf("scale in to %d (idle until tau)", want))
		}
		c.record(NCForwardTab, dc, "forwarding table update")
	}
	return nil
}

// rightSizeLocked shrinks pools to the minimum VNF counts required by the
// adopted flows (used after departures; extra instances idle until τ).
func (c *Controller) rightSizeLocked() error {
	min := optimize.MinVNFs(c.cfg.Optimize.DataCenters, c.loadLocked(nil))
	return c.scalePoolsLocked(min)
}

// AddSession admits new multicast sessions (Alg. 3, SESSION JOIN):
// program (2) is solved once for the given sessions jointly, pinning the
// flows of existing sessions and treating the current deployment as
// already paid.
func (c *Controller) AddSession(ss ...optimize.Session) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]ncproto.SessionID, len(ss))
	for i, s := range ss {
		if _, ok := c.flows[s.ID]; ok || slices.Contains(ids[:i], s.ID) {
			return fmt.Errorf("%w: %d", ErrDuplicate, s.ID)
		}
		ids[i] = s.ID
	}
	cfg := c.cfg.Optimize
	cfg.BaseVNFs = c.baseVNFsLocked()
	cfg.PinnedLoad = c.loadLocked(nil)
	plan, err := optimize.Solve(cfg, ss)
	if err != nil {
		return fmt.Errorf("controller: admit sessions %v: %w", ids, err)
	}
	for _, s := range ss {
		c.record(NCStart, "", fmt.Sprintf("session %d admitted at %.1f Mbps", s.ID, plan.Rates[s.ID]))
		c.record(NCSettings, "", fmt.Sprintf("session %d settings pushed", s.ID))
	}
	return c.adoptPlanLocked(plan, ss)
}

// Plan returns the adopted state as one plan: the admitted sessions sorted
// by ID, their rates and flows, and each data center's active VNF count.
func (c *Controller) Plan() ([]optimize.Session, *optimize.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sessions := c.sessionsLocked()
	plan := &optimize.Plan{
		VNFs:      c.baseVNFsLocked(),
		Rates:     make(map[ncproto.SessionID]float64, len(sessions)),
		LinkFlows: make(map[ncproto.SessionID]map[[2]topology.NodeID]float64, len(sessions)),
	}
	for _, s := range sessions {
		f := c.flows[s.ID]
		plan.Rates[s.ID] = f.rate
		plan.LinkFlows[s.ID] = maps.Clone(f.links)
		plan.PathFlows = append(plan.PathFlows, f.paths...)
	}
	return sessions, plan
}

// RemoveSession ends a session (Alg. 3, SESSION/RECEIVER QUIT): the
// controller compares raising the remaining sessions' rates on the current
// deployment (g1) against retaining current rates on fewer VNFs (g2) and
// applies the better.
func (c *Controller) RemoveSession(id ncproto.SessionID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.flows[id]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	delete(c.flows, id)
	c.record(NCSettings, "", fmt.Sprintf("session %d ended", id))
	return c.afterDepartureLocked()
}

// afterDepartureLocked implements the g1-vs-g2 comparison of Alg. 3.
func (c *Controller) afterDepartureLocked() error {
	remaining := c.sessionsLocked()
	if len(remaining) == 0 {
		return c.scalePoolsLocked(nil)
	}
	alpha := c.cfg.Optimize.Alpha

	// g1: rates re-optimized on the existing deployment.
	cfg1 := c.cfg.Optimize
	cfg1.BaseVNFs = c.baseVNFsLocked()
	plan1, err1 := optimize.Solve(cfg1, remaining)

	// g2: rates unchanged, deployment shrunk to the minimum.
	min := optimize.MinVNFs(c.cfg.Optimize.DataCenters, c.loadLocked(nil))
	totalMin := 0
	for _, n := range min {
		totalMin += n
	}
	g2 := c.totalRateLocked() - alpha*float64(totalMin)

	if err1 == nil {
		g1 := plan1.TotalRate() - alpha*float64(plan1.TotalVNFs())
		if g1 > g2 {
			return c.adoptPlanLocked(plan1, remaining)
		}
	}
	return c.scalePoolsLocked(min)
}

// AddReceiver joins a receiver to a session (Alg. 3, RECEIVER JOIN): the
// affected session is re-solved on the current deployment with other
// sessions pinned.
func (c *Controller) AddReceiver(id ncproto.SessionID, r topology.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.flows[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	s := f.session
	s.Receivers = append(append([]topology.NodeID(nil), s.Receivers...), r)
	return c.resolveSessionLocked(s)
}

// RemoveReceiver removes a receiver from a session.
func (c *Controller) RemoveReceiver(id ncproto.SessionID, r topology.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.flows[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	s := f.session
	kept := slices.DeleteFunc(slices.Clone(s.Receivers), func(have topology.NodeID) bool { return have == r })
	if len(kept) == len(s.Receivers) {
		return fmt.Errorf("controller: session %d has no receiver %s", id, r)
	}
	if len(kept) == 0 {
		delete(c.flows, id)
		return c.afterDepartureLocked()
	}
	s.Receivers = kept
	if err := c.resolveSessionLocked(s); err != nil {
		return err
	}
	// A departed receiver may free capacity; right-size the deployment
	// (freed VNFs idle until τ, then shut down).
	return c.rightSizeLocked()
}

// resolveSessionLocked re-solves one session with everything else pinned
// and adopts the result.
func (c *Controller) resolveSessionLocked(s optimize.Session) error {
	cfg := c.cfg.Optimize
	cfg.BaseVNFs = c.baseVNFsLocked()
	cfg.PinnedLoad = c.loadLocked(map[ncproto.SessionID]bool{s.ID: true})
	plan, err := optimize.Solve(cfg, []optimize.Session{s})
	if err != nil {
		return fmt.Errorf("controller: re-solve session %d: %w", s.ID, err)
	}
	return c.adoptPlanLocked(plan, []optimize.Session{s})
}

// ObserveBandwidth feeds one bandwidth measurement for a data center's VNFs
// (Alg. 1). The change is acted on only after exceeding ρ1 and persisting
// for τ1. For confirmed increases the controller adopts the re-solved plan
// only when the objective improves; confirmed drops always force a re-solve
// (flows must shrink to what the VNFs can carry).
func (c *Controller) ObserveBandwidth(dc topology.NodeID, inMbps, outMbps float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := slices.IndexFunc(c.cfg.Optimize.DataCenters, func(d optimize.DataCenter) bool { return d.ID == dc })
	if idx < 0 {
		return fmt.Errorf("controller: unknown data center %s", dc)
	}
	cur := c.cfg.Optimize.DataCenters[idx]
	if relChange(cur.BinMbps, inMbps) <= c.cfg.Rho1 && relChange(cur.BoutMbps, outMbps) <= c.cfg.Rho1 {
		delete(c.pendingBW, dc)
		return nil
	}
	now := c.cfg.Clock.Now()
	p, ok := c.pendingBW[dc]
	if !ok {
		c.pendingBW[dc] = &pendingChange{since: now, inM: inMbps, outM: outMbps}
		return nil
	}
	p.inM, p.outM = inMbps, outMbps
	if now.Sub(p.since) < c.cfg.Tau1 {
		return nil
	}
	delete(c.pendingBW, dc)
	dropped := inMbps < cur.BinMbps || outMbps < cur.BoutMbps
	c.cfg.Optimize.DataCenters[idx].BinMbps = inMbps
	c.cfg.Optimize.DataCenters[idx].BoutMbps = outMbps
	return c.reactToChangeLocked(dropped, fmt.Sprintf("bandwidth change at %s", dc))
}

// reactToChangeLocked re-solves all sessions on the current deployment and
// adopts the result if forced (capacity shrank / paths broke) or if the
// objective improves — the "if g > current objective value then scale out"
// comparison of Alg. 1.
func (c *Controller) reactToChangeLocked(forced bool, why string) error {
	sessions := c.sessionsLocked()
	if len(sessions) == 0 {
		return nil
	}
	cfg := c.cfg.Optimize
	cfg.BaseVNFs = c.baseVNFsLocked()
	plan, err := optimize.Solve(cfg, sessions)
	if err != nil {
		return fmt.Errorf("controller: react to %s: %w", why, err)
	}
	g := plan.TotalRate() - c.cfg.Optimize.Alpha*float64(plan.TotalVNFs())
	if !forced && g <= c.objectiveLocked() {
		c.record(NCSettings, "", fmt.Sprintf("%s: keeping current plan (objective %.1f <= %.1f)", why, g, c.objectiveLocked()))
		return nil
	}
	c.record(NCForwardTab, "", why)
	if err := c.adoptPlanLocked(plan, sessions); err != nil {
		return err
	}
	if forced {
		// Capacity shrank: drop VNFs the smaller flows no longer need.
		return c.rightSizeLocked()
	}
	return nil
}

// relChange returns |new-old| / old, treating old == 0 as a full change.
func relChange(old, cur float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(cur-old) / math.Abs(old)
}
