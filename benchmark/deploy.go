package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"ncfn/internal/dataplane"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/procnet"
	"ncfn/internal/telemetry"
)

// Node names of the butterfly. The source side is V1 (one host per session
// when a workload has several), relays recode, sinks decode.
var (
	relayNames = []string{"O1", "C1", "T", "V2"}
	sinkNames  = [2]string{"O2", "C2"}
)

// batchDepth is ncd's -batch default, used for the daemons and for the
// harness's own UDP sockets.
const batchDepth = emunet.DefaultRxBatch

// sinkNode is one decoder-role VNF the harness owns, with the conn it sends
// the generation ACKs on.
type sinkNode struct {
	name string
	conn emunet.PacketConn
	vnf  *dataplane.VNF
}

// deployment is one running butterfly: sources and sinks in the harness,
// relays either in the harness (VNFs over an emunet.Network) or as ncd
// child processes.
type deployment struct {
	w       *workload
	sources []*dataplane.Source
	// srcAddrs[i] is where the sinks send session i's ACKs.
	srcAddrs []string
	sinks    [2]*sinkNode
	relays   map[string]*dataplane.VNF
	daemons  map[string]*procnet.Daemon
	network  *emunet.Network
	// udpReg collects the harness's own UDP socket instruments (procs).
	udpReg *telemetry.Registry
	// dir holds readyfiles and the deploy file (procs); removed on close.
	dir string

	// Control-plane timings taken while deploying (procs; zero in-process).
	daemonReady time.Duration
	ctlStart    time.Duration
}

// relayHops returns each relay's hop groups: procnet.Butterfly's tables.
func relayHops(q int) map[string][]dataplane.HopGroup {
	return map[string][]dataplane.HopGroup{
		"O1": {{Addrs: []string{"O2"}, PerGen: q}, {Addrs: []string{"T"}, PerGen: q}},
		"C1": {{Addrs: []string{"C2"}, PerGen: q}, {Addrs: []string{"T"}, PerGen: q}},
		"T":  {{Addrs: []string{"V2"}, PerGen: q}},
		"V2": {{Addrs: []string{"O2"}, PerGen: q}, {Addrs: []string{"C2"}, PerGen: q}},
	}
}

// relayInPerGen returns each relay's inbound quota per generation.
func relayInPerGen(q int) map[string]int {
	return map[string]int{"O1": q, "C1": q, "T": 2 * q, "V2": q}
}

// vnfOptions returns the options relays and sinks are built with: the
// program's defaults, plus the bounded session store where the workload
// asks for it.
func (w *workload) vnfOptions() []dataplane.VNFOption {
	if !w.store {
		return nil
	}
	return []dataplane.VNFOption{dataplane.WithSessionStore(dataplane.SessionStoreConfig{MaxGenerations: 1024})}
}

// deploy builds and starts a deployment. tmpRoot is where a procs
// deployment keeps its scratch directory; bins are the built ncd/ncctl.
func deploy(w *workload, seed int64, tmpRoot string, bins procnet.Binaries) (*deployment, error) {
	d := &deployment{w: w}
	var err error
	if w.procs {
		err = d.startProcs(seed, tmpRoot, bins)
	} else {
		err = d.startInproc(seed)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) startInproc(seed int64) error {
	w := d.w
	d.network = emunet.NewNetwork(emunet.AllowDefault())
	d.relays = make(map[string]*dataplane.VNF, len(relayNames))
	for _, name := range relayNames {
		v, err := newRelay(w, name, w.sessions, d.network.Host(name))
		if err != nil {
			return err
		}
		d.relays[name] = v
		v.Start()
	}
	for i, name := range sinkNames {
		conn := d.network.Host(name)
		if err := d.addSink(i, name, conn); err != nil {
			return err
		}
	}
	for i := 0; i < w.sessions; i++ {
		addr := "V1"
		if w.sessions > 1 {
			addr = fmt.Sprintf("V1-%d", i)
		}
		if err := d.addSource(i, d.network.Host(addr), addr, seed, 0); err != nil {
			return err
		}
	}
	return nil
}

// addSink builds sink i as a decoder-role VNF for every session on conn.
func (d *deployment) addSink(i int, name string, conn emunet.PacketConn) error {
	v := dataplane.NewVNF(conn, d.w.vnfOptions()...)
	d.sinks[i] = &sinkNode{name: name, conn: conn, vnf: v}
	for s := 0; s < d.w.sessions; s++ {
		if err := v.Configure(dataplane.SessionConfig{
			ID: sessionID(s), Params: d.w.params, Role: dataplane.RoleDecoder,
		}); err != nil {
			return err
		}
	}
	v.Start()
	return nil
}

// newRelay builds an unstarted recoder-role VNF on conn, configured as the
// named relay of the butterfly for the workload's first sessions sessions.
func newRelay(w *workload, name string, sessions int, conn emunet.PacketConn) (*dataplane.VNF, error) {
	q := w.edgeQuota()
	v := dataplane.NewVNF(conn, w.vnfOptions()...)
	table := make(map[ncproto.SessionID][]dataplane.HopGroup, sessions)
	for i := 0; i < sessions; i++ {
		if err := v.Configure(dataplane.SessionConfig{
			ID: sessionID(i), Params: w.params, Role: dataplane.RoleRecoder,
			Redundancy: redundancy, InPerGen: relayInPerGen(q)[name],
		}); err != nil {
			v.Close()
			return nil, err
		}
		table[sessionID(i)] = relayHops(q)[name]
	}
	v.UpdateTable(table)
	return v, nil
}

// newSource builds session i's systematic source on conn, splitting each
// generation across the O1 and C1 branches.
func newSource(w *workload, i int, conn emunet.PacketConn, seed int64, txBatch int) (*dataplane.Source, error) {
	src, err := dataplane.NewSource(conn, dataplane.SourceConfig{
		Session: sessionID(i), Params: w.params, Redundancy: redundancy,
		Systematic: true, Seed: seed + int64(i)<<20, TxBatch: txBatch,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	q := w.edgeQuota()
	src.SetHops([]dataplane.HopGroup{
		{Addrs: []string{"O1"}, PerGen: q},
		{Addrs: []string{"C1"}, PerGen: q},
	})
	return src, nil
}

// addSource adds session i's source, reachable by the sinks at addr.
func (d *deployment) addSource(i int, conn emunet.PacketConn, addr string, seed int64, txBatch int) error {
	src, err := newSource(d.w, i, conn, seed, txBatch)
	if err != nil {
		return err
	}
	d.sources = append(d.sources, src)
	d.srcAddrs = append(d.srcAddrs, addr)
	return nil
}

func (d *deployment) startProcs(seed int64, tmpRoot string, bins procnet.Binaries) error {
	w := d.w
	dir, err := os.MkdirTemp(tmpRoot, "ncfn-bench-")
	if err != nil {
		return err
	}
	d.dir = dir
	d.daemons = make(map[string]*procnet.Daemon, len(relayNames))
	start := time.Now()
	for _, name := range relayNames {
		dm, err := procnet.StartDaemon(bins.Ncd, name, dir, batchDepth)
		if err != nil {
			return err
		}
		d.daemons[name] = dm
	}
	d.daemonReady = time.Since(start) / time.Duration(len(relayNames))

	// One registry of peer addresses serves the three harness sockets: the
	// source resolves O1/C1, the sinks resolve V1 for the ACKs, and the
	// source's receive path names the sinks so ACKs arrive tagged O2/C2.
	registry := emunet.NewRegistry()
	for name, dm := range d.daemons {
		addr, err := net.ResolveUDPAddr("udp", dm.Data)
		if err != nil {
			return err
		}
		registry.Register(name, addr)
	}
	d.udpReg = telemetry.NewRegistry()
	listen := func(name string) (*emunet.UDPConn, error) {
		c, err := emunet.ListenUDP(name, "127.0.0.1:0", registry,
			emunet.WithUDPTelemetry(d.udpReg), emunet.WithRxBatch(batchDepth))
		if err != nil {
			return nil, err
		}
		registry.Register(name, c.UDPAddr())
		return c, nil
	}
	peers := map[string]string{}
	for i, name := range sinkNames {
		c, err := listen(name)
		if err != nil {
			return err
		}
		peers[name] = c.UDPAddr().String()
		if err := d.addSink(i, name, c); err != nil {
			return err
		}
	}
	srcConn, err := listen("V1")
	if err != nil {
		return err
	}
	peers["V1"] = srcConn.UDPAddr().String()
	if err := d.addSource(0, srcConn, "V1", seed, batchDepth); err != nil {
		return err
	}

	// procnet.Butterfly's quotas and tables, with the two sinks as plain
	// peers rather than daemons: ncd exposes only a decoded counter and the
	// benchmark must see the bytes.
	q := w.edgeQuota()
	sess := procnet.Session{
		ID: int(sessionID(0)), Blocks: w.params.GenerationBlocks, BlockSize: w.params.BlockSize,
		Redundancy: redundancy,
		Roles:      map[string]string{},
		InPerGen:   relayInPerGen(q),
		Tables:     map[string][]procnet.TableGroup{},
	}
	dep := procnet.Deploy{
		Sessions: []procnet.Session{sess},
		Peers:    peers,
		Daemons:  map[string]string{},
		Admin:    map[string]string{},
	}
	for name, groups := range relayHops(q) {
		sess.Roles[name] = "recoder"
		for _, g := range groups {
			sess.Tables[name] = append(sess.Tables[name], procnet.TableGroup{Addrs: g.Addrs, PerGen: g.PerGen})
		}
		dm := d.daemons[name]
		dep.Peers[name], dep.Daemons[name], dep.Admin[name] = dm.Data, dm.Control, dm.Admin
	}
	cfgPath := filepath.Join(dir, "deploy.json")
	if err := procnet.WriteDeploy(cfgPath, dep); err != nil {
		return err
	}
	start = time.Now()
	if out, err := procnet.RunCtl(bins.Ncctl, cfgPath, "start"); err != nil {
		return fmt.Errorf("%w\n%s", err, out)
	}
	d.ctlStart = time.Since(start)
	return nil
}

// snapshots returns one telemetry snapshot per node: every relay and sink,
// and for a procs deployment the harness's UDP sockets under "harness".
func (d *deployment) snapshots() (map[string]telemetry.Snapshot, error) {
	out := make(map[string]telemetry.Snapshot, 8)
	for name, v := range d.relays {
		out[name] = v.Telemetry().Snapshot()
	}
	for name, dm := range d.daemons {
		snap, err := procnet.Stats(dm.Admin)
		if err != nil {
			return nil, err
		}
		out[name] = snap
	}
	for _, s := range d.sinks {
		out[s.name] = s.vnf.Telemetry().Snapshot()
	}
	if d.udpReg != nil {
		out["harness"] = d.udpReg.Snapshot()
	}
	return out, nil
}

// close releases everything the deployment holds: sources, sinks, relays,
// the emulated network, daemon processes and the scratch directory. It is
// safe on a partially built deployment.
func (d *deployment) close() {
	for _, s := range d.sources {
		s.Close()
	}
	for _, s := range d.sinks {
		if s != nil {
			s.vnf.Close()
		}
	}
	for _, v := range d.relays {
		v.Close()
	}
	if d.network != nil {
		d.network.Close()
	}
	for _, dm := range d.daemons {
		dm.Stop()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}
