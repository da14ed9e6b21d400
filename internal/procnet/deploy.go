package procnet

import (
	"encoding/json"
	"fmt"
	"os"

	"ncfn/internal/controller"
)

// Deploy is ncctl's deployment document; procnet writes it for ncctl to
// consume, so the two share one schema.
type Deploy = controller.DeployFile

// Session is one session entry of the deployment document.
type Session = controller.DeploySession

// TableGroup is one next-hop group of a forwarding-table entry.
type TableGroup = controller.DeployHopGroup

// WriteDeploy marshals a deployment to path for ncctl to consume.
func WriteDeploy(path string, d Deploy) error {
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ButterflyNodes lists the six daemon nodes of the paper's butterfly in
// the order the harness starts them: the four relays, then the two sinks.
var ButterflyNodes = []string{"O1", "C1", "T", "V2", "O2", "C2"}

// Butterfly builds the classic butterfly deployment over running daemons:
// source V1 (external to the daemon set — the caller's in-process sender)
// splits each generation across the O1 and C1 branches, relays O1/C1/T/V2
// recode, sinks O2/C2 decode. Quotas follow the conceptual-flow solution
// with every edge carrying half the session rate: round(k/2) + redundancy
// distinct packets per generation per edge, so each sink's inbound quota
// covers the generation (k even keeps the split exact).
func Butterfly(daemons map[string]*Daemon, sourceAddr string, s Session) (Deploy, error) {
	for _, n := range ButterflyNodes {
		if daemons[n] == nil {
			return Deploy{}, fmt.Errorf("procnet: butterfly: missing daemon %s", n)
		}
	}
	if s.Blocks%2 != 0 {
		return Deploy{}, fmt.Errorf("procnet: butterfly: generation size %d must be even for the 2-branch split", s.Blocks)
	}
	q := s.Blocks/2 + s.Redundancy
	s.Roles = map[string]string{
		"O1": "recoder", "C1": "recoder", "T": "recoder", "V2": "recoder",
		"O2": "decoder", "C2": "decoder",
	}
	s.InPerGen = map[string]int{"O1": q, "C1": q, "T": 2 * q, "V2": q}
	s.Tables = map[string][]TableGroup{
		"O1": {{Addrs: []string{"O2"}, PerGen: q}, {Addrs: []string{"T"}, PerGen: q}},
		"C1": {{Addrs: []string{"C2"}, PerGen: q}, {Addrs: []string{"T"}, PerGen: q}},
		"T":  {{Addrs: []string{"V2"}, PerGen: q}},
		"V2": {{Addrs: []string{"O2"}, PerGen: q}, {Addrs: []string{"C2"}, PerGen: q}},
	}
	d := Deploy{
		Sessions: []Session{s},
		Peers:    map[string]string{"V1": sourceAddr},
		Daemons:  map[string]string{},
		Admin:    map[string]string{},
	}
	for _, n := range ButterflyNodes {
		d.Peers[n] = daemons[n].Data
		d.Daemons[n] = daemons[n].Control
		d.Admin[n] = daemons[n].Admin
	}
	return d, nil
}
