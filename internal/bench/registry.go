package bench

import (
	"fmt"
	"io"
	"sort"
)

// Runner is one experiment entry point.
type Runner func(w io.Writer, o Options) error

// Experiment couples a runner with its identity.
type Experiment struct {
	Name  string
	What  string
	Run   Runner
	Order int
}

// registry lists every reproducible table and figure.
var registry = []Experiment{
	{Name: "table1", What: "Table I: time-varying per-VM bandwidth", Run: Table1, Order: 1},
	{Name: "fig4", What: "Fig 4: throughput vs generation size", Run: Fig4, Order: 2},
	{Name: "fig5", What: "Fig 5: throughput vs buffer size", Run: Fig5, Order: 3},
	{Name: "fig7", What: "Fig 7: NC vs Non-NC vs Direct TCP on the butterfly", Run: Fig7, Order: 4},
	{Name: "table2", What: "Table II: direct vs relayed delay, +/- coding", Run: Table2, Order: 5},
	{Name: "fig8", What: "Fig 8: throughput vs uniform loss", Run: Fig8, Order: 6},
	{Name: "fig9", What: "Fig 9: throughput vs burst loss", Run: Fig9, Order: 7},
	{Name: "fig10", What: "Fig 10: dynamics under session/receiver churn", Run: Fig10, Order: 8},
	{Name: "fig11", What: "Fig 11: dynamics under bandwidth cuts", Run: Fig11, Order: 9},
	{Name: "fig12", What: "Fig 12: throughput vs max tolerable delay", Run: Fig12, Order: 10},
	{Name: "fig13", What: "Fig 13: throughput and VNFs vs alpha", Run: Fig13, Order: 11},
	{Name: "table3", What: "Table III: forwarding-table update time", Run: Table3, Order: 12},
	{Name: "launch", What: "Sec V-C5: VM launch / VNF start / table update overhead", Run: Launch, Order: 13},
	{Name: "ablation-field", What: "Ablation: GF(2) vs GF(2^8)", Run: AblationFieldSize, Order: 14},
	{Name: "fieldsweep", What: "Field sweep: GF(2) vs GF(2^8) throughput and dependency overhead vs generation size", Run: Fieldsweep, Order: 15},
	{Name: "ablation-tau", What: "Ablation: tau-delayed shutdown vs immediate", Run: AblationTauReuse, Order: 16},
	{Name: "ablation-pipeline", What: "Ablation: pipelined vs store-and-recode", Run: AblationPipelined, Order: 17},
	{Name: "soak", What: "Extension: controller under Poisson churn (beyond the paper)", Run: Soak, Order: 18},
	{Name: "sessionsoak", What: "Extension: massive multi-tenancy — throughput vs sessions and decode p99 vs churn with a buffer capacity of half the sessions", Run: SessionSoak, Order: 19},
	{Name: "udpsweep", What: "Extension: real kernel sockets — multi-process butterfly goodput and syscalls/packet, per-packet vs batched wire path", Run: UDPSweep, Order: 20},
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// List returns all experiments in presentation order.
func List() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// RunAll executes every experiment in order, separating outputs.
func RunAll(w io.Writer, o Options) error {
	for _, e := range List() {
		fmt.Fprintf(w, "\n===== %s — %s =====\n", e.Name, e.What)
		if err := e.Run(w, o); err != nil {
			return fmt.Errorf("bench: %s: %w", e.Name, err)
		}
	}
	return nil
}
