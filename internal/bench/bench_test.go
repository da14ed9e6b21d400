package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of Sec. V must have a registered runner.
	want := []string{
		"table1", "fig4", "fig5", "fig7", "table2", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "table3", "launch",
	}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown experiment found")
	}
	list := List()
	if len(list) < len(want) {
		t.Fatalf("List returned %d entries, want >= %d", len(list), len(want))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Order > list[i].Order {
			t.Fatal("List not ordered")
		}
	}
}

// runQuick executes an experiment in quick mode and returns its output.
func runQuick(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("quick experiment still costs seconds; skipped with -short")
	}
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	var sb strings.Builder
	if err := e.Run(&sb, Options{Quick: true, Seed: 1}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sb.String()
}

func TestTable1Output(t *testing.T) {
	out := runQuick(t, "table1")
	if !strings.Contains(out, "oregon_in") || !strings.Contains(out, "50\t") {
		t.Fatalf("table1 output malformed:\n%s", out)
	}
}

func TestFig10Output(t *testing.T) {
	out := runQuick(t, "fig10")
	if !strings.Contains(out, "throughput_mbps") || !strings.Contains(out, "120\t") {
		t.Fatalf("fig10 output malformed:\n%s", out)
	}
}

func TestFig11Output(t *testing.T) {
	out := runQuick(t, "fig11")
	if !strings.Contains(out, "vnfs") {
		t.Fatalf("fig11 output malformed:\n%s", out)
	}
}

func TestFig12MonotoneOutput(t *testing.T) {
	out := runQuick(t, "fig12")
	if !strings.Contains(out, "lmax_ms") {
		t.Fatalf("fig12 output malformed:\n%s", out)
	}
}

func TestFig13Output(t *testing.T) {
	out := runQuick(t, "fig13")
	if !strings.Contains(out, "alpha") {
		t.Fatalf("fig13 output malformed:\n%s", out)
	}
}

func TestTable3Output(t *testing.T) {
	out := runQuick(t, "table3")
	if !strings.Contains(out, "update_pct") {
		t.Fatalf("table3 output malformed:\n%s", out)
	}
}

func TestLaunchOutput(t *testing.T) {
	out := runQuick(t, "launch")
	if !strings.Contains(out, "launch_vm\t35.00s") {
		t.Fatalf("launch output missing the 35 s VM launch:\n%s", out)
	}
	if !strings.Contains(out, "start_coding_function") {
		t.Fatalf("launch output malformed:\n%s", out)
	}
}

func TestAblationFieldOutput(t *testing.T) {
	out := runQuick(t, "ablation-field")
	if !strings.Contains(out, "avg_packets") {
		t.Fatalf("ablation-field output malformed:\n%s", out)
	}
}

func TestFieldsweepOutput(t *testing.T) {
	out := runQuick(t, "fieldsweep")
	for _, col := range []string{"gf2_mbps", "gf256_mbps", "gf2_dep_pct", "gf256_dep_pct"} {
		if !strings.Contains(out, col) {
			t.Fatalf("fieldsweep missing column %s:\n%s", col, out)
		}
	}
}

func TestSessionSoakOutput(t *testing.T) {
	out := runQuick(t, "sessionsoak")
	for _, col := range []string{"throughput_mbps", "peak_state_mb", "p99_decode_us", "evicted"} {
		if !strings.Contains(out, col) {
			t.Fatalf("sessionsoak missing column %s:\n%s", col, out)
		}
	}
	// The runner itself errors on a memory-bound violation, so reaching here
	// already certifies the bounded-store acceptance criterion in quick mode.
}

func TestFig7Ordering(t *testing.T) {
	out := runQuick(t, "fig7")
	if strings.Contains(out, "WARNING") {
		t.Fatalf("fig7 ordering not reproduced:\n%s", out)
	}
}

func TestScaledButterflyCapacities(t *testing.T) {
	g, _, _ := scaledButterfly(0.5)
	l, ok := g.Link("V1", "O1")
	if !ok || l.CapacityMbps != 17.5 {
		t.Fatalf("scaled capacity = %v", l.CapacityMbps)
	}
}

func TestButterflyDCs(t *testing.T) {
	dcs := butterflyDCs(1)
	if len(dcs) != 4 || dcs[0].BinMbps != 1000 {
		t.Fatalf("dcs = %+v", dcs)
	}
}

func TestFig4Output(t *testing.T) {
	out := runQuick(t, "fig4")
	if !strings.Contains(out, "blocks") || !strings.Contains(out, "throughput_mbps") {
		t.Fatalf("fig4 output malformed:\n%s", out)
	}
}

func TestFig5Output(t *testing.T) {
	out := runQuick(t, "fig5")
	if !strings.Contains(out, "buffer_generations") {
		t.Fatalf("fig5 output malformed:\n%s", out)
	}
}

func TestFig8Output(t *testing.T) {
	out := runQuick(t, "fig8")
	for _, col := range []string{"NC0", "NC1", "NC2", "Non-NC"} {
		if !strings.Contains(out, col) {
			t.Fatalf("fig8 missing column %s:\n%s", col, out)
		}
	}
}

func TestFig9Output(t *testing.T) {
	out := runQuick(t, "fig9")
	if !strings.Contains(out, "P_pct") {
		t.Fatalf("fig9 output malformed:\n%s", out)
	}
}

func TestTable2Output(t *testing.T) {
	out := runQuick(t, "table2")
	for _, row := range []string{"direct", "relayed+coding", "relayed"} {
		if !strings.Contains(out, row) {
			t.Fatalf("table2 missing row %s:\n%s", row, out)
		}
	}
}

func TestAblationTauOutput(t *testing.T) {
	out := runQuick(t, "ablation-tau")
	if !strings.Contains(out, "tau_10min") || strings.Contains(out, "WARNING") {
		t.Fatalf("ablation-tau output malformed:\n%s", out)
	}
}

func TestAblationPipelineOutput(t *testing.T) {
	out := runQuick(t, "ablation-pipeline")
	if !strings.Contains(out, "pipelined") {
		t.Fatalf("ablation-pipeline output malformed:\n%s", out)
	}
}

func TestDirectTCPDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long; skipped with -short")
	}
	mbps, err := DirectTCPButterfly(0)
	if err != nil {
		t.Fatal(err)
	}
	if mbps <= 0 || mbps > 21 {
		t.Fatalf("direct TCP %v Mbps outside (0, 21]", mbps)
	}
}
