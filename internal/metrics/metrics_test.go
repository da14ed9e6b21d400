package metrics

import (
	"strings"
	"testing"
)

func TestSeriesTable(t *testing.T) {
	s := NewSeries("Fig X", "loss%", "NC0", "NC1")
	s.Add(10, map[string]float64{"NC0": 50.5, "NC1": 60})
	s.Add(0, map[string]float64{"NC0": 70, "NC1": 65.25})
	var sb strings.Builder
	if err := s.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# Fig X") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "loss%\tNC0\tNC1") {
		t.Fatalf("missing header: %q", out)
	}
	// Sorted by X: the 0 row must come before the 10 row.
	i0 := strings.Index(out, "\n0\t")
	i10 := strings.Index(out, "\n10\t")
	if i0 < 0 || i10 < 0 || i0 > i10 {
		t.Fatalf("rows not sorted: %q", out)
	}
	if !strings.Contains(out, "65.25") {
		t.Fatal("value formatting lost precision")
	}
	if !strings.Contains(out, "50.5") || strings.Contains(out, "50.50") {
		t.Fatal("trailing zeros not trimmed")
	}
}

func TestSeriesMissingColumn(t *testing.T) {
	s := NewSeries("t", "x", "a", "b")
	s.Add(1, map[string]float64{"a": 5})
	var sb strings.Builder
	s.WriteTable(&sb)
	if !strings.Contains(sb.String(), "\t-") {
		t.Fatalf("missing column not dashed: %q", sb.String())
	}
}

func TestSeriesLearnsNewColumns(t *testing.T) {
	s := NewSeries("t", "x")
	s.Add(1, map[string]float64{"later": 3})
	if cols := s.Columns(); len(cols) != 1 || cols[0] != "later" {
		t.Fatalf("Columns = %v", cols)
	}
}

func TestSeriesPointsCopied(t *testing.T) {
	s := NewSeries("t", "x", "a")
	s.Add(1, map[string]float64{"a": 1})
	pts := s.Points()
	pts[0].X = 99
	if s.Points()[0].X != 1 {
		t.Fatal("Points exposed internal storage")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		1.5:    "1.5",
		2.25:   "2.25",
		70:     "70",
		69.90:  "69.9",
		0.004:  "0",
		-3.100: "-3.1",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
