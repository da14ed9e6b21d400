// Package metrics prints and parses the figure tables of the experiment
// harness: labeled series in the row/series format of the paper's figures.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Point is one (x, value-per-series) sample of a figure.
type Point struct {
	X      float64
	Values map[string]float64
}

// Series is a labeled collection of points, i.e. one figure's data.
type Series struct {
	mu     sync.Mutex
	Title  string
	XLabel string
	names  []string
	points []Point
}

// NewSeries builds a named series with the given column order.
func NewSeries(title, xlabel string, columns ...string) *Series {
	return &Series{Title: title, XLabel: xlabel, names: columns}
}

// Add appends a sample; missing columns print as blanks.
func (s *Series) Add(x float64, values map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make(map[string]float64, len(values))
	for k, v := range values {
		cp[k] = v
		found := false
		for _, n := range s.names {
			if n == k {
				found = true
				break
			}
		}
		if !found {
			s.names = append(s.names, k)
		}
	}
	s.points = append(s.points, Point{X: x, Values: cp})
}

// Points returns a copy of the samples, sorted by X.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}

// Columns returns the series names in print order.
func (s *Series) Columns() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.names...)
}

// WriteTable renders the series as an aligned text table, the form the
// experiment harness prints for each figure.
func (s *Series) WriteTable(w io.Writer) error {
	pts := s.Points()
	cols := s.Columns()
	if _, err := fmt.Fprintf(w, "# %s\n", s.Title); err != nil {
		return err
	}
	header := append([]string{s.XLabel}, cols...)
	if _, err := fmt.Fprintln(w, strings.Join(header, "\t")); err != nil {
		return err
	}
	for _, p := range pts {
		row := make([]string, 0, len(cols)+1)
		row = append(row, trimFloat(p.X))
		for _, c := range cols {
			v, ok := p.Values[c]
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, trimFloat(v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// trimFloat renders a float compactly (2 decimal places, trailing zeros
// removed).
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
