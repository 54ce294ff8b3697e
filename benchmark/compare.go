package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func readSet(path string) (*resultSet, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(buf, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// untraced returns a set's end-to-end runs by workload.
func (s *resultSet) untraced() map[string]*runResult {
	out := make(map[string]*runResult)
	for _, r := range s.Runs {
		if !r.Trace {
			out[r.Workload] = r
		}
	}
	return out
}

// worseBy is how much worse b reads than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload and end-to-end metric, both values, how
// much worse the second is and the bound, marks what is outside, and
// returns how many were. Failures in either run are marked too: two runs of
// one commit must both be clean to agree.
func compareSets(w io.Writer, a, b *resultSet) int {
	ra, rb := a.untraced(), b.untraced()
	outside := 0
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, sp := range specs {
		x, y := ra[sp.Name], rb[sp.Name]
		if x == nil || y == nil {
			fmt.Fprintf(w, "%-20s missing from one of the files   <-- OUTSIDE\n", sp.Name)
			outside++
			continue
		}
		for _, d := range endToEnd {
			worse := worseBy(d, x.Metrics[d.Name], y.Metrics[d.Name])
			mark := ""
			if worse > d.Bound {
				mark = "   <-- OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "%-20s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				sp.Name, d.Name, x.Metrics[d.Name], y.Metrics[d.Name], 100*worse, 100*d.Bound, mark)
		}
		if x.Failed+y.Failed > 0 {
			fmt.Fprintf(w, "%-20s %-18s %14d %14d   <-- OUTSIDE (bound: 0 failed)\n", sp.Name, "failed", x.Failed, y.Failed)
			outside++
		}
	}
	return outside
}

func compareFiles(pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	if n := compareSets(os.Stdout, a, b); n > 0 {
		return fmt.Errorf("%d metrics outside their bounds", n)
	}
	return nil
}

// spreadTable prints, per workload and end-to-end metric, the median over
// the sets and the interquartile spread as a share of it, and returns how
// many spreads exceed their bound.
func spreadTable(w io.Writer, sets []*resultSet) int {
	outside := 0
	fmt.Fprintf(w, "%-20s %-18s %14s %8s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, sp := range specs {
		for _, d := range endToEnd {
			var vals []float64
			for _, s := range sets {
				if r := s.untraced()[sp.Name]; r != nil {
					vals = append(vals, r.Metrics[d.Name])
				}
			}
			mark, width := "", spread(vals)
			if width > d.Bound {
				mark = "   <-- OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "%-20s %-18s %14.4f %7.1f%% %6.0f%%%s\n", sp.Name, d.Name, median(vals), 100*width, 100*d.Bound, mark)
		}
	}
	return outside
}

// repeatSets runs the full set n times on seeds seed, seed+1, … and prints
// the spread of every metric over the n sets.
func repeatSets(n int, o options) error {
	var sets []*resultSet
	for k := 1; k <= n; k++ {
		set, err := runSet(o, filepath.Join(o.outDir, fmt.Sprintf("result_%d.json", k)))
		if err != nil {
			return err
		}
		sets = append(sets, set)
		o.seed++
	}
	if n := spreadTable(os.Stdout, sets); n > 0 {
		return fmt.Errorf("%d spreads wider than their bounds", n)
	}
	return nil
}
