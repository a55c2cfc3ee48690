package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func readResultSet(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []*result
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// values collects one metric's values over the runs of one workload.
func values(set []*result, workload, name string) []float64 {
	var xs []float64
	for _, r := range set {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict applies one metric's bound to two samples: a is the base, b the
// candidate. A pair whose own spread (quartile distance over median) exceeds
// the bound cannot tell a change of that size from noise and is unresolved,
// not unchanged.
func verdict(d metricDef, a, b []float64) (string, float64) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	if am == 0 {
		return "no base", 0
	}
	ratio := bm / am
	worse := ratio - 1 // share by which b is worse than a
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	spread := max((aq3-aq1)/am, (bq3-bq1)/max(bm, 1e-300))
	switch {
	case d.Bound == 0 && d.Better == "":
		return "-", ratio
	case len(a) > 1 && len(b) > 1 && spread > d.Bound:
		return "unresolved", ratio
	case worse > d.Bound:
		return "REGRESSION", ratio
	case worse < -d.Bound:
		return "improved", ratio
	default:
		return "unchanged", ratio
	}
}

// compareSets prints one row per (workload, metric) found in both result
// sets, with both medians, their quartiles and the ratio B/A, and judges the
// end-to-end metrics of BENCHMARK.json by their bounds. It returns 1 when any
// of them regressed.
func compareSets(benchPath, pathA, pathB string) int {
	bench, err := readBenchmarkFile(benchPath)
	if err != nil {
		return fail(err)
	}
	a, err := readResultSet(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return fail(err)
	}
	bounded := map[string]metricDef{}
	for _, d := range bench.EndToEnd {
		bounded[d.Name] = d
	}
	fmt.Printf("A = %s (base), B = %s; ratio = median B / median A\n", pathA, pathB)
	fmt.Printf("%-8s %-30s %12s %-25s %12s %-25s %8s %6s  %s\n", "workload", "metric", "A median", "[q1, q3]", "B median", "[q1, q3]", "ratio", "bound", "verdict")
	status := 0
	for _, w := range bench.Workloads {
		names := map[string]bool{}
		for _, r := range a {
			if r.Workload == w.Name {
				for n := range r.Metrics {
					names[n] = true
				}
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		// Bounded metrics first, in BENCHMARK.json's order; the rest by name.
		slices.SortFunc(sorted, func(x, y string) int {
			ix := slices.IndexFunc(bench.EndToEnd, func(d metricDef) bool { return d.Name == x })
			iy := slices.IndexFunc(bench.EndToEnd, func(d metricDef) bool { return d.Name == y })
			switch {
			case ix >= 0 && iy >= 0:
				return ix - iy
			case ix >= 0:
				return -1
			case iy >= 0:
				return 1
			default:
				return strings.Compare(x, y)
			}
		})
		for _, n := range sorted {
			va, vb := values(a, w.Name, n), values(b, w.Name, n)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			d := bounded[n]
			v, ratio := verdict(d, va, vb)
			if v == "REGRESSION" {
				status = 1
			}
			aq1, am, aq3 := quartiles(va)
			bq1, bm, bq3 := quartiles(vb)
			bound := "-"
			if d.Name != "" {
				bound = fmt.Sprintf("%.2f", d.Bound)
			}
			fmt.Printf("%-8s %-30s %12.5g %-25s %12.5g %-25s %8.4f %6s  %s\n", w.Name, n,
				am, fmt.Sprintf("[%.5g, %.5g]", aq1, aq3), bm, fmt.Sprintf("[%.5g, %.5g]", bq1, bq3), ratio, bound, v)
		}
	}
	return status
}
