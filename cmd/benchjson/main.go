// Command benchjson converts `go test -bench` output on stdin into one
// BENCH_<name>.json file per top-level benchmark: the per-variant ns/op and
// custom metrics, the commit the numbers were measured at, and — for the
// ablation benchmarks whose CI tier holds a ratio gate — the measured gate
// ratio. CI bench-smoke runs it after the benchmarks so the uploaded
// artifacts carry machine-readable history; checked-in snapshots under
// bench/ record the trajectory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// report is one top-level benchmark's JSON document. Variant keys are the
// sub-benchmark names ("" for a benchmark without b.Run variants).
type report struct {
	Name      string                        `json:"name"`
	Commit    string                        `json:"commit"`
	NsPerOp   map[string]float64            `json:"ns_per_op"`
	Metrics   map[string]map[string]float64 `json:"metrics,omitempty"`
	Gate      string                        `json:"gate,omitempty"`
	GateRatio float64                       `json:"gate_ratio,omitempty"`
}

// A gate part returns one (label, ratio) axis. Two failure shapes are kept
// distinct: an *absent* part (label "") means the run never reported that
// axis — a composite gate simply gates on its remaining parts — while a
// *degenerate* part (a label with ratio 0) means the axis was reported but
// is unusable (a zero denominator, a variant that ran without its metric),
// which poisons the whole gate into "skipped". The distinction is what lets
// a benchmark that only reports ns/op share minGate with one that also
// reports traffic: the missing axis must not be divided by, and must not
// silence the axes that did run.

// nsRatio gates a paired ablation on wall time: the baseline variant's
// ns/op over the optimized variant's (bigger is better). Absent when either
// variant did not run at all.
func nsRatio(baseline, optimized string) func(*report) (string, float64) {
	return func(r *report) (string, float64) {
		b, okB := r.NsPerOp[baseline]
		o, okO := r.NsPerOp[optimized]
		if !okB || !okO {
			return "", 0
		}
		label := fmt.Sprintf("ns/op %s / %s", baseline, optimized)
		if o == 0 {
			return label, 0
		}
		return label, b / o
	}
}

// metricRatio gates a paired ablation on a reported metric: the optimized
// variant's value over the baseline's (bigger is better). Absent when
// neither variant reported the metric; degenerate when only one did, or the
// baseline reported zero.
func metricRatio(optimized, baseline, metric string) func(*report) (string, float64) {
	return func(r *report) (string, float64) {
		b, okB := r.Metrics[baseline][metric]
		o, okO := r.Metrics[optimized][metric]
		if !okB && !okO {
			return "", 0
		}
		label := fmt.Sprintf("%s %s / %s", metric, optimized, baseline)
		if !okB || !okO || b == 0 {
			return label, 0
		}
		return label, o / b
	}
}

// trafficRatio gates a paired ablation on bytes moved: the baseline
// variant's bytes/op over the optimized variant's (bigger is better — the
// optimized variant moves fewer bytes for the same logical work).
// Absent/degenerate exactly as metricRatio, with the divisor flipped.
func trafficRatio(baseline, optimized, metric string) func(*report) (string, float64) {
	return func(r *report) (string, float64) {
		b, okB := r.Metrics[baseline][metric]
		o, okO := r.Metrics[optimized][metric]
		if !okB && !okO {
			return "", 0
		}
		label := fmt.Sprintf("%s %s / %s", metric, baseline, optimized)
		if !okB || !okO || o == 0 {
			return label, 0
		}
		return label, b / o
	}
}

// minGate combines gates: the reported ratio is the weakest of the parts
// that ran, so the CI threshold holds on every reported axis at once.
// Absent parts are dropped — a QueryAblation run that reports no bytes/op
// gates on the ns ratio alone — but a degenerate part (reported yet
// unusable) still skips the whole gate rather than silently weakening it.
func minGate(parts ...func(*report) (string, float64)) func(*report) (string, float64) {
	return func(r *report) (string, float64) {
		label, ratio := "", math.Inf(1)
		for _, part := range parts {
			l, x := part(r)
			if l == "" {
				continue
			}
			if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
				return "", 0
			}
			if x < ratio {
				label, ratio = l, x
			}
		}
		if label == "" {
			return "", 0
		}
		return "min: " + label, ratio
	}
}

// gates maps each gated ablation benchmark to its CI ratio.
var gates = map[string]func(*report) (string, float64){
	"QueryAblation":       minGate(nsRatio("naive", "compiled"), trafficRatio("naive", "compiled", "bytes/op")),
	"RebalanceAblation":   metricRatio("rebalanced", "static", "queries/s"),
	"ReplicationAblation": metricRatio("replicated-k3", "unreplicated", "queries/s"),
	"HTAPAblation": func(r *report) (string, float64) {
		x := r.Metrics[""]["makespan-x"]
		if x == 0 {
			return "", 0
		}
		return "makespan-x (stop-the-world / concurrent)", x
	},
}

// applyGate fills in r.Gate and r.GateRatio for a gated benchmark. When the
// gate cannot be computed — a variant that did not run, or a baseline metric
// that is absent or zero — the verdict is the explicit "skipped" instead of a
// degenerate ratio: +Inf and NaN are unrepresentable in JSON (marshalling
// would fail), and a silent 0 would read as a catastrophic regression.
func applyGate(r *report) {
	gate := gates[r.Name]
	if gate == nil {
		return
	}
	label, ratio := gate(r)
	if label == "" || ratio == 0 || math.IsInf(ratio, 0) || math.IsNaN(ratio) {
		r.Gate, r.GateRatio = "skipped", 0
		return
	}
	r.Gate, r.GateRatio = label, ratio
}

// benchLine matches one result row: name, optional /variant, iteration
// count, ns/op, then tab-separated custom metrics. The -<GOMAXPROCS>
// suffix go test appends (absent at GOMAXPROCS=1) lands in the name when
// there is no variant — Go identifiers cannot contain '-' — and is stripped
// afterwards.
var benchLine = regexp.MustCompile(`^Benchmark([\w-]+)((?:/[^ \t]+)?)\s+\d+\s+([\d.]+) ns/op(.*)$`)

var procSuffix = regexp.MustCompile(`-\d+$`)

// parse folds `go test -bench` output into one report per top-level
// benchmark, returned in first-seen order.
func parse(in io.Reader, commit string) (map[string]*report, []string, error) {
	reports := map[string]*report{}
	var order []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name, sub := m[1], strings.TrimPrefix(m[2], "/")
		if sub == "" {
			name = procSuffix.ReplaceAllString(name, "")
		} else {
			sub = procSuffix.ReplaceAllString(sub, "")
		}
		r := reports[name]
		if r == nil {
			r = &report{Name: name, Commit: commit, NsPerOp: map[string]float64{}}
			reports[name] = r
			order = append(order, name)
		}
		r.NsPerOp[sub], _ = strconv.ParseFloat(m[3], 64)
		for _, field := range strings.Split(m[4], "\t") {
			parts := strings.SplitN(strings.TrimSpace(field), " ", 2)
			if len(parts) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(parts[0], 64)
			if err != nil {
				continue
			}
			if r.Metrics == nil {
				r.Metrics = map[string]map[string]float64{}
			}
			if r.Metrics[sub] == nil {
				r.Metrics[sub] = map[string]float64{}
			}
			r.Metrics[sub][parts[1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return reports, order, nil
}

func main() {
	commit := flag.String("commit", "", "commit SHA recorded in each report")
	dir := flag.String("dir", ".", "directory the BENCH_<name>.json files are written into")
	flag.Parse()

	reports, order, err := parse(os.Stdin, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(order) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for _, name := range order {
		r := reports[name]
		applyGate(r)
		buf, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		path := filepath.Join(*dir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Println(path)
	}
}
