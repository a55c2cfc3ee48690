// Command benchmark is the repository's one benchmark: five workloads over
// the GDI engine, each a closed loop of two clients, reporting end-to-end
// metrics with tracing off and per-layer metrics from probes and a traced
// pass. BENCHMARK.json at the repository root lists the workloads and the
// metrics by name; README.md in this directory explains them.
//
//	go run . -workload oltp-rm -seed 1 -seconds 10 -trace 0   one run, result as the last line
//	go run .                                                   every workload, every metric
//	go run . -trace 1 -probes                                  per-layer metrics as well
//	go run . -runs 5 -json a.json                              keep a result set
//	go run . -compare a.json b.json                            apply the bounds to two sets
//	go run . -report                                           regenerate REPORT.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the result object as the last line (empty: all five, as a table)")
		seed         = flag.Int64("seed", 1, "graph seed; the request-stream seeds derive from it")
		seconds      = flag.Float64("seconds", 10, "length of the timed phase")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from an untraced and a traced half")
		probes       = flag.Bool("probes", false, "without -workload: first time each layer's exported calls (a traced -workload run always does)")
		only         = flag.String("only", "", "without -workload: run only these workloads (comma-separated)")
		runs         = flag.Int("runs", 1, "without -workload: repeat every workload this many times, seeds seed, seed+1, ...")
		jsonOut      = flag.String("json", "", "without -workload: write the result set to this file")
		compare      = flag.Bool("compare", false, "compare two result sets (arguments: A.json B.json) under the bounds of BENCHMARK.json")
		report       = flag.Bool("report", false, "run everything once and regenerate REPORT.md next to this program's sources")
		root         = flag.String("root", defaultRoot(), "repository root: where BENCHMARK.json is and benchmark/out goes")
		child        = flag.String("tcp-child", "", "internal: run as one rank process of a TCP mesh (rank,peer,peer,...)")
		scale        = flag.Int("scale", 0, "tests: override every workload's scale")
		warmup       = flag.Int("warmup", 0, "tests: override every workload's warm-up requests per worker")
		probeBudget  = flag.Duration("probe-budget", 0, "tests: override the time one probe may take")
		printJSON    = flag.Bool("benchmark-json", false, "print BENCHMARK.json as this program's tables define it")
		childModeArg = flag.String("tcp-mode", string(modeRun), "internal: how far the rank process goes (setup, run, probe)")
	)
	flag.Parse()

	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	o := options{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		setups: 3, outDir: filepath.Join(*root, "benchmark", "out"), exe: exe,
		scale: *scale, warmupOps: *warmup, probeBudget: *probeBudget,
	}
	switch {
	case *child != "":
		return tcpChild(*child, childMode(*childModeArg), *workloadName, o)
	case *printJSON:
		fmt.Println(benchmarkJSON())
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareSets(filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	case *report:
		return writeReport(*root, o)
	case *workloadName != "":
		return contractRun(*workloadName, o)
	}

	var set []*result
	status := 0
	if *probes {
		res, err := probeResult(o)
		if err != nil {
			return fail(err)
		}
		printResult(os.Stdout, res)
		set = append(set, res)
	}
	for i := 0; i < *runs; i++ {
		for _, s := range specs {
			if *only != "" && !slices.Contains(strings.Split(*only, ","), s.name) {
				continue
			}
			ro := o
			ro.seed = *seed + int64(i)
			res, err := runWorkload(s, ro)
			if err != nil {
				return fail(err)
			}
			printResult(os.Stdout, res)
			if len(res.Failures) > 0 {
				status = 1
			}
			set = append(set, res)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	return status
}

// defaultRoot finds the repository root from the two places the program is
// started in: the root itself (BENCHMARK.json's command) and this directory
// (go run .).
func defaultRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
			return ".."
		}
	}
	return "."
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// contractRun runs one workload and prints, as the last line of standard
// output, the result object the driver reads: the end-to-end metrics of
// BENCHMARK.json on an untraced run, the per-layer ones on a traced run. A
// traced run always includes the probes, because every per-layer metric is
// reported on every run.
func contractRun(name string, o options) int {
	s, ok := specByName(name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", name))
	}
	res, err := runWorkload(s, o)
	if err != nil {
		return fail(err)
	}
	if o.trace {
		pr, err := probeResult(o)
		if err != nil {
			return fail(err)
		}
		for name, m := range pr.Metrics {
			res.Metrics[name] = m
		}
		res.Failures = append(res.Failures, pr.Failures...)
	}
	defs := endToEndDefs
	if o.trace {
		defs = perLayerDefs
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(res.Failures) == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			res.failf("metric %s was not measured", d.Name)
			out.Correct = false
			continue
		}
		out.Metrics[d.Name] = metric{Value: m.Value, Unit: m.Unit}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// printResult prints every metric of one run by name, with its unit and
// sample count.
func printResult(w *os.File, res *result) {
	fmt.Fprintf(w, "== %s  seed=%d  attempted=%d  failed=%d  checks=%s\n", res.Workload, res.Seed, res.Attempted, res.Failed, checkWord(res))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", n, m.Value, m.Unit, samples)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
}

func checkWord(res *result) string {
	if len(res.Failures) == 0 {
		return "ok"
	}
	return "FAILED"
}
