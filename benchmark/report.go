package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// writeReport runs the probes and every workload, untraced and traced, once
// at one seed and regenerates REPORT.md from the results: every metric, and
// the ledger that sets the measured point-read and update latencies against
// the sum of the traced phases and against a model added up from the probes.
func writeReport(root string, o options) int {
	o.trace = false
	var untraced, traced []*result
	probes, err := probeResult(o)
	if err != nil {
		return fail(err)
	}
	printResult(os.Stdout, probes)
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			ro := o
			ro.trace = trace
			res, err := runWorkload(s, ro)
			if err != nil {
				return fail(err)
			}
			printResult(os.Stdout, res)
			if trace {
				traced = append(traced, res)
			} else {
				untraced = append(untraced, res)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Benchmark report\n\n")
	fmt.Fprintf(&b, "Generated by `go run . -report` in `benchmark/` from one full run at one commit; regenerate it, do not edit it.\n")
	fmt.Fprintf(&b, "It records a baseline and claims no gain.\n\n")
	fmt.Fprintf(&b, "- commit: %s\n- host: %s\n- seed %d, %g s per timed phase, set-up repeated %d times\n\n", commitLine(root), hostLine(), o.seed, o.seconds, o.setups)

	status := 0
	fmt.Fprintf(&b, "## End-to-end metrics (tracing off)\n\n")
	for _, r := range untraced {
		status |= writeTable(&b, r)
	}
	fmt.Fprintf(&b, "## Per-layer metrics: traffic per request and traced phases\n\n")
	fmt.Fprintf(&b, "From a separate traced run of each workload (an untraced quarter, a traced half, an untraced quarter; `trace.overhead_frac` = 1 - traced qps / untraced qps). `trace.<class>.<phase>_us` are median self times: a span's duration minus the part its child spans cover.\n\n")
	for _, r := range traced {
		status |= writeTable(&b, r)
	}
	fmt.Fprintf(&b, "## Per-layer metrics: probes\n\n")
	fmt.Fprintf(&b, "Median time of direct calls into each layer's exported functions, origin rank 0 towards a remote rank, on the oltp-rm graph (simulator, 1 us injected latency) and over a 2-process loopback TCP mesh.\n\n")
	status |= writeTable(&b, probes)

	fmt.Fprintf(&b, "## Ledger: do the layers add up to the end-to-end latency?\n\n")
	fmt.Fprintf(&b, "Two reconciliations per request class, each with its residual stated. (a) adds the traced phases' median self times; medians of skewed phases do not add up to the median of their sum, and `begin`, the client's own code and the spans themselves are in the residual. (b) prices one request from the probes alone, for a median-degree vertex with the workload's measured cache hit ratio; what it leaves out is in its residual: transaction bookkeeping, handle materialisation (`Edges` copies every edge out), allocation, and on `oltp-rm` the Zipf keys' preference for hubs, whose holders span many blocks.\n\n")
	for i, s := range specs {
		if s.kind == kindOLTP && !s.tcp {
			ledger(&b, s, untraced[i], traced[i], probes)
		}
	}
	path := filepath.Join(root, "benchmark", "REPORT.md")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fail(err)
	}
	fmt.Println("wrote", path)
	return status
}

// writeTable writes one result as a markdown table and returns 1 if a check
// failed.
func writeTable(b *strings.Builder, r *result) int {
	fmt.Fprintf(b, "### %s\n\n", r.Workload)
	if r.Attempted > 0 {
		fmt.Fprintf(b, "attempted %d, failed %d, checks %s\n\n", r.Attempted, r.Failed, checkWord(r))
	}
	fmt.Fprintf(b, "| metric | value | unit | samples |\n|---|---:|---|---:|\n")
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := r.Metrics[n]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprint(m.N)
		}
		fmt.Fprintf(b, "| `%s` | %.4f | %s | %s |\n", n, m.Value, m.Unit, samples)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(b, "\nCHECK FAILED: %s\n", f)
	}
	b.WriteString("\n")
	if len(r.Failures) > 0 {
		return 1
	}
	return 0
}

// ledger reconciles read_p50_us and write_p50_us of one simulator OLTP
// workload against (a) the sum of the traced phases' median self times and
// (b) an additive model from the probes, and states the residuals.
func ledger(b *strings.Builder, s spec, untraced, traced, probes *result) {
	get := func(r *result, name string) float64 { return r.Metrics[name].Value }
	ns := func(name string) float64 { return get(probes, name) / 1e3 } // probe in ns -> us
	remote := float64(s.ranks-1) / float64(s.ranks)                    // share of vertices on another rank than the client's
	hit := get(traced, "block.cache_hit_ratio")
	blocks := get(probes, "holder.blocks_per_vertex")
	atomic := ns("fabric.sim.cas_ns") // one remote atomic: a stamp load, a lock CAS

	fmt.Fprintf(b, "### %s\n\n", s.name)
	fmt.Fprintf(b, "Model inputs: %.0f %% of vertices are remote to the client (%d ranks), block cache hit ratio %.3f, %.2f blocks per vertex.\n\n", remote*100, s.ranks, hit, blocks)
	for _, c := range []struct {
		class    string
		phases   []string
		model    []term
		measured string
	}{
		{
			class: "read", measured: "read_p50_us",
			phases: []string{"translate", "associate", "access", "commit"},
			model: []term{
				{"dht.lookup_ns", ns("dht.lookup_ns")},
				{"stamp before and after the read: 2 remote atomics x remote share", 2 * atomic * remote},
				{"block reads: blocks x remote share x (hit x cached_hit16/16 + miss x block.read_ns)", blocks * remote * (hit*ns("block.cached_hit16_ns")/16 + (1-hit)*ns("block.read_ns"))},
				{"holder.decode_median_ns", ns("holder.decode_median_ns")},
				{"commit: validate the read set, 1 remote atomic x remote share", atomic * remote},
			},
		},
		{
			class: "write", measured: "write_p50_us",
			phases: []string{"translate", "associate", "mutate", "commit"},
			model: []term{
				{"dht.lookup_ns", ns("dht.lookup_ns")},
				{"read lock: locks.read_acq_rel_ns / 2 x remote share", ns("locks.read_acq_rel_ns") / 2 * remote},
				{"block reads under the lock, as for a read", blocks * remote * (hit*ns("block.cached_hit16_ns")/16 + (1-hit)*ns("block.read_ns"))},
				{"holder.decode_median_ns + holder.encode_median_ns", ns("holder.decode_median_ns") + ns("holder.encode_median_ns")},
				{"core.update_commit_ns (upgrade train, write-back train, release)", ns("core.update_commit_ns")},
			},
		},
	} {
		measured, ok := untraced.Metrics[c.measured]
		if !ok {
			fmt.Fprintf(b, "`%s`: not reported on this workload (fewer than %d samples beyond it).\n\n", c.measured, minBeyond)
			continue
		}
		fmt.Fprintf(b, "**`%s` = %.2f us** (n=%d)\n\n", c.measured, measured.Value, measured.N)
		fmt.Fprintf(b, "| (a) traced phase, median self time | us |\n|---|---:|\n")
		sum := 0.0
		for _, ph := range c.phases {
			v := get(traced, "trace."+c.class+"."+ph+"_us")
			sum += v
			fmt.Fprintf(b, "| `trace.%s.%s_us` | %.2f |\n", c.class, ph, v)
		}
		fmt.Fprintf(b, "| sum | %.2f |\n| residual (measured - sum: begin, client code, span overhead, medians not adding) | %.2f (%.0f %%) |\n\n", sum, measured.Value-sum, 100*(measured.Value-sum)/measured.Value)
		fmt.Fprintf(b, "| (b) model from the probes | us |\n|---|---:|\n")
		sum = 0
		for _, t := range c.model {
			sum += t.us
			fmt.Fprintf(b, "| %s | %.2f |\n", t.what, t.us)
		}
		fmt.Fprintf(b, "| sum | %.2f |\n| residual (measured - model) | %.2f (%.0f %%) |\n\n", sum, measured.Value-sum, 100*(measured.Value-sum)/measured.Value)
	}
}

type term struct {
	what string
	us   float64
}

func hostLine() string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	cpu := "unknown cpu"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("nproc %d, %s, %s/%s, kernel %s, %s", runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, strings.TrimSpace(string(kernel)), cpu)
}

// commitLine names the commit the report was generated at, when the tree is
// a git checkout.
func commitLine(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	line := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		line += " plus uncommitted changes"
	}
	return line
}
