package main

import (
	"encoding/json"
	"strings"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef describes one metric of BENCHMARK.json; a per-layer metric has no
// bound. The lists below are the source of that file's end_to_end and
// per_layer arrays; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics a caller of the system sees, measured with
// tracing off. Every workload reports every one of them, so each is defined
// over all requests of the workload; the per-class figures (read_p50_us,
// delete_mean_us, query_p50_ms, bfs_s, ...) exist only on the workloads that
// issue that class and are printed by the full run and REPORT.md instead.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.20},
	{"lat_p90_us", "us", "lower", 0.25},
	{"bytes_per_edge", "B", "lower", 0.02},
	{"heap_mb", "MiB", "lower", 0.05},
}

// perLayerDefs are the metrics of single layers, reported by a traced run:
// the probes (the same calls on the same probe database whatever the
// workload), the workload's traffic per request, and the traced phase's
// breakdown.
var perLayerDefs = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "lower",
		"fabric.sim.get512_ns", "fabric.sim.getbatch16_ns", "fabric.sim.putbatch16_ns",
		"fabric.sim.cas_ns", "fabric.sim.casbatch16_ns", "fabric.sim.loadbatch16_ns")
	add("us", "lower",
		"fabric.tcp.get512_us", "fabric.tcp.getbatch16_us", "fabric.tcp.putbatch16_us",
		"fabric.tcp.cas_us", "fabric.tcp.casbatch16_us", "fabric.tcp.loadbatch16_us")
	add("ns", "lower",
		"locks.read_acq_rel_ns", "locks.write_acq_rel_ns", "locks.read_train16_ns", "locks.write_train16_ns",
		"block.read_ns", "block.read_batch16_ns", "block.write_batch16_ns", "block.cached_hit16_ns", "block.acquire_release_ns",
		"dht.lookup_ns", "dht.insert_delete_ns",
		"holder.decode_median_ns", "holder.decode_hub_ns", "holder.encode_median_ns")
	add("count", "lower", "holder.blocks_per_vertex")
	add("ns", "lower", "core.point_read_ns", "core.ro_tx_ns", "core.update_commit_ns")
	add("us", "lower", "core.expand_hop64_us")
	add("s", "lower", "core.bulkload_vertices_s", "core.bulkload_edges_s")
	add("ms", "lower", "query.khop2_ms")
	add("count", "lower", "query.vertices_per_row")
	add("ms", "lower", "analytics.csr_build_ms", "analytics.pagerank_iter_ms", "analytics.bfs_root_ms")
	add("us", "lower", "exchange.round64k_us", "collective.barrier_us", "collective.allreduce_us")

	add("count", "lower",
		"fabric.remote_atomics_per_op", "fabric.atomic_trains_per_op", "fabric.remote_gets_per_op",
		"fabric.get_trains_per_op", "fabric.put_trains_per_op")
	add("B", "lower", "fabric.bytes_got_per_op", "fabric.bytes_put_per_op")
	add("ratio", "higher", "block.cache_hit_ratio")
	add("ratio", "lower", "core.optimistic_abort_frac", "core.notfound_frac")

	add("ratio", "lower",
		"trace.share.client", "trace.share.begin", "trace.share.translate", "trace.share.associate",
		"trace.share.access", "trace.share.mutate", "trace.share.run", "trace.share.commit")
	add("count", "lower",
		"trace.commit.atomic_trains", "trace.commit.put_trains",
		"trace.associate.get_trains", "trace.associate.atomic_trains")
	add("ratio", "lower", "trace.overhead_frac")
	return defs
}()

// runSeconds is the length of the timed phase the driver asks for.
const runSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the tables above and the specs.
func benchmarkJSON() string {
	file := benchmarkFile{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
		EndToEnd: endToEndDefs, PerLayer: perLayerDefs,
	}
	for _, s := range specs {
		file.Workloads = append(file.Workloads, workloadDef{s.name, s.why})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	enc.Encode(file)
	return strings.TrimRight(b.String(), "\n")
}
