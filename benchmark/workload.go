package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/query"
)

// options parameterizes one run of one workload.
type options struct {
	seed    int64
	seconds float64
	// trace selects the pass: false measures the end-to-end metrics with
	// tracing off; true runs untraced and traced parts (see runPhases) and
	// reports the per-layer metrics.
	trace bool
	// setups is how many times the database is created and loaded; setup_s
	// reports the median so that one slow load does not decide it.
	setups int
	// outDir receives trace-<workload>.json.
	outDir string
	// scale and warmupOps, when positive, override every workload's and the
	// probe database's; probeBudget, when positive, the time one probe may
	// take. The tests shrink the runs with them.
	scale, warmupOps int
	probeBudget      time.Duration
	// exe is the binary the tcp workload re-executes as its rank processes.
	exe string
}

// result is one run's outcome: every metric it produced, by name.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Failures lists the result checks that did not hold; empty means the
	// outputs were correct.
	Failures []string `json:"failures,omitempty"`
}

func (r *result) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// opSeed derives the request-stream seed from the benchmark seed (the graph
// has its own, fixed one: datasetSeed).
func opSeed(seed int64) int64 { return seed + 1_000_003 }

// runWorkload sets s up, measures it and checks its results.
func runWorkload(s spec, o options) (*result, error) {
	s = o.shrink(s)
	res := &result{Workload: s.name, Seed: o.seed, Metrics: map[string]metric{}}
	var err error
	switch {
	case s.tcp:
		err = runTCP(s, o, res)
	case s.kind == kindOLAP:
		err = runOLAP(s, o, res)
	default:
		err = runSim(s, o, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	res.checkFinite()
	return res, nil
}

// probeResult runs the layer probes; they do not depend on a workload.
func probeResult(o options) (*result, error) {
	res := &result{Workload: "probes", Seed: o.seed, Metrics: map[string]metric{}}
	if err := runProbes(o, res); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	res.checkFinite()
	return res, nil
}

// checkFinite fails the run on a metric that is not a number.
func (r *result) checkFinite() {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.failf("metric %s is %v", name, m.Value)
		}
	}
}

// shrink applies the test overrides to s.
func (o options) shrink(s spec) spec {
	if o.scale > 0 {
		s.scale = o.scale
	}
	if o.warmupOps > 0 {
		s.warmupOps = o.warmupOps
	}
	return s
}

// setupSim creates and loads the simulator database o.setups times and
// returns the last one with the median set-up time.
func setupSim(s spec, o options) (*env, float64, error) {
	in, err := generate(s, allRanks(s.ranks))
	if err != nil {
		return nil, 0, err
	}
	var e *env
	var times []float64
	for i := 0; i < max(1, o.setups); i++ {
		e = nil
		runtime.GC() // the previous database is garbage; do not let it inflate peak RSS
		t0 := time.Now()
		if e, err = load(s, in, newSimRuntime(s.ranks)); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

// runSim runs a transactional workload on the simulator.
func runSim(s spec, o options, res *result) error {
	e, setupS, err := setupSim(s, o)
	if err != nil {
		return err
	}
	ss := newSessions(e, opSeed(o.seed), allRanks(s.workers))
	ph, err := runPhases(e, ss, o, func() {})
	if err != nil {
		return err
	}
	if s.kind == kindLDBC {
		if err := checkFriendsQuery(e, o.seed, res); err != nil {
			return err
		}
	}
	report(e, o, res, ph, setupS, measureMemory())
	if got, want := e.vertexCount(), int64(e.cfg.NumVertices())+ph.vertices(); got != want {
		res.failf("vertices after run: %d, want loaded + inserts - deletes = %d", got, want)
	}
	return nil
}

// phases are the measured parts of one run. The warm-up is not timed: it is
// the benchmark's doing, not a cost of setting the system up.
type phases struct {
	warm     *phaseResult
	untraced *phaseResult
	traced   *phaseResult // nil on an untraced run
}

// vertices is the committed change of the vertex count over all phases.
func (ph *phases) vertices() int64 {
	n := ph.warm.Vertices + ph.untraced.Vertices
	if ph.traced != nil {
		n += ph.traced.Vertices
	}
	return n
}

// runPhases warms the sessions up and runs the timed phases: one untraced
// phase of o.seconds; or, on a traced run, an untraced quarter, a traced half
// and another untraced quarter, so that a drift of the workload over the run
// (oltp-wi's vertices lose edges as it goes) weighs on both sides of
// trace.overhead_frac alike. barrier aligns the rank processes of a wire
// transport before each phase.
func runPhases(e *env, ss []session, o options, barrier func()) (*phases, error) {
	ph := &phases{warm: &phaseResult{}}
	barrier()
	if e.s.warmupOps > 0 {
		var err error
		if ph.warm, err = runPhase(e, ss, limit{ops: e.s.warmupOps}, false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	barrier()
	dur := time.Duration(o.seconds * float64(time.Second))
	var err error
	if !o.trace {
		ph.untraced, err = runPhase(e, ss, limit{dur: dur}, false)
		return ph, err
	}
	if ph.untraced, err = runPhase(e, ss, limit{dur: dur / 4}, false); err != nil {
		return nil, err
	}
	barrier()
	if ph.traced, err = runPhase(e, ss, limit{dur: dur / 2}, true); err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	barrier()
	after, err := runPhase(e, ss, limit{dur: dur / 4}, false)
	if err != nil {
		return nil, err
	}
	ph.untraced.merge(after, false)
	return ph, nil
}

// report turns the phases of one run into metrics: the end-to-end ones from
// the untraced phase, and on a traced run the per-layer ones.
func report(e *env, o options, res *result, ph *phases, setupS float64, mem memory) {
	res.Attempted, res.Failed = ph.untraced.Attempted, ph.untraced.Failed
	if !o.trace {
		res.set("setup_s", setupS, "s", max(1, o.setups))
		res.set("bytes_per_edge", e.bytesPerEdge(), "B", 0)
		res.set("heap_mb", mem.HeapMiB, "MiB", 0)
		res.set("peak_rss_mb", mem.PeakMiB, "MiB", 0)
		endToEnd(res, ph.untraced)
		return
	}
	trafficMetrics(res, ph.untraced)
	traceMetrics(res, ph.untraced, ph.traced)
	if o.outDir != "" {
		if _, err := writeTrace(o.outDir, e.s.name, ph.traced.Spans); err != nil {
			res.failf("writing trace: %v", err)
		}
	}
}

// endToEnd reports throughput and latency of one untraced phase: the
// all-request figures every workload has, and the per-class figures of the
// classes this workload issues. A percentile beyond the median is reported
// only where at least minBeyond samples lie beyond it.
func endToEnd(res *result, p *phaseResult) {
	res.set("qps", p.qps(), "1/s", int(p.succeeded()))
	res.set("stolen_frac", p.StolenS/p.ElapsedS, "ratio", 0)
	all := p.all()
	quant := func(name string, xs []int64, q, div float64, unit string) {
		if v, ok := quantile(xs, q); ok {
			res.set(name, float64(v)/div, unit, len(xs))
		}
	}
	// The two all-request latencies are in BENCHMARK.json, so every run
	// reports them, with their sample count, whatever that count is.
	for name, q := range map[string]float64{"lat_p50_us": 0.50, "lat_p90_us": 0.90} {
		res.set(name, p.latency(q)/1e3, "us", len(all))
	}
	quant("lat_p99_us", all, 0.99, 1e3, "us")
	for _, c := range []class{clRead, clWrite} {
		xs := p.sorted(c)
		quant(classNames[c]+"_p50_us", xs, 0.50, 1e3, "us")
		quant(classNames[c]+"_p99_us", xs, 0.99, 1e3, "us")
	}
	if xs := p.Lat[clDelete]; len(xs) >= minBeyond {
		res.set("delete_mean_us", mean(xs)/1e3, "us", len(xs))
	}
	q := p.sorted(clQuery)
	quant("query_p50_ms", q, 0.50, 1e6, "ms")
	quant("query_p99_ms", q, 0.99, 1e6, "ms")
}

// trafficMetrics reports the fabric traffic and wasted work per completed
// request, from the untraced phase's counter delta.
func trafficMetrics(res *result, p *phaseResult) {
	ops := float64(max(1, p.succeeded()))
	t := p.Traffic
	res.set("fabric.remote_atomics_per_op", float64(t.RemoteAtoms)/ops, "count", 0)
	res.set("fabric.atomic_trains_per_op", float64(t.AtomicBatches)/ops, "count", 0)
	res.set("fabric.remote_gets_per_op", float64(t.RemoteGets)/ops, "count", 0)
	res.set("fabric.get_trains_per_op", float64(t.GetBatches)/ops, "count", 0)
	res.set("fabric.put_trains_per_op", float64(t.PutBatches)/ops, "count", 0)
	res.set("fabric.bytes_got_per_op", float64(t.BytesGot)/ops, "B", 0)
	res.set("fabric.bytes_put_per_op", float64(t.BytesPut)/ops, "B", 0)
	res.set("block.cache_hit_ratio", ratio(t.CacheHits, t.CacheHits+t.CacheMisses), "ratio", 0)
	res.set("core.optimistic_abort_frac", ratio(p.Aborts, p.Attempted+p.Aborts), "ratio", 0)
	res.set("core.notfound_frac", ratio(p.NotFound, p.Attempted), "ratio", 0)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceMetrics reports where the traced phase's time went: each phase's
// share of all self time (every workload has every share, possibly 0), the
// round trips of the commit and associate phases, the tracing overhead, and
// the per-class median self times of the classes this workload issues.
func traceMetrics(res *result, untraced, traced *phaseResult) {
	st := aggregate(traced.Spans)
	shares := st.shares()
	for ph, v := range shares {
		name := phaseNames[ph]
		if phase(ph) == phOp {
			name = "client" // the root's self time: the client between engine calls
		}
		res.set("trace.share."+name, v, "ratio", int(st.count[ph]))
	}
	res.set("trace.commit.atomic_trains", st.perSpan(phCommit, func(t trains64) int64 { return t.atomicTrains }), "count", int(st.count[phCommit]))
	res.set("trace.commit.put_trains", st.perSpan(phCommit, func(t trains64) int64 { return t.putTrains }), "count", int(st.count[phCommit]))
	res.set("trace.associate.get_trains", st.perSpan(phAssociate, func(t trains64) int64 { return t.getTrains }), "count", int(st.count[phAssociate]))
	res.set("trace.associate.atomic_trains", st.perSpan(phAssociate, func(t trains64) int64 { return t.atomicTrains }), "count", int(st.count[phAssociate]))

	res.set("trace.overhead_frac", 1-traced.qps()/untraced.qps(), "ratio", int(traced.succeeded()))

	for _, row := range []struct {
		c      class
		phases []phase
	}{
		{clRead, []phase{phTranslate, phAssociate, phAccess, phCommit}},
		{clWrite, []phase{phTranslate, phAssociate, phMutate, phCommit}},
		{clDelete, []phase{phMutate, phCommit}},
		{clQuery, []phase{phTranslate, phRun, phCommit}},
		{clBFS, []phase{phRun}}, {clPageRank, []phase{phRun}}, {clWCC, []phase{phRun}}, {clLCC, []phase{phRun}},
	} {
		for _, ph := range row.phases {
			if v, n := st.medianSelfUs(row.c, ph); n > 0 {
				name := phaseNames[ph]
				if row.c == clQuery && ph == phTranslate {
					name = "root"
				}
				res.set("trace."+classNames[row.c]+"."+name+"_us", v, "us", n)
			}
		}
	}
}

// checkRoots is the number of roots the compiled 2-hop plan is checked on
// against the per-vertex reference walk.
const checkRoots = 32

// checkFriendsQuery verifies, on checkRoots generated roots, that query.Run
// returns the rows query.RunNaive returns.
func checkFriendsQuery(e *env, seed int64, res *result) error {
	g := newGenerator(e.s, seed+7, 0, e.cfg.NumVertices())
	p := e.db.Process(0)
	pattern := friendsPattern(e.db, e.sch)
	for i := 0; i < checkRoots; i++ {
		app := g.key()
		var rows [2]*query.Result
		for j, run := range []func(*gdi.Transaction, gdi.VertexID, *query.Pattern) (*query.Result, error){query.Run, query.RunNaive} {
			tx := p.StartTransaction(gdi.ReadOnly)
			id, err := tx.TranslateVertexID(app)
			if err == nil {
				rows[j], err = run(tx, id, pattern)
			}
			if err == nil {
				err = tx.Commit()
			}
			tx.Abort()
			if err != nil {
				return fmt.Errorf("2-hop check, root %d: %w", app, err)
			}
		}
		if !reflect.DeepEqual(rows[0].Rows, rows[1].Rows) {
			res.failf("2-hop query from app %d: compiled plan returned %d rows, reference walk %d, or they differ", app, len(rows[0].Rows), len(rows[1].Rows))
		}
	}
	return nil
}
