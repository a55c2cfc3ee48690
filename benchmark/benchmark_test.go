package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// tcp workload and the fabric probes re-execute it as a rank process.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "-tcp-child") {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// smallOptions shrinks a run to test size.
func smallOptions(t *testing.T, trace bool) options {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return options{
		seed: 3, seconds: 0.3, trace: trace, setups: 1, outDir: t.TempDir(), exe: exe,
		scale: 7, warmupOps: 40, probeBudget: 5 * time.Millisecond,
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, untraced and traced, and the probes at a
// small scale, and checks that the runs are correct and that exactly the
// workloads and metrics BENCHMARK.json lists are there, by name and unit.
func TestSmoke(t *testing.T) {
	bench, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bench.Workloads), len(specs))
	}
	probes, err := probeResult(smallOptions(t, true))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if bench.Workloads[i].Name != s.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, bench.Workloads[i].Name, s.name)
		}
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(s, smallOptions(t, trace))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Failures {
				t.Errorf("%s trace=%v: check failed: %s", s.name, trace, f)
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", s.name, trace, res.Attempted)
			}
			defs := bench.EndToEnd
			if trace {
				defs = bench.PerLayer
				for n, m := range probes.Metrics {
					res.Metrics[n] = m
				}
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s is not reported", s.name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", s.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", s.name, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want positive", s.name, d.Name, m.Value)
				}
				if !metricName.MatchString(d.Name) {
					t.Errorf("metric name %q is outside the contract", d.Name)
				}
			}
		}
	}
}

// TestBenchmarkFile keeps BENCHMARK.json in step with the program's tables.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), benchmarkJSON()+"\n"; got != want {
		t.Errorf("BENCHMARK.json differs from `go run . -benchmark-json`; regenerate it")
	}
	for _, s := range specs {
		if len(s.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", s.name, len(s.why))
		}
		if s.workers > 2 {
			t.Errorf("workload %s: %d clients, more than the reference box's 2 cores", s.name, s.workers)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEndDefs), perLayerDefs...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	if n := len(endToEndDefs); n > 16 {
		t.Errorf("%d end-to-end metrics, limit 16", n)
	}
	if n := len(perLayerDefs); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestClientMatchesShippedDrivers runs the same request sequence through the
// shipped drivers' clients (workload.Run over workload.GDASystem, and
// workload.RunLDBC) and through the benchmark's own client, one worker each
// on its own freshly loaded database, and requires identical fabric counter
// deltas: the benchmark measures the traffic the shipped drivers generate.
func TestClientMatchesShippedDrivers(t *testing.T) {
	const ops, seed = 300, 11
	for _, name := range []string{"oltp-rm", "oltp-wi", "ldbc"} {
		t.Run(name, func(t *testing.T) {
			s, _ := specByName(name)
			s.scale, s.workers, s.recycle, s.queryRoots = 8, 1, false, 0
			in, err := generate(s, allRanks(s.ranks))
			if err != nil {
				t.Fatal(err)
			}
			delta := func(drive func(e *env) error) fabric.Snapshot {
				e, err := load(s, in, newSimRuntime(s.ranks))
				if err != nil {
					t.Fatal(err)
				}
				before := e.rt.Transport().TotalSnapshot()
				if err := drive(e); err != nil {
					t.Fatal(err)
				}
				return diff(e.rt.Transport().TotalSnapshot(), before)
			}
			shipped := delta(func(e *env) error {
				if s.kind == kindLDBC {
					_, err := workload.RunLDBC(e.db, e.sch, workload.LDBCConfig{
						Workers: 1, OpsPerWorker: ops, KeySpace: e.cfg.NumVertices(), Seed: seed,
						ZipfS: s.zipfS, FriendLimit: friendsLimit, AgeOver: friendsAgeOver,
					})
					return err
				}
				_, err := workload.Run(&workload.GDASystem{DB: e.db, Schema: e.sch}, workload.RunConfig{
					Mix: s.mix, Workers: 1, OpsPerWorker: ops, KeySpace: e.cfg.NumVertices(), Seed: seed, ZipfS: s.zipfS,
				})
				return err
			})
			own := delta(func(e *env) error {
				res, err := runPhase(e, newSessions(e, seed, []int{0}), limit{ops: ops}, false)
				if err == nil && res.Attempted != ops {
					t.Errorf("attempted %d requests, want %d", res.Attempted, ops)
				}
				return err
			})
			if own != shipped {
				t.Errorf("fabric counters differ:\n benchmark client %+v\n shipped driver   %+v", own, shipped)
			}
			if own.RemoteOps() == 0 {
				t.Error("no remote traffic: the comparison is vacuous")
			}
		})
	}
}

// TestTracedClientIssuesSameTraffic checks that switching the spans on does
// not change what the client asks of the engine.
func TestTracedClientIssuesSameTraffic(t *testing.T) {
	s, _ := specByName("oltp-wi")
	s.scale, s.workers = 8, 1
	in, err := generate(s, allRanks(s.ranks))
	if err != nil {
		t.Fatal(err)
	}
	var got [2]fabric.Snapshot
	for i, traced := range []bool{false, true} {
		e, err := load(s, in, newSimRuntime(s.ranks))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runPhase(e, newSessions(e, 5, []int{0}), limit{ops: 200}, traced)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res.Traffic
		if traced && (len(res.Spans) != 1 || len(res.Spans[0]) < 200*3) {
			t.Errorf("traced phase recorded %d span slices", len(res.Spans))
		}
	}
	if got[0] != got[1] {
		t.Errorf("traffic differs with tracing on:\n off %+v\n on  %+v", got[0], got[1])
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1) // 1..100, sorted
	}
	for _, c := range []struct {
		q         float64
		want      int64
		supported bool
	}{
		{0.50, 50, true},
		{0.90, 90, true},  // 10 samples beyond
		{0.91, 91, false}, // 9 beyond
		{0.99, 99, false},
		{1.00, 100, false},
	} {
		got, ok := quantile(xs, c.q)
		if got != c.want || ok != c.supported {
			t.Errorf("quantile(1..100, %v) = %d, %v; want %d, %v", c.q, got, ok, c.want, c.supported)
		}
	}
	if v, ok := quantile(xs[:6], 0.99); v != xs[5] || ok {
		t.Errorf("quantile of 6 samples = %d, %v; want the largest, unsupported", v, ok)
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples is supported")
	}
	// 1000 samples: p99 has exactly 10 beyond it.
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(i)
	}
	if v, ok := quantile(big, 0.99); v != 989 || !ok {
		t.Errorf("quantile(0..999, 0.99) = %d, %v; want 989, true", v, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v, %v; want 1.75, 3.5, 5.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
	if q1, q2, q3 := quartiles([]float64{50, 10, 40, 20, 30}); q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("quartiles = %v, %v, %v; want 15, 30, 45", q1, q2, q3)
	}
}

// TestSelfTime checks that a span's self time is its duration minus the part
// its children cover, at every level.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Phase: phOp, Parent: -1, Start: 0, End: 100},       // 0: root
		{Phase: phTranslate, Parent: 0, Start: 10, End: 30}, // 1
		{Phase: phAssociate, Parent: 0, Start: 30, End: 70}, // 2
		{Phase: phAccess, Parent: 2, Start: 40, End: 55},    // 3: nested in 2
		{Phase: phCommit, Parent: 0, Start: 80, End: 95},    // 4
	}
	want := []int64{100 - 20 - 40 - 15, 20, 40 - 15, 15, 15}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	st := aggregate([][]span{spans})
	shares := st.shares()
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 || shares[phOp] != 0.25 {
		t.Errorf("shares %v: sum %v, client share %v; want 1 and 0.25", shares, sum, shares[phOp])
	}
}

func TestVerdict(t *testing.T) {
	qps := metricDef{Name: "qps", Better: "higher", Bound: 0.06}
	lat := metricDef{Name: "lat_p50_us", Better: "lower", Bound: 0.06}
	steady := func(m float64) []float64 { return []float64{m * 0.995, m, m * 1.005, m, m} }
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{qps, steady(1000), steady(1010), "unchanged"},
		{qps, steady(1000), steady(900), "REGRESSION"},
		{qps, steady(1000), steady(1100), "improved"},
		{lat, steady(20), steady(22), "REGRESSION"},
		{lat, steady(20), steady(18), "improved"},
		{qps, steady(1000), []float64{700, 900, 1000, 1100, 1300}, "unresolved"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestProductionKnobs reads the knobs back by name, as they are set, so that
// this file too keeps compiling when a knob is deleted.
func TestProductionKnobs(t *testing.T) {
	var p gdi.DatabaseParams
	setProductionKnobs(&p)
	v := reflect.ValueOf(p)
	for _, k := range productionKnobs {
		f := v.FieldByName(k.field)
		if !f.IsValid() {
			continue
		}
		if want := reflect.ValueOf(k.value).Convert(f.Type()).Interface(); f.Interface() != want {
			t.Errorf("knob %s = %v, want %v", k.field, f.Interface(), want)
		}
	}
	if f := v.FieldByName("HolderCodec"); f.IsValid() && fmt.Sprint(f.Interface()) != "v2" {
		t.Errorf("HolderCodec = %v, want v2", f.Interface())
	}
}

// TestTrendQuiet checks the trend's mid-value on a rising series with a
// quarter of its points knocked out, and on a level one with most of them.
func TestTrendQuiet(t *testing.T) {
	ys := make([]float64, 40)
	for i := range ys {
		ys[i] = 8000 + 100*float64(i)
	}
	want := 8000 + 100*19.5
	for _, i := range []int{3, 4, 5, 6, 7, 20, 21, 22, 30, 31} {
		ys[i] /= 2 // a stolen core
	}
	if got := trendQuiet(ys); math.Abs(got-want)/want > 0.01 {
		t.Errorf("trendQuiet = %v, want %v within 1 %%", got, want)
	}
	for i := range ys {
		ys[i] = 8000
		if i%5 < 3 {
			ys[i] = 4000 + 100*float64(i%7) // a loud run: three slices in five
		}
	}
	if got := trendQuiet(ys); math.Abs(got-8000)/8000 > 0.01 {
		t.Errorf("trendQuiet of a loud run = %v, want 8000 within 1 %%", got)
	}
	if got := trendQuiet([]float64{5}); got != 5 {
		t.Errorf("trendQuiet of one point = %v", got)
	}
}

// TestQuietCycle checks that olap's figures come from each request's quiet
// repeats: five cycles of two BFS roots and one PageRank, two cycles slow.
func TestQuietCycle(t *testing.T) {
	p := &phaseResult{}
	for k := 0; k < 5; k++ {
		slow := int64(1)
		if k == 1 || k == 4 {
			slow = 3
		}
		p.SlotS = append(p.SlotS, 0)
		p.Lat[clBFS] = append(p.Lat[clBFS], slow*1e6+int64(k), slow*2e6+int64(k))
		p.Lat[clPageRank] = append(p.Lat[clPageRank], slow*5e6+int64(k))
		p.Attempted += 3
	}
	q := quietCycle(p)
	if q.Attempted != 3 || !reflect.DeepEqual(q.Lat[clBFS], []int64{1e6 + 2, 2e6 + 2}) || !reflect.DeepEqual(q.Lat[clPageRank], []int64{5e6 + 2}) {
		t.Errorf("quiet cycle = %d requests, BFS %v, PageRank %v", q.Attempted, q.Lat[clBFS], q.Lat[clPageRank])
	}
	if got, want := q.qps(), 3/0.008000006; math.Abs(got-want) > 1e-6 {
		t.Errorf("qps of the quiet cycle = %v, want %v", got, want)
	}
}

// TestSliceEstimators checks that a phase's qps and latency ignore a minority
// of slow slices, and that a phase cut short drops its empty tail.
func TestSliceEstimators(t *testing.T) {
	p := &phaseResult{}
	for k := 0; k < 12; k++ {
		p.SlotS = append(p.SlotS, 0.25)
		n, lat := 100, int64(1000)
		if k == 2 || k == 3 || k == 9 {
			n, lat = 40, 5000 // slow slices
		}
		if k >= 10 {
			n = 0 // the phase ended early
		}
		for i := 0; i < n; i++ {
			p.Lat[clRead] = append(p.Lat[clRead], lat+int64(i))
			p.Slot[clRead] = append(p.Slot[clRead], uint16(k))
		}
	}
	p.Lat[clRead] = append(p.Lat[clRead], 7)
	p.Slot[clRead] = append(p.Slot[clRead], noSlot)
	if got := p.qps(); math.Abs(got-400) > 4 {
		t.Errorf("qps = %v, want 400", got)
	}
	if got := p.latency(0.5); got != 1049 {
		t.Errorf("p50 = %v, want 1049", got)
	}
	lats, secs := p.slices()
	if len(lats) != 9 || len(secs) != 9 {
		t.Errorf("%d whole slices, want 9 (10 and 11 empty, 9 the one the end fell into)", len(lats))
	}
}
