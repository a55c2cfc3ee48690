// Package figures regenerates every table and figure of the paper's
// evaluation (§6) at laptop scale: the same series, rows, and systems, with
// "servers" played by fabric ranks. It is shared by the bench_test.go
// harness and the cmd/gdi-figures binary.
package figures

import (
	"fmt"
	"strings"
	"sync"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
	"github.com/gdi-go/gdi/internal/baseline/graph500"
	"github.com/gdi-go/gdi/internal/baseline/lockgdb"
	"github.com/gdi-go/gdi/internal/baseline/rpcgdb"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/workload"
)

// Profile bounds the experiment sizes so the whole suite fits a laptop.
type Profile struct {
	// Ranks is the "server counts" axis.
	Ranks []int
	// BaseScale is the Kronecker scale at 1 rank (weak scaling adds log2 P).
	BaseScale int
	// EdgeFactor as in the paper (16).
	EdgeFactor int
	// OpsPerWorker for OLTP runs.
	OpsPerWorker int
	// Seed for reproducibility.
	Seed int64
}

// Quick is the default profile used by `go test -bench` and CI.
var Quick = Profile{
	Ranks:        []int{1, 2, 4},
	BaseScale:    9,
	EdgeFactor:   8,
	OpsPerWorker: 2000,
	Seed:         1,
}

// Full is a longer profile for standalone runs of cmd/gdi-figures.
var Full = Profile{
	Ranks:        []int{1, 2, 4, 8},
	BaseScale:    11,
	EdgeFactor:   16,
	OpsPerWorker: 5000,
	Seed:         1,
}

func (p Profile) scaleAt(ranks int, strong bool) int {
	if strong {
		return p.BaseScale
	}
	s := p.BaseScale
	for r := 1; r < ranks; r <<= 1 {
		s++
	}
	return s
}

func (p Profile) kronAt(ranks int, strong bool) kron.Config {
	return kron.Config{
		Scale:      p.scaleAt(ranks, strong),
		EdgeFactor: p.EdgeFactor,
		Seed:       p.Seed,
		NumLabels:  20,
		NumProps:   13,
	}.WithDefaults()
}

// loadGDA builds and loads a GDA instance for a config.
func loadGDA(ranks int, cfg kron.Config) (*gdi.Runtime, *gdi.Database, kron.Schema, error) {
	rt := gdi.Init(ranks)
	// Size the pool to the shard: ~(n + m)/ranks holders with headroom.
	perRank := int((cfg.NumVertices()*8+cfg.NumEdges()*2)/uint64(ranks)) + (1 << 12)
	idxBuckets, idxEntries := workload.IndexSizing(cfg, ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:           512,
		BlocksPerRank:       perRank,
		IndexBucketsPerRank: idxBuckets,
		IndexEntriesPerRank: idxEntries,
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		return nil, nil, kron.Schema{}, err
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		return nil, nil, kron.Schema{}, err
	}
	return rt, db, sch, nil
}

// OLTPPoint is one bar of Figure 4.
type OLTPPoint struct {
	System    string
	Mix       string
	Ranks     int
	Scale     int
	Vertices  uint64
	Edges     uint64
	QPS       float64
	FailedPct float64
}

// RunOLTP produces the Figure 4 series: throughput and failed-transaction
// percentages per mix and server count. strong selects Figures 4b/4d (fixed
// dataset); withBaselines adds the JanusGraph-like baseline for the
// LinkBench mix (Figures 4c/4d).
func RunOLTP(p Profile, mixes []workload.Mix, strong, withBaselines bool) ([]OLTPPoint, error) {
	var points []OLTPPoint
	for _, ranks := range p.Ranks {
		cfg := p.kronAt(ranks, strong)
		rt, db, sch, err := loadGDA(ranks, cfg)
		if err != nil {
			return nil, err
		}
		_ = rt
		for _, mix := range mixes {
			res, err := workload.Run(&workload.GDASystem{DB: db, Schema: sch}, workload.RunConfig{
				Mix: mix, Workers: ranks, OpsPerWorker: p.OpsPerWorker,
				KeySpace: cfg.NumVertices(), Seed: p.Seed,
			})
			if err != nil {
				return nil, err
			}
			points = append(points, OLTPPoint{
				System: "GDA", Mix: mix.Name, Ranks: ranks, Scale: cfg.Scale,
				Vertices: cfg.NumVertices(), Edges: cfg.NumEdges(),
				QPS: res.QPS(), FailedPct: res.FailedFraction() * 100,
			})
		}
		if withBaselines {
			ldb := rpcgdb.New(ranks)
			workload.LoadRPC(ldb, cfg)
			res, err := workload.Run(&workload.RPCSystem{DB: ldb}, workload.RunConfig{
				Mix: workload.LinkBench, Workers: ranks, OpsPerWorker: p.OpsPerWorker,
				KeySpace: cfg.NumVertices(), Seed: p.Seed,
			})
			ldb.Close()
			if err != nil {
				return nil, err
			}
			points = append(points, OLTPPoint{
				System: "JanusGraph-like", Mix: workload.LinkBench.Name, Ranks: ranks, Scale: cfg.Scale,
				Vertices: cfg.NumVertices(), Edges: cfg.NumEdges(),
				QPS: res.QPS(), FailedPct: res.FailedFraction() * 100,
			})
		}
	}
	return points, nil
}

// FormatOLTP renders Figure 4 rows.
func FormatOLTP(title string, points []OLTPPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	fmt.Fprintf(&sb, "%-18s %-16s %7s %7s %12s %12s %12s %8s\n",
		"system", "mix", "servers", "scale", "|V|", "|E|", "queries/s", "failed%")
	for _, pt := range points {
		fmt.Fprintf(&sb, "%-18s %-16s %7d %7d %12d %12d %12.0f %8.2f\n",
			pt.System, pt.Mix, pt.Ranks, pt.Scale, pt.Vertices, pt.Edges, pt.QPS, pt.FailedPct)
	}
	return sb.String()
}

// LatencyRow is one histogram of Figure 5.
type LatencyRow struct {
	System string
	Ranks  int
	Op     workload.Op
	MeanNs float64
	P50Ns  int64
	P99Ns  int64
	Count  int64
	Chart  string
}

// RunLatency produces the Figure 5 latency histograms: the LinkBench mix on
// GDA, the JanusGraph-like, and the Neo4j-like baselines at each server
// count.
func RunLatency(p Profile, renderCharts bool) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, ranks := range p.Ranks {
		cfg := p.kronAt(ranks, true)
		run := func(sysName string, sys workload.System) error {
			res, err := workload.Run(sys, workload.RunConfig{
				Mix: workload.LinkBench, Workers: ranks, OpsPerWorker: p.OpsPerWorker,
				KeySpace: cfg.NumVertices(), Seed: p.Seed,
			})
			if err != nil {
				return err
			}
			for op := workload.Op(0); op < workload.NumOps; op++ {
				h := res.PerOp[op]
				if h.Count() == 0 {
					continue
				}
				row := LatencyRow{
					System: sysName, Ranks: ranks, Op: op,
					MeanNs: h.MeanNs(), P50Ns: h.QuantileNs(0.5), P99Ns: h.QuantileNs(0.99),
					Count: h.Count(),
				}
				if renderCharts {
					row.Chart = h.Render(40)
				}
				rows = append(rows, row)
			}
			return nil
		}
		_, db, sch, err := loadGDA(ranks, cfg)
		if err != nil {
			return nil, err
		}
		if err := run("GDA", &workload.GDASystem{DB: db, Schema: sch}); err != nil {
			return nil, err
		}
		rdb := rpcgdb.New(ranks)
		workload.LoadRPC(rdb, cfg)
		if err := run("JanusGraph-like", &workload.RPCSystem{DB: rdb}); err != nil {
			rdb.Close()
			return nil, err
		}
		rdb.Close()
		ndb := lockgdb.New()
		workload.LoadLock(ndb, cfg)
		if err := run("Neo4j-like", &workload.LockSystem{DB: ndb}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatLatency renders Figure 5 rows.
func FormatLatency(rows []LatencyRow) string {
	var sb strings.Builder
	sb.WriteString("== Figure 5: LinkBench per-operation latency ==\n")
	fmt.Fprintf(&sb, "%-18s %7s %-16s %10s %10s %10s %8s\n",
		"system", "servers", "operation", "mean", "p50", "p99", "count")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %7d %-16s %9.1fµs %9.1fµs %9.1fµs %8d\n",
			r.System, r.Ranks, r.Op, r.MeanNs/1e3, float64(r.P50Ns)/1e3, float64(r.P99Ns)/1e3, r.Count)
		if r.Chart != "" {
			sb.WriteString(r.Chart)
		}
	}
	return sb.String()
}

// AnalyticsPoint is one point of Figure 6.
type AnalyticsPoint struct {
	System   string
	Workload string
	Ranks    int
	Scale    int
	Vertices uint64
	Edges    uint64
	Runtime  time.Duration
	Extra    string
}

// runTimed executes an SPMD analytics closure on all ranks and returns the
// wall-clock of the slowest rank.
func runTimed(rt *gdi.Runtime, db *gdi.Database, fn func(p *gdi.Process) error) (time.Duration, error) {
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	rt.Run(db, func(p *gdi.Process) {
		if err := fn(p); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return time.Since(start), firstErr
}

// RunAnalytics produces Figures 6a/6b: PageRank (i=10, df=0.85), CDLP
// (i=5), WCC, plus — when strong — LCC and BI2 with the Neo4j-like BI2
// baseline (the paper only reports LCC/BI2 in the strong-scaling plot).
func RunAnalytics(p Profile, strong bool) ([]AnalyticsPoint, error) {
	var points []AnalyticsPoint
	for _, ranks := range p.Ranks {
		cfg := p.kronAt(ranks, strong)
		rt, db, sch, err := loadGDA(ranks, cfg)
		if err != nil {
			return nil, err
		}
		g := &analytics.Graph{DB: db, Schema: sch}
		add := func(name string, d time.Duration, extra string) {
			points = append(points, AnalyticsPoint{
				System: "GDA", Workload: name, Ranks: ranks, Scale: cfg.Scale,
				Vertices: cfg.NumVertices(), Edges: cfg.NumEdges(), Runtime: d, Extra: extra,
			})
		}
		d, err := runTimed(rt, db, func(p *gdi.Process) error {
			_, _, err := analytics.PageRank(p, g, 10, 0.85)
			return err
		})
		if err != nil {
			return nil, err
		}
		add("PageRank (i=10, df=0.85)", d, "")
		d, err = runTimed(rt, db, func(p *gdi.Process) error {
			_, err := analytics.CDLP(p, g, 5)
			return err
		})
		if err != nil {
			return nil, err
		}
		add("CDLP (i=5)", d, "")
		var iters int
		d, err = runTimed(rt, db, func(p *gdi.Process) error {
			_, it, err := analytics.WCC(p, g, 50)
			if p.Rank() == 0 {
				iters = it
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		add("WCC", d, fmt.Sprintf("converged in %d iters", iters))
		if strong {
			d, err = runTimed(rt, db, func(p *gdi.Process) error {
				_, err := analytics.LCC(p, g)
				return err
			})
			if err != nil {
				return nil, err
			}
			add("LCC", d, "")
			d, err = runTimed(rt, db, func(p *gdi.Process) error {
				_, err := analytics.BI2(p, g, sch.Labels[0], sch.AgeProp, 30, 70, sch.Props[4])
				return err
			})
			if err != nil {
				return nil, err
			}
			add("BI2", d, "")
			// Neo4j-like BI2 baseline.
			ndb := lockgdb.New()
			loadLockRich(ndb, cfg, sch)
			start := time.Now()
			ndb.GroupCount(uint32(sch.Labels[0]), uint32(sch.AgeProp), 30, 70, uint32(sch.Props[4]))
			points = append(points, AnalyticsPoint{
				System: "Neo4j-like", Workload: "BI2", Ranks: ranks, Scale: cfg.Scale,
				Vertices: cfg.NumVertices(), Edges: cfg.NumEdges(), Runtime: time.Since(start),
			})
		}
	}
	return points, nil
}

// loadLockRich loads the lock baseline with the full property set so the
// BI2 baseline query sees the same data.
func loadLockRich(db *lockgdb.DB, cfg kron.Config, sch kron.Schema) {
	n := cfg.NumVertices()
	for app := uint64(0); app < n; app++ {
		sp := kron.VertexSpec(cfg, sch, app)
		db.AddVertex(app, uint32(sp.Labels[0]), 0, nil)
		for _, pr := range sp.Props {
			db.UpdateProperty(app, uint32(pr.PType), pr.Value)
		}
	}
	for _, sp := range kron.EdgesFor(cfg, sch, 0, 1) {
		db.AddEdge(sp.OriginApp, sp.TargetApp)
	}
}

// RunGNN produces Figures 6c/6d: graph convolution for each feature
// dimension k.
func RunGNN(p Profile, ks []int, layers int, strong bool) ([]AnalyticsPoint, error) {
	var points []AnalyticsPoint
	for _, ranks := range p.Ranks {
		cfg := p.kronAt(ranks, strong)
		for _, k := range ks {
			rt, db, sch, err := loadGDA(ranks, cfg)
			if err != nil {
				return nil, err
			}
			g := &analytics.Graph{DB: db, Schema: sch}
			gcfg := analytics.GNNConfig{K: k, Layers: layers, Seed: p.Seed}
			d, err := runTimed(rt, db, func(p *gdi.Process) error {
				feat, featNext, err := analytics.GNNSetup(p, g, gcfg)
				if err != nil {
					return err
				}
				_, err = analytics.GNNForward(p, g, gcfg, feat, featNext)
				return err
			})
			if err != nil {
				return nil, err
			}
			points = append(points, AnalyticsPoint{
				System: "GDA", Workload: fmt.Sprintf("GNN k=%d", k), Ranks: ranks, Scale: cfg.Scale,
				Vertices: cfg.NumVertices(), Edges: cfg.NumEdges(), Runtime: d,
			})
		}
	}
	return points, nil
}

// RunTraversal produces Figures 6e/6f: BFS and k-hop on GDA, Graph500-style
// CSR BFS, and the Neo4j-like BFS.
func RunTraversal(p Profile, strong bool) ([]AnalyticsPoint, error) {
	var points []AnalyticsPoint
	for _, ranks := range p.Ranks {
		cfg := p.kronAt(ranks, strong)
		rt, db, sch, err := loadGDA(ranks, cfg)
		if err != nil {
			return nil, err
		}
		g := &analytics.Graph{DB: db, Schema: sch}
		var visited int64
		d, err := runTimed(rt, db, func(p *gdi.Process) error {
			v, _, err := analytics.BFS(p, g, 0)
			if p.Rank() == 0 {
				visited = v
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		points = append(points, AnalyticsPoint{
			System: "GDA", Workload: "BFS", Ranks: ranks, Scale: cfg.Scale,
			Vertices: cfg.NumVertices(), Edges: cfg.NumEdges(), Runtime: d,
			Extra: fmt.Sprintf("visited %d", visited),
		})
		for _, k := range []int{2, 3, 4} {
			d, err := runTimed(rt, db, func(p *gdi.Process) error {
				_, err := analytics.KHop(p, g, 0, k)
				return err
			})
			if err != nil {
				return nil, err
			}
			points = append(points, AnalyticsPoint{
				System: "GDA", Workload: fmt.Sprintf("%d-hop", k), Ranks: ranks, Scale: cfg.Scale,
				Vertices: cfg.NumVertices(), Edges: cfg.NumEdges(), Runtime: d,
			})
		}
		// Graph500 comparator: same graph, CSR arrays, `ranks` workers.
		csr := kron.BuildCSR(cfg)
		start := time.Now()
		levels := graph500.BFS(csr, 0, ranks)
		points = append(points, AnalyticsPoint{
			System: "Graph500", Workload: "BFS", Ranks: ranks, Scale: cfg.Scale,
			Vertices: cfg.NumVertices(), Edges: cfg.NumEdges(), Runtime: time.Since(start),
			Extra: fmt.Sprintf("visited %d", graph500.Visited(levels)),
		})
		// Neo4j-like comparator.
		ndb := lockgdb.New()
		workload.LoadLock(ndb, cfg)
		start = time.Now()
		nVisited := ndb.BFS(0)
		points = append(points, AnalyticsPoint{
			System: "Neo4j-like", Workload: "BFS", Ranks: ranks, Scale: cfg.Scale,
			Vertices: cfg.NumVertices(), Edges: cfg.NumEdges(), Runtime: time.Since(start),
			Extra: fmt.Sprintf("visited %d", nVisited),
		})
	}
	return points, nil
}

// FormatAnalytics renders Figure 6 rows.
func FormatAnalytics(title string, points []AnalyticsPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	fmt.Fprintf(&sb, "%-12s %-26s %7s %7s %12s %12s %12s  %s\n",
		"system", "workload", "servers", "scale", "|V|", "|E|", "runtime", "notes")
	for _, pt := range points {
		fmt.Fprintf(&sb, "%-12s %-26s %7d %7d %12d %12d %12s  %s\n",
			pt.System, pt.Workload, pt.Ranks, pt.Scale, pt.Vertices, pt.Edges,
			pt.Runtime.Round(time.Microsecond), pt.Extra)
	}
	return sb.String()
}

// RichnessPoint is one row of the §6.6 sweep.
type RichnessPoint struct {
	Labels, Props, EdgeFactor int
	LoadTime                  time.Duration
	QPS                       float64
}

// RunRichness produces the §6.6 sweep: varying label counts, property
// counts, and edge factors on a fixed scale, measuring load time and
// LinkBench throughput.
func RunRichness(p Profile) ([]RichnessPoint, error) {
	ranks := p.Ranks[len(p.Ranks)-1]
	var points []RichnessPoint
	type variant struct{ labels, props, ef int }
	variants := []variant{
		{1, 1, p.EdgeFactor}, {20, 13, p.EdgeFactor}, {40, 26, p.EdgeFactor},
		{20, 13, p.EdgeFactor / 2}, {20, 13, p.EdgeFactor * 2},
	}
	for _, v := range variants {
		cfg := kron.Config{
			Scale: p.BaseScale, EdgeFactor: v.ef, Seed: p.Seed,
			NumLabels: v.labels, NumProps: v.props,
		}.WithDefaults()
		start := time.Now()
		_, db, sch, err := loadGDA(ranks, cfg)
		if err != nil {
			return nil, err
		}
		load := time.Since(start)
		res, err := workload.Run(&workload.GDASystem{DB: db, Schema: sch}, workload.RunConfig{
			Mix: workload.LinkBench, Workers: ranks, OpsPerWorker: p.OpsPerWorker,
			KeySpace: cfg.NumVertices(), Seed: p.Seed,
		})
		if err != nil {
			return nil, err
		}
		points = append(points, RichnessPoint{
			Labels: v.labels, Props: v.props, EdgeFactor: v.ef,
			LoadTime: load, QPS: res.QPS(),
		})
	}
	return points, nil
}

// FormatRichness renders the §6.6 sweep.
func FormatRichness(points []RichnessPoint) string {
	var sb strings.Builder
	sb.WriteString("== §6.6: varying labels, properties, edge factor (LinkBench) ==\n")
	fmt.Fprintf(&sb, "%8s %8s %12s %12s %12s\n", "labels", "p-types", "edge factor", "load time", "queries/s")
	for _, pt := range points {
		fmt.Fprintf(&sb, "%8d %8d %12d %12s %12.0f\n",
			pt.Labels, pt.Props, pt.EdgeFactor, pt.LoadTime.Round(time.Millisecond), pt.QPS)
	}
	return sb.String()
}

// ShapePoint is one row of the §6.7 comparison.
type ShapePoint struct {
	Shape      string
	MaxDegree  uint32
	BFSRuntime time.Duration
	Visited    int64
}

// RunDegreeShape produces the §6.7 comparison: heavy-tail (Kronecker) vs
// uniform-degree graphs of identical size, BFS through GDI.
func RunDegreeShape(p Profile) ([]ShapePoint, error) {
	ranks := p.Ranks[len(p.Ranks)-1]
	var points []ShapePoint
	for _, uniform := range []bool{false, true} {
		cfg := kron.Config{
			Scale: p.BaseScale, EdgeFactor: p.EdgeFactor, Seed: p.Seed,
			NumLabels: 20, NumProps: 13, Uniform: uniform,
		}.WithDefaults()
		rt, db, sch, err := loadGDA(ranks, cfg)
		if err != nil {
			return nil, err
		}
		g := &analytics.Graph{DB: db, Schema: sch}
		var visited int64
		d, err := runTimed(rt, db, func(p *gdi.Process) error {
			v, _, err := analytics.BFS(p, g, 0)
			if p.Rank() == 0 {
				visited = v
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		csr := kron.BuildCSR(cfg)
		var maxDeg uint32
		for _, dg := range csr.Degree {
			if dg > maxDeg {
				maxDeg = dg
			}
		}
		shape := "heavy-tail (Kronecker)"
		if uniform {
			shape = "uniform"
		}
		points = append(points, ShapePoint{Shape: shape, MaxDegree: maxDeg, BFSRuntime: d, Visited: visited})
	}
	return points, nil
}

// FormatDegreeShape renders the §6.7 comparison.
func FormatDegreeShape(points []ShapePoint) string {
	var sb strings.Builder
	sb.WriteString("== §6.7: degree-distribution shape (BFS through GDI) ==\n")
	fmt.Fprintf(&sb, "%-24s %10s %12s %10s\n", "shape", "max degree", "BFS runtime", "visited")
	for _, pt := range points {
		fmt.Fprintf(&sb, "%-24s %10d %12s %10d\n", pt.Shape, pt.MaxDegree, pt.BFSRuntime.Round(time.Microsecond), pt.Visited)
	}
	return sb.String()
}
