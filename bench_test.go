package gdi_test

// bench_test.go regenerates every table and figure of the paper's
// evaluation (§6) as Go benchmarks. Each benchmark maps to one experiment
// of DESIGN.md's per-experiment index and reports the same quantity the
// paper plots (throughput in queries/s, runtime in seconds, latency in µs)
// through b.ReportMetric. Run all of them with
//
//	go test -bench=. -benchmem
//
// and the full printed series with cmd/gdi-figures. The sizes use the Quick
// profile (laptop scale); the series *shapes* — who wins, how scaling
// behaves — are the reproduction target, not Piz Daint's absolute numbers.

import (
	"fmt"
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
	"github.com/gdi-go/gdi/internal/baseline/graph500"
	"github.com/gdi-go/gdi/internal/figures"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/workload"
)

// benchProfile trims the Quick profile for per-iteration benchmark use.
var benchProfile = figures.Profile{
	Ranks:        []int{1, 2, 4},
	BaseScale:    9,
	EdgeFactor:   8,
	OpsPerWorker: 1000,
	Seed:         1,
}

// oltpBench runs one (mix, ranks, scaling) cell and reports queries/s and
// failed-transaction percentage.
func oltpBench(b *testing.B, mix workload.Mix, ranks int, strong bool) {
	b.Helper()
	cfg := kron.Config{
		Scale:      benchProfile.BaseScale + weakBump(ranks, strong),
		EdgeFactor: benchProfile.EdgeFactor,
		Seed:       benchProfile.Seed, NumLabels: 20, NumProps: 13,
	}.WithDefaults()
	rt := gdi.Init(ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:     512,
		BlocksPerRank: int((cfg.NumVertices()*8+cfg.NumEdges()*2)/uint64(ranks)) + (1 << 12),
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		b.Fatal(err)
	}
	sys := &workload.GDASystem{DB: db, Schema: sch}
	b.ResetTimer()
	var qps, failedPct float64
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(sys, workload.RunConfig{
			Mix: mix, Workers: ranks, OpsPerWorker: benchProfile.OpsPerWorker,
			KeySpace: cfg.NumVertices(), Seed: benchProfile.Seed + int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		qps = res.QPS()
		failedPct = res.FailedFraction() * 100
	}
	b.ReportMetric(qps, "queries/s")
	b.ReportMetric(failedPct, "failed%")
}

func weakBump(ranks int, strong bool) int {
	if strong {
		return 0
	}
	bump := 0
	for r := 1; r < ranks; r <<= 1 {
		bump++
	}
	return bump
}

// BenchmarkFig4a_OLTPWeak — Figure 4a: Read Intensive / Read Mostly weak
// scaling (dataset grows with the server count).
func BenchmarkFig4a_OLTPWeak(b *testing.B) {
	for _, mix := range []workload.Mix{workload.ReadMostly, workload.ReadIntensive} {
		for _, ranks := range benchProfile.Ranks {
			b.Run(fmt.Sprintf("%s/servers=%d", mix.Name, ranks), func(b *testing.B) {
				oltpBench(b, mix, ranks, false)
			})
		}
	}
}

// BenchmarkFig4b_OLTPStrong — Figure 4b: Read Intensive / Read Mostly
// strong scaling (fixed dataset).
func BenchmarkFig4b_OLTPStrong(b *testing.B) {
	for _, mix := range []workload.Mix{workload.ReadMostly, workload.ReadIntensive} {
		for _, ranks := range benchProfile.Ranks {
			b.Run(fmt.Sprintf("%s/servers=%d", mix.Name, ranks), func(b *testing.B) {
				oltpBench(b, mix, ranks, true)
			})
		}
	}
}

// BenchmarkFig4c_OLTPWriteWeak — Figure 4c: LinkBench + Write Intensive
// weak scaling (the failed%-annotated bars).
func BenchmarkFig4c_OLTPWriteWeak(b *testing.B) {
	for _, mix := range []workload.Mix{workload.LinkBench, workload.WriteIntensive} {
		for _, ranks := range benchProfile.Ranks {
			b.Run(fmt.Sprintf("%s/servers=%d", mix.Name, ranks), func(b *testing.B) {
				oltpBench(b, mix, ranks, false)
			})
		}
	}
}

// BenchmarkFig4d_OLTPWriteStrong — Figure 4d: LinkBench + Write Intensive
// strong scaling.
func BenchmarkFig4d_OLTPWriteStrong(b *testing.B) {
	for _, mix := range []workload.Mix{workload.LinkBench, workload.WriteIntensive} {
		for _, ranks := range benchProfile.Ranks {
			b.Run(fmt.Sprintf("%s/servers=%d", mix.Name, ranks), func(b *testing.B) {
				oltpBench(b, mix, ranks, true)
			})
		}
	}
}

// BenchmarkFig5_OpLatency — Figure 5: per-operation LinkBench latency on
// GDA and both baselines; reports the mean latency of the "retrieve vertex"
// operation (the histogram detail is printed by cmd/gdi-figures -fig 5).
func BenchmarkFig5_OpLatency(b *testing.B) {
	prof := benchProfile
	prof.Ranks = []int{1, 2}
	b.ResetTimer()
	var rows []figures.LatencyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.RunLatency(prof, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Op == workload.OpGetProps {
			b.ReportMetric(r.MeanNs/1e3, fmt.Sprintf("µs-%s-s%d", shortName(r.System), r.Ranks))
		}
	}
}

func shortName(s string) string {
	switch s {
	case "GDA":
		return "gda"
	case "JanusGraph-like":
		return "janus"
	default:
		return "neo4j"
	}
}

// analyticsBench times one SPMD analytics closure.
func analyticsBench(b *testing.B, ranks int, strong bool, fn func(p *gdi.Process, g *analytics.Graph) error) {
	b.Helper()
	cfg := kron.Config{
		Scale:      benchProfile.BaseScale + weakBump(ranks, strong),
		EdgeFactor: benchProfile.EdgeFactor,
		Seed:       benchProfile.Seed, NumLabels: 20, NumProps: 13,
	}.WithDefaults()
	rt := gdi.Init(ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:     512,
		BlocksPerRank: int((cfg.NumVertices()*8+cfg.NumEdges()*2)/uint64(ranks)) + (1 << 13),
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		b.Fatal(err)
	}
	g := &analytics.Graph{DB: db, Schema: sch}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var benchErr error
		rt.Run(db, func(p *gdi.Process) {
			if err := fn(p, g); err != nil {
				benchErr = err
			}
		})
		if benchErr != nil {
			b.Fatal(benchErr)
		}
	}
}

// BenchmarkFig6a_AnalyticsWeak — Figure 6a: PageRank, CDLP, WCC weak scaling.
func BenchmarkFig6a_AnalyticsWeak(b *testing.B) {
	kinds := map[string]func(p *gdi.Process, g *analytics.Graph) error{
		"PageRank": func(p *gdi.Process, g *analytics.Graph) error {
			_, _, err := analytics.PageRank(p, g, 10, 0.85)
			return err
		},
		"CDLP": func(p *gdi.Process, g *analytics.Graph) error {
			_, err := analytics.CDLP(p, g, 5)
			return err
		},
		"WCC": func(p *gdi.Process, g *analytics.Graph) error {
			_, _, err := analytics.WCC(p, g, 50)
			return err
		},
	}
	for _, name := range []string{"PageRank", "CDLP", "WCC"} {
		for _, ranks := range benchProfile.Ranks {
			b.Run(fmt.Sprintf("%s/servers=%d", name, ranks), func(b *testing.B) {
				analyticsBench(b, ranks, false, kinds[name])
			})
		}
	}
}

// BenchmarkFig6b_AnalyticsStrong — Figure 6b: PR, CDLP, WCC, LCC, BI2
// strong scaling.
func BenchmarkFig6b_AnalyticsStrong(b *testing.B) {
	kinds := []struct {
		name string
		fn   func(p *gdi.Process, g *analytics.Graph) error
	}{
		{"PageRank", func(p *gdi.Process, g *analytics.Graph) error {
			_, _, err := analytics.PageRank(p, g, 10, 0.85)
			return err
		}},
		{"CDLP", func(p *gdi.Process, g *analytics.Graph) error {
			_, err := analytics.CDLP(p, g, 5)
			return err
		}},
		{"WCC", func(p *gdi.Process, g *analytics.Graph) error {
			_, _, err := analytics.WCC(p, g, 50)
			return err
		}},
		{"LCC", func(p *gdi.Process, g *analytics.Graph) error {
			_, err := analytics.LCC(p, g)
			return err
		}},
		{"BI2", func(p *gdi.Process, g *analytics.Graph) error {
			_, err := analytics.BI2(p, g, g.Schema.Labels[0], g.Schema.AgeProp, 30, 70, g.Schema.Props[4])
			return err
		}},
	}
	for _, k := range kinds {
		for _, ranks := range benchProfile.Ranks {
			b.Run(fmt.Sprintf("%s/servers=%d", k.name, ranks), func(b *testing.B) {
				analyticsBench(b, ranks, true, k.fn)
			})
		}
	}
}

// gnnBench rebuilds the database per iteration (GNNSetup registers its
// feature p-types once per database) and times setup plus the forward pass.
func gnnBench(b *testing.B, ranks, k int, strong bool) {
	b.Helper()
	cfg := kron.Config{
		Scale:      benchProfile.BaseScale + weakBump(ranks, strong),
		EdgeFactor: benchProfile.EdgeFactor,
		Seed:       benchProfile.Seed, NumLabels: 4, NumProps: 2,
	}.WithDefaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := gdi.Init(ranks)
		db := rt.CreateDatabase(gdi.DatabaseParams{
			BlockSize:     512,
			BlocksPerRank: int((cfg.NumVertices()*(8+uint64(k)/4)+cfg.NumEdges()*2)/uint64(ranks)) + (1 << 13),
		})
		sch, err := kron.DefineSchema(db.Engine(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
			b.Fatal(err)
		}
		g := &analytics.Graph{DB: db, Schema: sch}
		gcfg := analytics.GNNConfig{K: k, Layers: 2, Seed: 1}
		b.StartTimer()
		var benchErr error
		rt.Run(db, func(p *gdi.Process) {
			feat, featNext, err := analytics.GNNSetup(p, g, gcfg)
			if err != nil {
				benchErr = err
				return
			}
			if _, err := analytics.GNNForward(p, g, gcfg, feat, featNext); err != nil {
				benchErr = err
			}
		})
		if benchErr != nil {
			b.Fatal(benchErr)
		}
	}
}

// BenchmarkFig6c_GNNWeak — Figure 6c: GNN weak scaling over feature dims.
func BenchmarkFig6c_GNNWeak(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		for _, ranks := range benchProfile.Ranks {
			b.Run(fmt.Sprintf("k=%d/servers=%d", k, ranks), func(b *testing.B) {
				gnnBench(b, ranks, k, false)
			})
		}
	}
}

// BenchmarkFig6d_GNNStrong — Figure 6d: GNN strong scaling.
func BenchmarkFig6d_GNNStrong(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		for _, ranks := range benchProfile.Ranks {
			b.Run(fmt.Sprintf("k=%d/servers=%d", k, ranks), func(b *testing.B) {
				gnnBench(b, ranks, k, true)
			})
		}
	}
}

// BenchmarkFig6e_TraversalWeak — Figure 6e: BFS and k-hop weak scaling vs
// the Graph500 CSR BFS.
func BenchmarkFig6e_TraversalWeak(b *testing.B) {
	for _, ranks := range benchProfile.Ranks {
		b.Run(fmt.Sprintf("BFS/servers=%d", ranks), func(b *testing.B) {
			analyticsBench(b, ranks, false, func(p *gdi.Process, g *analytics.Graph) error {
				_, _, err := analytics.BFS(p, g, 0)
				return err
			})
		})
		for _, k := range []int{2, 3, 4} {
			b.Run(fmt.Sprintf("%d-hop/servers=%d", k, ranks), func(b *testing.B) {
				analyticsBench(b, ranks, false, func(p *gdi.Process, g *analytics.Graph) error {
					_, err := analytics.KHop(p, g, 0, k)
					return err
				})
			})
		}
		b.Run(fmt.Sprintf("Graph500-BFS/servers=%d", ranks), func(b *testing.B) {
			cfg := kron.Config{
				Scale:      benchProfile.BaseScale + weakBump(ranks, false),
				EdgeFactor: benchProfile.EdgeFactor, Seed: benchProfile.Seed,
			}.WithDefaults()
			csr := kron.BuildCSR(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph500.BFS(csr, 0, ranks)
			}
		})
	}
}

// BenchmarkFig6f_TraversalStrong — Figure 6f: BFS and k-hop strong scaling
// vs Graph500.
func BenchmarkFig6f_TraversalStrong(b *testing.B) {
	for _, ranks := range benchProfile.Ranks {
		b.Run(fmt.Sprintf("BFS/servers=%d", ranks), func(b *testing.B) {
			analyticsBench(b, ranks, true, func(p *gdi.Process, g *analytics.Graph) error {
				_, _, err := analytics.BFS(p, g, 0)
				return err
			})
		})
		b.Run(fmt.Sprintf("3-hop/servers=%d", ranks), func(b *testing.B) {
			analyticsBench(b, ranks, true, func(p *gdi.Process, g *analytics.Graph) error {
				_, err := analytics.KHop(p, g, 0, 3)
				return err
			})
		})
		b.Run(fmt.Sprintf("Graph500-BFS/servers=%d", ranks), func(b *testing.B) {
			cfg := kron.Config{
				Scale: benchProfile.BaseScale, EdgeFactor: benchProfile.EdgeFactor,
				Seed: benchProfile.Seed,
			}.WithDefaults()
			csr := kron.BuildCSR(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph500.BFS(csr, 0, ranks)
			}
		})
	}
}

// BenchmarkSec66_VaryRichness — §6.6: LinkBench throughput across label /
// property / edge-factor variants.
func BenchmarkSec66_VaryRichness(b *testing.B) {
	variants := []struct {
		name          string
		labels, props int
		edgeFactor    int
	}{
		{"bare", 1, 1, benchProfile.EdgeFactor},
		{"paper-default", 20, 13, benchProfile.EdgeFactor},
		{"rich", 40, 26, benchProfile.EdgeFactor},
		{"e=4", 20, 13, benchProfile.EdgeFactor / 2},
		{"e=16", 20, 13, benchProfile.EdgeFactor * 2},
	}
	const ranks = 4
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := kron.Config{
				Scale: benchProfile.BaseScale, EdgeFactor: v.edgeFactor,
				Seed: benchProfile.Seed, NumLabels: v.labels, NumProps: v.props,
			}.WithDefaults()
			rt := gdi.Init(ranks)
			db := rt.CreateDatabase(gdi.DatabaseParams{
				BlockSize:     512,
				BlocksPerRank: int((cfg.NumVertices()*10+cfg.NumEdges()*2)/ranks) + (1 << 13),
			})
			sch, err := kron.DefineSchema(db.Engine(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
				b.Fatal(err)
			}
			sys := &workload.GDASystem{DB: db, Schema: sch}
			b.ResetTimer()
			var qps float64
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(sys, workload.RunConfig{
					Mix: workload.LinkBench, Workers: ranks, OpsPerWorker: benchProfile.OpsPerWorker,
					KeySpace: cfg.NumVertices(), Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				qps = res.QPS()
			}
			b.ReportMetric(qps, "queries/s")
		})
	}
}

// BenchmarkSec67_DegreeShape — §6.7: BFS over heavy-tail vs uniform-degree
// graphs of identical size.
func BenchmarkSec67_DegreeShape(b *testing.B) {
	for _, uniform := range []bool{false, true} {
		name := "heavy-tail"
		if uniform {
			name = "uniform"
		}
		b.Run(name, func(b *testing.B) {
			const ranks = 4
			cfg := kron.Config{
				Scale: benchProfile.BaseScale, EdgeFactor: benchProfile.EdgeFactor,
				Seed: benchProfile.Seed, NumLabels: 20, NumProps: 13, Uniform: uniform,
			}.WithDefaults()
			rt := gdi.Init(ranks)
			db := rt.CreateDatabase(gdi.DatabaseParams{
				BlockSize:     512,
				BlocksPerRank: int((cfg.NumVertices()*8+cfg.NumEdges()*2)/ranks) + (1 << 13),
			})
			sch, err := kron.DefineSchema(db.Engine(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
				b.Fatal(err)
			}
			g := &analytics.Graph{DB: db, Schema: sch}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var benchErr error
				rt.Run(db, func(p *gdi.Process) {
					if _, _, err := analytics.BFS(p, g, 0); err != nil {
						benchErr = err
					}
				})
				if benchErr != nil {
					b.Fatal(benchErr)
				}
			}
		})
	}
}
