package gdi_test

// Ablation benchmarks for the design choices the paper highlights as
// "Major Design Choice & Insight" boxes:
//
//   - BGDL block size (§5.5): the communication/fragmentation trade-off —
//     larger blocks mean fewer block operations per holder but more wasted
//     pool memory.
//   - Lightweight vs. heavy edges (§5.4.2): inline records vs. dedicated
//     edge holders.
//   - Collective vs. pointwise transactions for global reads (§3.3): one
//     read set validated once per rank against a validation per vertex.

import (
	"fmt"
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/workload"
)

// BenchmarkAblation_BlockSize sweeps the BGDL block size under LinkBench.
// Small blocks force multi-block holders (more block ops per access); large
// blocks waste pool memory (reported as blocks/vertex).
func BenchmarkAblation_BlockSize(b *testing.B) {
	cfg := kron.Config{Scale: 9, EdgeFactor: 8, Seed: 1, NumLabels: 20, NumProps: 13}.WithDefaults()
	const ranks = 2
	for _, bs := range []int{128, 256, 512, 1024, 4096} {
		b.Run(fmt.Sprintf("block=%dB", bs), func(b *testing.B) {
			rt := gdi.Init(ranks)
			db := rt.CreateDatabase(gdi.DatabaseParams{
				BlockSize:     bs,
				BlocksPerRank: int(cfg.NumVertices()*64/ranks/uint64(bs/128)) + (1 << 14),
			})
			sch, err := kron.DefineSchema(db.Engine(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
				b.Fatal(err)
			}
			// Pool usage after load exposes the fragmentation side.
			used := 0
			for r := 0; r < ranks; r++ {
				used += db.Engine().Store().BlocksPerRank() - 1 - db.Engine().FreeBlocks(gdi.Rank(r))
			}
			sys := &workload.GDASystem{DB: db, Schema: sch}
			b.ResetTimer()
			var qps float64
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(sys, workload.RunConfig{
					Mix: workload.LinkBench, Workers: ranks, OpsPerWorker: 1000,
					KeySpace: cfg.NumVertices(), Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				qps = res.QPS()
			}
			b.ReportMetric(qps, "queries/s")
			b.ReportMetric(float64(used)/float64(cfg.NumVertices()), "blocks/vertex")
		})
	}
}

// BenchmarkAblation_EdgeWeight compares creating lightweight edges (inline
// records, §5.4.2) against rich edges (dedicated holders) — the design that
// makes label-only edges nearly free.
func BenchmarkAblation_EdgeWeight(b *testing.B) {
	for _, heavy := range []bool{false, true} {
		name := "lightweight"
		if heavy {
			name = "rich"
		}
		b.Run(name, func(b *testing.B) {
			rt := gdi.Init(1)
			db := rt.CreateDatabase(gdi.DatabaseParams{BlocksPerRank: 1 << 18})
			label, err := db.DefineLabel("L")
			if err != nil {
				b.Fatal(err)
			}
			weight, err := db.DefinePType("w", gdi.PTypeSpec{
				Datatype: gdi.TypeFloat64, Entity: gdi.EntityEdge, SizeType: gdi.SizeFixed, Limit: 8})
			if err != nil {
				b.Fatal(err)
			}
			p := db.Process(0)
			setup := p.StartTransaction(gdi.ReadWrite)
			const nv = 256
			ids := make([]gdi.VertexID, nv)
			for i := range ids {
				ids[i], err = setup.CreateVertex(uint64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := setup.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := p.StartTransaction(gdi.ReadWrite)
				a := ids[i%nv]
				c := ids[(i+1)%nv]
				if heavy {
					_, err = tx.CreateRichEdge(a, c, gdi.DirOut,
						[]gdi.LabelID{label},
						[]gdi.Property{{PType: weight, Value: gdi.Float64Value(0.5)}})
				} else {
					_, err = tx.CreateEdge(a, c, gdi.DirOut, label)
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_CollectiveVsLocalScan compares reading every vertex
// through one collective read transaction (one read set, validated at Commit
// in one load train per owner rank) against pointwise local read
// transactions (one validation per vertex).
func BenchmarkAblation_CollectiveVsLocalScan(b *testing.B) {
	cfg := kron.Config{Scale: 9, EdgeFactor: 4, Seed: 1, NumLabels: 4, NumProps: 3}.WithDefaults()
	const ranks = 2
	rt := gdi.Init(ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{BlocksPerRank: 1 << 16})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		b.Fatal(err)
	}
	b.Run("collective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) {
				tx := p.StartCollectiveTransaction(gdi.ReadOnly)
				for _, v := range p.LocalVertices() {
					h, err := tx.AssociateVertex(v)
					if err != nil {
						b.Error(err)
						return
					}
					h.Property(sch.AgeProp)
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
				}
			})
		}
	})
	b.Run("pointwise-local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) {
				for _, v := range p.LocalVertices() {
					tx := p.StartTransaction(gdi.ReadOnly)
					h, err := tx.AssociateVertex(v)
					if err != nil {
						b.Error(err)
						return
					}
					h.Property(sch.AgeProp)
					if err := tx.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
	})
}
