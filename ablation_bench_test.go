package gdi_test

// Ablation benchmarks for the design choices the paper highlights as
// "Major Design Choice & Insight" boxes:
//
//   - BGDL block size (§5.5): the communication/fragmentation trade-off —
//     larger blocks mean fewer block operations per holder but more wasted
//     pool memory.
//   - Lightweight vs. heavy edges (§5.4.2): inline records vs. dedicated
//     edge holders.
//   - Collective vs. pointwise transactions for global reads (§3.3): the
//     cost of the per-vertex version validation that collective read
//     transactions elide.
//
// The remaining benchmarks measure features against running without them:
// workload-aware rebalancing, k-replica holder chains, and HTAP snapshots.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
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

// BenchmarkRebalanceAblation measures what workload-aware rebalancing buys
// under skewed OLTP traffic: Zipf-distributed point reads/writes where every
// rank has its own hot set (worker-affine skew, the shape real multi-tenant
// traffic takes) whose members land on *other* ranks under static hashed
// placement. Clients cache appID→DPtr translations and refresh them when a
// read chases a migration forwarding stub, exactly like a session that keeps
// a handle. The static variant keeps the seed placement; the rebalanced
// variant runs one Rebalance collective after a warmup round, live-migrating
// each hot vertex onto its dominant accessor — after which the Zipf head
// mass (~90% at s=1.2 with per-rank top-K coverage) is served with zero
// remote latency. With RemoteLatencyNs = 1000 at 8 ranks the rebalanced run
// must deliver at least 1.5x the static throughput.
func BenchmarkRebalanceAblation(b *testing.B) {
	const (
		ranks        = 8
		numVertices  = 4096
		warmupOps    = 2000
		opsPerRank   = 400
		payloadBytes = 64
		zipfS        = 1.2
	)
	run := func(b *testing.B, rebalanced bool) {
		rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
		db := rt.CreateDatabase(gdi.DatabaseParams{
			BlockSize:             512,
			BlocksPerRank:         1 << 13,
			LockTries:             512,
			RebalanceHeatTracking: true, // both variants pay for tracking
			RebalanceTopK:         1024,
			RebalanceMinHeat:      2,
			RebalanceMaxMoves:     4096,
		})
		payload, err := db.DefinePType("payload", gdi.PTypeSpec{Datatype: gdi.TypeBytes})
		if err != nil {
			b.Fatal(err)
		}
		var loadErr error
		rt.Run(db, func(p *gdi.Process) {
			var specs []gdi.VertexSpec
			if p.Rank() == 0 {
				for app := uint64(0); app < numVertices; app++ {
					specs = append(specs, gdi.VertexSpec{
						AppID: app,
						Props: []gdi.Property{{PType: payload, Value: make([]byte, payloadBytes)}},
					})
				}
			}
			if err := p.BulkLoadVertices(specs); err != nil {
				loadErr = err
			}
		})
		if loadErr != nil {
			b.Fatal(loadErr)
		}
		zipf := workload.NewZipf(numVertices, zipfS)
		// Per-rank translation caches, refreshed when a fetch resolves to a
		// migrated primary (h.ID() differs from the cached DPtr).
		caches := make([]map[uint64]gdi.VertexID, ranks)
		for r := range caches {
			caches[r] = make(map[uint64]gdi.VertexID, numVertices)
		}
		opRound := func(p *gdi.Process, seed int64, ops int) {
			rng := rand.New(rand.NewSource(seed))
			cache := caches[p.Rank()]
			for i := 0; i < ops; i++ {
				app := workload.WorkerKey(zipf.Sample(rng), int(p.Rank()), ranks, numVertices)
				write := rng.Intn(10) == 0
				mode := gdi.ReadOnly
				if write {
					mode = gdi.ReadWrite
				}
				tx := p.StartTransaction(mode)
				dp, cached := cache[app]
				if !cached {
					var err error
					if dp, err = tx.TranslateVertexID(app); err != nil {
						b.Error(err)
						tx.Abort()
						return
					}
				}
				h, err := tx.AssociateVertex(dp)
				if err != nil {
					tx.Abort()
					continue // contention with a concurrent migration train
				}
				cache[app] = h.ID()
				if write {
					if err := h.SetProperty(payload, []byte{byte(i)}); err != nil {
						b.Error(err)
						tx.Abort()
						return
					}
				} else {
					h.Property(payload)
				}
				if err := tx.Commit(); err != nil {
					continue
				}
			}
		}
		// Warmup records per-rank heat (and fills the translation caches).
		rt.Run(db, func(p *gdi.Process) { opRound(p, int64(p.Rank())*131+1, warmupOps) })
		if rebalanced {
			rebErrs := make([]error, ranks)
			rt.Run(db, func(p *gdi.Process) {
				_, rebErrs[p.Rank()] = p.Rebalance()
			})
			for _, err := range rebErrs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) {
				opRound(p, int64(i)*7919+int64(p.Rank())*131+2, opsPerRank)
			})
		}
		b.StopTimer()
		qps := float64(b.N) * ranks * opsPerRank / time.Since(start).Seconds()
		b.ReportMetric(qps, "queries/s")
		if rebalanced {
			b.ReportMetric(float64(db.Engine().Migrations()), "migrations")
			b.ReportMetric(float64(db.Engine().ForwardedReads()), "forwards")
		}
	}
	b.Run("static", func(b *testing.B) { run(b, false) })
	b.Run("rebalanced", func(b *testing.B) { run(b, true) })
}

// BenchmarkReplicationAblation measures what k-replica holder chains buy on
// read-dominated skewed traffic: the same worker-affine Zipf shape as the
// rebalance ablation, but with ~1/16 writes and every rank seeding follower
// chains of its hottest remotely-owned vertices after the warmup round
// (ReplicateHot, k=3). An optimistic read of a replicated vertex is then
// served from the local follower chain — no remote GET train at all — and
// only the commit-time validation train still touches the primary. Writes
// keep a fixed payload size so the fan-out path (same holder shape) keeps
// the followers in lockstep instead of dropping them on reshape. With
// RemoteLatencyNs = 1000 at 8 ranks the k=3 run must deliver at least 1.5x
// the unreplicated throughput.
func BenchmarkReplicationAblation(b *testing.B) {
	const (
		ranks        = 8
		numVertices  = 4096
		warmupOps    = 2000
		opsPerRank   = 400
		payloadBytes = 64
		zipfS        = 1.2
		replicaK     = 3
		replicaTopM  = 1024
	)
	run := func(b *testing.B, replicated bool) {
		rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
		db := rt.CreateDatabase(gdi.DatabaseParams{
			BlockSize:             512,
			BlocksPerRank:         1 << 13,
			LockTries:             512,
			RebalanceHeatTracking: true, // both variants pay for tracking
			RebalanceTopK:         1024,
		})
		payload, err := db.DefinePType("payload", gdi.PTypeSpec{Datatype: gdi.TypeBytes})
		if err != nil {
			b.Fatal(err)
		}
		var loadErr error
		rt.Run(db, func(p *gdi.Process) {
			var specs []gdi.VertexSpec
			if p.Rank() == 0 {
				for app := uint64(0); app < numVertices; app++ {
					specs = append(specs, gdi.VertexSpec{
						AppID: app,
						Props: []gdi.Property{{PType: payload, Value: make([]byte, payloadBytes)}},
					})
				}
			}
			if err := p.BulkLoadVertices(specs); err != nil {
				loadErr = err
			}
		})
		if loadErr != nil {
			b.Fatal(loadErr)
		}
		zipf := workload.NewZipf(numVertices, zipfS)
		caches := make([]map[uint64]gdi.VertexID, ranks)
		for r := range caches {
			caches[r] = make(map[uint64]gdi.VertexID, numVertices)
		}
		opRound := func(p *gdi.Process, seed int64, ops int) {
			rng := rand.New(rand.NewSource(seed))
			cache := caches[p.Rank()]
			wp := make([]byte, payloadBytes)
			for i := 0; i < ops; i++ {
				app := workload.WorkerKey(zipf.Sample(rng), int(p.Rank()), ranks, numVertices)
				write := rng.Intn(16) == 0
				mode := gdi.ReadOnly
				if write {
					mode = gdi.ReadWrite
				}
				tx := p.StartTransaction(mode)
				dp, cached := cache[app]
				if !cached {
					var err error
					if dp, err = tx.TranslateVertexID(app); err != nil {
						b.Error(err)
						tx.Abort()
						return
					}
				}
				h, err := tx.AssociateVertex(dp)
				if err != nil {
					tx.Abort()
					continue
				}
				cache[app] = h.ID()
				if write {
					wp[0] = byte(i) // fixed size: same shape, fan-out keeps replicas
					if err := h.SetProperty(payload, wp); err != nil {
						b.Error(err)
						tx.Abort()
						return
					}
				} else {
					h.Property(payload)
				}
				if err := tx.Commit(); err != nil {
					continue // optimistic abort: retry is the client's business
				}
			}
		}
		// Warmup records per-rank heat and fills the translation caches.
		rt.Run(db, func(p *gdi.Process) { opRound(p, int64(p.Rank())*131+1, warmupOps) })
		if replicated {
			rt.Run(db, func(p *gdi.Process) { p.ReplicateHot(replicaK, replicaTopM) })
		}
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) {
				opRound(p, int64(i)*7919+int64(p.Rank())*131+2, opsPerRank)
			})
		}
		b.StopTimer()
		qps := float64(b.N) * ranks * opsPerRank / time.Since(start).Seconds()
		b.ReportMetric(qps, "queries/s")
		if replicated {
			st := db.ReplicaStats()
			b.ReportMetric(float64(st.Reads), "replreads")
			b.ReportMetric(float64(st.Reseeds), "reseeds")
			b.ReportMetric(float64(st.Drops), "repldrops")
		}
	}
	b.Run("unreplicated", func(b *testing.B) { run(b, false) })
	b.Run("replicated-k3", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblation_CollectiveVsLocalScan compares reading every vertex
// through one collective read transaction (no validation, §3.3) against
// pointwise local read transactions (one stamp and one validation train per
// vertex).
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

// BenchmarkHTAPAblation measures what the snapshot subsystem buys: analytics
// over a pinned cut running concurrently with live OLTP, against (a) the same
// OLTP load with no analytics at all and (b) the stop-the-world alternative
// of running the load and the PageRank back to back. The OLTP side is
// open-loop (workload.RunConfig.ThinkNs): each worker offers a fixed arrival
// rate, the standard HTAP methodology — with the default closed-loop
// saturation there is no idle for analytics to hide in, and on a single-core
// runner the sub-50us simulated latencies busy-spin, so a saturating load
// would serialize against the analytics no matter how the snapshot path is
// built. Under a fixed offered load the two gates are real measurements:
// served OLTP QPS under concurrent analytics must stay >= 0.6x the
// analytics-free baseline, and the concurrent makespan (both jobs done) must
// beat stop-the-world by >= 1.3x, i.e. the cut must actually let the
// PageRank overlap the think-time gaps instead of waiting for the load to
// drain.
func BenchmarkHTAPAblation(b *testing.B) {
	cfg := kron.Config{Scale: 12, EdgeFactor: 16, Seed: 7, NumLabels: 4, NumProps: 3}.WithDefaults()
	const (
		ranks   = 8
		iters   = 120
		opsEach = 150
		thinkNs = 1_000_000 // 1ms between ops: ~0.15s of offered load per phase
	)
	rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:     512,
		BlocksPerRank: int((cfg.NumVertices()*12+cfg.NumEdges()*2)/ranks) + (1 << 14),
		HTAPSnapshots: true,
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		b.Fatal(err)
	}
	g := &analytics.Graph{DB: db, Schema: sch}
	sys := &workload.GDASystem{DB: db, Schema: sch}
	oltp := func(seed int64, base uint64) (workload.Result, error) {
		return workload.Run(sys, workload.RunConfig{
			Mix: workload.LinkBench, Workers: ranks, OpsPerWorker: opsEach,
			KeySpace: cfg.NumVertices(), Seed: seed, InsertBase: base,
			ThinkNs: thinkNs,
		})
	}
	pagerank := func(p *gdi.Process) {
		if _, _, err := analytics.PageRank(p, g, iters, 0.85); err != nil {
			b.Error(err)
		}
	}
	// Each phase's inserts draw from a disjoint appID chunk.
	const chunk = uint64(ranks*opsEach + ranks)
	var qpsBase, qpsConc, makespan float64
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 3 * chunk
		// Phase 1: the offered load with no analytics.
		res, err := oltp(int64(3*i+1), base)
		if err != nil {
			b.Fatal(err)
		}
		qpsBase = res.QPS()
		// Phase 2: stop-the-world — drain the load, then run the PageRank.
		t0 := time.Now()
		if _, err := oltp(int64(3*i+2), base+chunk); err != nil {
			b.Fatal(err)
		}
		rt.Run(db, pagerank)
		stw := time.Since(t0)
		// Phase 3: the same load with the PageRank concurrent over a cut.
		t0 = time.Now()
		done := make(chan error, 1)
		var cres workload.Result
		go func() {
			r, err := oltp(int64(3*i+3), base+2*chunk)
			cres = r
			done <- err
		}()
		rt.Run(db, func(p *gdi.Process) {
			s, err := analytics.OpenHTAP(p, g)
			if err != nil {
				b.Error(err)
				return
			}
			defer s.Close()
			if _, _, err := s.PageRank(iters, 0.85); err != nil {
				b.Error(err)
			}
		})
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		htap := time.Since(t0)
		qpsConc = cres.QPS()
		makespan = stw.Seconds() / htap.Seconds()
	}
	b.ReportMetric(qpsBase, "oltp-qps")
	b.ReportMetric(qpsConc, "htap-qps")
	b.ReportMetric(qpsConc/qpsBase, "qps-ratio")
	b.ReportMetric(makespan, "makespan-x")
}
