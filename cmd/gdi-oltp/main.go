// Command gdi-oltp runs the OLTP evaluation of §6.4 standalone: one Table 3
// mix against GDA (optionally against the baselines), printing throughput,
// failed-transaction percentage, and per-operation latency summaries.
package main

import (
	"flag"
	"fmt"
	"os"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/baseline/lockgdb"
	"github.com/gdi-go/gdi/internal/baseline/rpcgdb"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/workload"
)

func main() {
	mixName := flag.String("mix", "LinkBench", `workload mix: "read mostly", "read intensive", "write intensive", "LinkBench"`)
	system := flag.String("system", "gda", "system under test: gda, rpc (JanusGraph-like), lock (Neo4j-like)")
	ranks := flag.Int("ranks", 4, "number of simulated processes (servers)")
	scale := flag.Int("scale", 12, "graph has 2^scale vertices")
	ops := flag.Int("ops", 10000, "operations per worker")
	workers := flag.Int("workers", 0, "concurrent client sessions (default: one per rank; more run several committers per rank)")
	seed := flag.Int64("seed", 1, "run seed")
	hist := flag.Bool("hist", false, "print per-op latency histograms")
	zipfS := flag.Float64("zipf", 0, "Zipf exponent for operation keys (0 = uniform); skewed traffic, rank 0 hottest")
	zipfLocal := flag.Bool("zipf-local", false, "with -zipf: give each worker its own hot set (worker-affine skew, the regime -rebalance exploits)")
	rebalance := flag.Bool("rebalance", false, "gda: track access heat, run a warmup round, and live-migrate hot vertices onto their dominant accessors before the measured run")
	replicas := flag.Int("replicas", 1, "gda: k-replica holder chains — every vertex gets one primary plus k-1 follower chains kept in lockstep by the commit fan-out; optimistic reads are served from a local follower when one exists")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured run (not the load or the warmup) to this file")
	flag.Parse()
	if *workers == 0 {
		*workers = *ranks
	}

	var mix workload.Mix
	found := false
	for _, m := range workload.Mixes {
		if m.Name == *mixName {
			mix, found = m, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "gdi-oltp: unknown mix %q\n", *mixName)
		os.Exit(2)
	}

	cfg := kron.Config{Scale: *scale, EdgeFactor: 16, Seed: *seed, NumLabels: 20, NumProps: 13}.WithDefaults()
	var sys workload.System
	var gdaDB *gdi.Database
	var insertBase uint64 // keeps measured-run inserts clear of warmup inserts
	switch *system {
	case "gda":
		rt := gdi.Init(*ranks)
		idxBuckets, idxEntries := workload.IndexSizing(cfg, *ranks)
		db := rt.CreateDatabase(gdi.DatabaseParams{
			BlockSize:             512,
			BlocksPerRank:         int((cfg.NumVertices()*10+cfg.NumEdges()*2)/uint64(*ranks)) + (1 << 13),
			IndexBucketsPerRank:   idxBuckets,
			IndexEntriesPerRank:   idxEntries,
			RebalanceHeatTracking: *rebalance,
		})
		sch, err := kron.DefineSchema(db.Engine(), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdi-oltp:", err)
			os.Exit(1)
		}
		if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
			fmt.Fprintln(os.Stderr, "gdi-oltp:", err)
			os.Exit(1)
		}
		sys = &workload.GDASystem{DB: db, Schema: sch}
		gdaDB = db
		if *replicas > 1 {
			seeded := make([]int, *ranks)
			rt.Run(db, func(p *gdi.Process) { seeded[p.Rank()] = p.Replicate(*replicas) })
			total := 0
			for _, n := range seeded {
				total += n
			}
			fmt.Printf("replication: k=%d, seeded %d follower chains\n", *replicas, total)
		}
		warmupOps := *ops/10 + 1
		if *rebalance {
			// Warmup records heat; one Rebalance round then live-migrates
			// the hot set onto its dominant accessors.
			if _, err := workload.Run(sys, workload.RunConfig{
				Mix: mix, Workers: *workers, OpsPerWorker: warmupOps,
				KeySpace: cfg.NumVertices(), Seed: *seed + 1,
				ZipfS: *zipfS, ZipfWorkerHot: *zipfLocal,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "gdi-oltp: warmup:", err)
				os.Exit(1)
			}
			var stats gdi.RebalanceStats
			rebErrs := make([]error, *ranks)
			rt.Run(db, func(p *gdi.Process) {
				s, err := p.Rebalance()
				rebErrs[p.Rank()] = err
				if p.Rank() == 0 {
					stats = s
				}
			})
			for _, err := range rebErrs {
				if err != nil {
					fmt.Fprintln(os.Stderr, "gdi-oltp: rebalance:", err)
					os.Exit(1)
				}
			}
			fmt.Printf("rebalance: planned %d moves, migrated %d, skipped %d\n",
				stats.Planned, db.Engine().Migrations(), db.Engine().MigrationSkips())
			insertBase = uint64(warmupOps) * uint64(*workers)
		}
		db.Engine().Fabric().ResetCounters() // count the OLTP run, not the load
	case "rpc":
		db := rpcgdb.New(*ranks)
		defer db.Close()
		workload.LoadRPC(db, cfg)
		sys = &workload.RPCSystem{DB: db}
	case "lock":
		db := lockgdb.New()
		workload.LoadLock(db, cfg)
		sys = &workload.LockSystem{DB: db}
	default:
		fmt.Fprintf(os.Stderr, "gdi-oltp: unknown system %q\n", *system)
		os.Exit(2)
	}

	stopProfile, err := workload.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdi-oltp:", err)
		os.Exit(1)
	}
	res, err := workload.Run(sys, workload.RunConfig{
		Mix: mix, Workers: *workers, OpsPerWorker: *ops,
		KeySpace: cfg.NumVertices(), Seed: *seed,
		ZipfS: *zipfS, ZipfWorkerHot: *zipfLocal,
		InsertBase: insertBase,
	})
	if perr := stopProfile(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdi-oltp:", err)
		os.Exit(1)
	}
	fmt.Printf("system=%s mix=%q servers=%d workers=%d |V|=%d |E|=%d\n",
		res.System, res.Mix, *ranks, res.Workers, cfg.NumVertices(), cfg.NumEdges())
	fmt.Printf("throughput: %.0f queries/s   failed: %.2f%%   elapsed: %s\n",
		res.QPS(), res.FailedFraction()*100, res.Elapsed.Round(1e6))
	if gdaDB != nil {
		snap := gdaDB.Engine().Fabric().TotalSnapshot()
		fmt.Printf("write path: remote puts: %d (trains: %d)   remote atomics: %d (trains: %d)\n",
			snap.RemotePuts, snap.PutBatches, snap.RemoteAtoms, snap.AtomicBatches)
		hitRate := 0.0
		if lookups := snap.CacheHits + snap.CacheMisses; lookups > 0 {
			hitRate = float64(snap.CacheHits) / float64(lookups) * 100
		}
		fmt.Printf("read path: cache hits: %d   misses: %d (%.1f%% hit rate)   optimistic aborts: %d\n",
			snap.CacheHits, snap.CacheMisses, hitRate, gdaDB.Engine().OptimisticAborts())
		fmt.Printf("storage: bytes put: %d   bytes got: %d\n", snap.BytesPut, snap.BytesGot)
		if *rebalance {
			fmt.Printf("placement: migrations: %d   skipped: %d   forwarded reads: %d\n",
				gdaDB.Engine().Migrations(), gdaDB.Engine().MigrationSkips(), gdaDB.Engine().ForwardedReads())
		}
		if *replicas > 1 {
			st := gdaDB.ReplicaStats()
			fmt.Printf("replication: replica reads: %d   reseeds: %d   promotions: %d   drops: %d\n",
				st.Reads, st.Reseeds, st.Promotions, st.Drops)
		}
	}
	for op := workload.Op(0); op < workload.NumOps; op++ {
		h := res.PerOp[op]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("  %-16s n=%-8d mean=%8.1fµs p50=%8.1fµs p99=%8.1fµs\n",
			op, h.Count(), h.MeanNs()/1e3, float64(h.QuantileNs(0.5))/1e3, float64(h.QuantileNs(0.99))/1e3)
		if *hist {
			fmt.Print(h.Render(50))
		}
	}
}
