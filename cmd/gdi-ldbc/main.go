// Command gdi-ldbc runs an LDBC-SNB-interactive-flavored mix over a
// Kronecker/Zipf graph: IS-style short point reads, IC-style 2-hop
// friend-of-friend pattern queries (compiled onto the batch API through
// internal/query, with an age predicate, a LIMIT, and a projection), and
// U-style update transactions. It reports throughput, per-query-class
// latency, and the train/byte counters that show what the compiled
// multi-hop plan actually puts on the wire.
package main

import (
	"flag"
	"fmt"
	"os"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/workload"
)

func main() {
	ranks := flag.Int("ranks", 4, "number of simulated processes (servers)")
	scale := flag.Int("scale", 12, "graph has 2^scale vertices")
	ops := flag.Int("ops", 10000, "queries per worker")
	workers := flag.Int("workers", 0, "concurrent client sessions (default: one per rank)")
	seed := flag.Int64("seed", 1, "run seed")
	zipfS := flag.Float64("zipf", 0, "Zipf exponent for query roots (0 = uniform)")
	latency := flag.Int64("latency-ns", 0, "injected remote one-sided latency per train (ns)")
	shortW := flag.Int("short", 70, "mix weight: short point reads (IS-style)")
	friendsW := flag.Int("friends", 20, "mix weight: 2-hop friend-of-friend pattern queries (IC-style)")
	updatesW := flag.Int("updates", 10, "mix weight: update transactions (U-style)")
	limit := flag.Int("limit", 20, "LIMIT per 2-hop query (the SNB top-20)")
	ageOver := flag.Uint64("age-over", 30, "2-hop predicate: friends-of-friends with age >= this")
	hist := flag.Bool("hist", false, "print per-class latency histograms")
	replicas := flag.Int("replicas", 1, "k-replica holder chains; optimistic reads are served from a local follower when one exists")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the timed mix (not the load) to this file")
	flag.Parse()
	if *workers == 0 {
		*workers = *ranks
	}

	cfg := kron.Config{Scale: *scale, EdgeFactor: 16, Seed: *seed, NumLabels: 20, NumProps: 13}.WithDefaults()
	rt := gdi.Init(*ranks, gdi.RuntimeOptions{RemoteLatencyNs: *latency})
	idxBuckets, idxEntries := workload.IndexSizing(cfg, *ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:           512,
		BlocksPerRank:       int((cfg.NumVertices()*10+cfg.NumEdges()*2)/uint64(*ranks)) + (1 << 13),
		IndexBucketsPerRank: idxBuckets,
		IndexEntriesPerRank: idxEntries,
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdi-ldbc:", err)
		os.Exit(1)
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		fmt.Fprintln(os.Stderr, "gdi-ldbc:", err)
		os.Exit(1)
	}
	if *replicas > 1 {
		seeded := make([]int, *ranks)
		rt.Run(db, func(p *gdi.Process) { seeded[p.Rank()] = p.Replicate(*replicas) })
		total := 0
		for _, n := range seeded {
			total += n
		}
		fmt.Printf("replication: k=%d, seeded %d follower chains\n", *replicas, total)
	}
	db.Engine().Fabric().ResetCounters() // count the mix, not the load

	stopProfile, err := workload.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdi-ldbc:", err)
		os.Exit(1)
	}
	res, err := workload.RunLDBC(db, sch, workload.LDBCConfig{
		Workers:      *workers,
		OpsPerWorker: *ops,
		KeySpace:     cfg.NumVertices(),
		Seed:         *seed,
		ZipfS:        *zipfS,
		Weights: [workload.NumQueryClasses]int{
			workload.ClassShort:   *shortW,
			workload.ClassFriends: *friendsW,
			workload.ClassUpdate:  *updatesW,
		},
		FriendLimit: *limit,
		AgeOver:     *ageOver,
	})
	if perr := stopProfile(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdi-ldbc:", err)
		os.Exit(1)
	}

	fmt.Printf("mix=LDBC-interactive servers=%d workers=%d |V|=%d |E|=%d\n",
		*ranks, res.Workers, cfg.NumVertices(), cfg.NumEdges())
	fmt.Printf("throughput: %.0f queries/s   failed: %.2f%%   elapsed: %s   2hop rows: %d\n",
		res.QPS(), res.FailedFraction()*100, res.Elapsed.Round(1e6), res.Rows)
	snap := db.Engine().Fabric().TotalSnapshot()
	fmt.Printf("traffic: get trains: %d (remote gets: %d)   put trains: %d   atomic trains: %d   bytes got: %d   bytes put: %d\n",
		snap.GetBatches, snap.RemoteGets, snap.PutBatches, snap.AtomicBatches, snap.BytesGot, snap.BytesPut)
	fmt.Printf("read path: cache hits: %d   misses: %d   optimistic aborts: %d   replica reads: %d\n",
		snap.CacheHits, snap.CacheMisses, db.Engine().OptimisticAborts(), db.Engine().ReplicaReads())
	for c := workload.QueryClass(0); c < workload.NumQueryClasses; c++ {
		h := res.PerClass[c]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("  %-14s n=%-8d mean=%8.1fµs p50=%8.1fµs p99=%8.1fµs\n",
			c, h.Count(), h.MeanNs()/1e3, float64(h.QuantileNs(0.5))/1e3, float64(h.QuantileNs(0.99))/1e3)
		if *hist {
			fmt.Print(h.Render(50))
		}
	}
}
