// Command gdi-olap runs OLAP/OLSP workloads of §6.5 standalone: BFS, k-hop,
// PageRank, CDLP, WCC, LCC, BI2, or GNN on a generated Kronecker LPG. -algo
// takes one workload, a comma-separated list, or "all"; the report carries
// one row per algorithm with its wall time, the one-sided traffic it moved
// (PUT/GET trains and bytes, from the fabric counters), and its result
// summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/workload"
)

var allAlgos = []string{"bfs", "khop", "pagerank", "cdlp", "wcc", "lcc", "bi2", "gnn"}

func main() {
	algo := flag.String("algo", "bfs", "workload: bfs, khop, pagerank, cdlp, wcc, lcc, bi2, gnn; a comma-separated list; or all")
	ranks := flag.Int("ranks", 4, "number of simulated processes (servers)")
	scale := flag.Int("scale", 12, "graph has 2^scale vertices")
	k := flag.Int("k", 3, "hops for khop / feature dimension for gnn")
	iters := flag.Int("iters", 10, "iterations for pagerank (cdlp uses 5, wcc runs to convergence)")
	seed := flag.Int64("seed", 1, "generator seed")
	htap := flag.Bool("htap", false, "run the kernels over a live snapshot cut while an open-loop OLTP load keeps committing; reports the load's served QPS next to each algorithm's wall time (bfs and pagerank only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the timed kernels (not the load) to this file")
	flag.Parse()

	var algos []string
	if *algo == "all" {
		algos = allAlgos
		if *htap {
			algos = htapAlgos
		}
	} else {
		algos = strings.Split(*algo, ",")
	}

	cfg := kron.Config{Scale: *scale, EdgeFactor: 16, Seed: *seed, NumLabels: 20, NumProps: 13}.WithDefaults()
	rt := gdi.Init(*ranks)
	idxBuckets, idxEntries := workload.IndexSizing(cfg, *ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:           512,
		BlocksPerRank:       int((cfg.NumVertices()*12+cfg.NumEdges()*2)/uint64(*ranks)) + (1 << 13),
		IndexBucketsPerRank: idxBuckets,
		IndexEntriesPerRank: idxEntries,
		HTAPSnapshots:       *htap,
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdi-olap:", err)
		os.Exit(1)
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		fmt.Fprintln(os.Stderr, "gdi-olap:", err)
		os.Exit(1)
	}
	g := &analytics.Graph{DB: db, Schema: sch}
	stopProfile, err := workload.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdi-olap:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "gdi-olap:", err)
			os.Exit(1)
		}
	}()
	if *htap {
		runHTAP(rt, db, g, sch, cfg, algos, *ranks, *iters)
		return
	}
	fmt.Printf("servers=%d |V|=%d |E|=%d\n", *ranks, cfg.NumVertices(), cfg.NumEdges())
	fmt.Printf("%-10s %-12s %11s %11s %13s %13s  %s\n",
		"algo", "time", "put-trains", "get-trains", "bytes-put", "bytes-got", "result")

	fab := db.Engine().Fabric()
	for _, name := range algos {
		before := fab.TotalSnapshot()
		var mu sync.Mutex
		var summary string
		var runErr error
		start := time.Now()
		rt.Run(db, func(p *gdi.Process) {
			s, err := runAlgo(p, g, sch, name, *k, *iters, *seed)
			if p.Rank() == 0 {
				mu.Lock()
				summary = s
				if err != nil {
					runErr = err
				}
				mu.Unlock()
			}
		})
		elapsed := time.Since(start).Round(time.Microsecond)
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "gdi-olap:", runErr)
			os.Exit(1)
		}
		after := fab.TotalSnapshot()
		fmt.Printf("%-10s %-12s %11d %11d %13d %13d  %s\n",
			name, elapsed,
			after.PutBatches-before.PutBatches,
			after.GetBatches-before.GetBatches,
			after.BytesPut-before.BytesPut,
			after.BytesGot-before.BytesGot,
			summary)
	}
	snap := fab.TotalSnapshot()
	fmt.Printf("block cache: %d hits, %d misses\n", snap.CacheHits, snap.CacheMisses)
}

// runAlgo executes one workload on this rank and returns its summary line.
func runAlgo(p *gdi.Process, g *analytics.Graph, sch kron.Schema, name string, k, iters int, seed int64) (string, error) {
	switch name {
	case "bfs":
		visited, depth, stats, err := analytics.BFSDense(p, g, 0)
		return fmt.Sprintf("visited %d vertices, eccentricity %d (%d push / %d pull levels)",
			visited, depth, stats.PushLevels, stats.PullLevels), err
	case "khop":
		n, err := analytics.KHop(p, g, 0, k)
		return fmt.Sprintf("%d vertices within %d hops", n, k), err
	case "pagerank":
		_, norm, err := analytics.PageRank(p, g, iters, 0.85)
		return fmt.Sprintf("i=%d df=0.85, total mass %.6f", iters, norm), err
	case "cdlp":
		comm, err := analytics.CDLP(p, g, 5)
		distinct := map[uint64]bool{}
		for _, c := range comm {
			distinct[c] = true
		}
		return fmt.Sprintf("i=5, %d local communities", len(distinct)), err
	case "wcc":
		_, it, err := analytics.WCC(p, g, 100)
		return fmt.Sprintf("converged in %d iterations", it), err
	case "lcc":
		avg, err := analytics.LCC(p, g)
		return fmt.Sprintf("average LCC %.6f", avg), err
	case "bi2":
		groups, err := analytics.BI2(p, g, sch.Labels[0], sch.AgeProp, 30, 70, sch.Props[4])
		var total int64
		for _, c := range groups {
			total += c
		}
		return fmt.Sprintf("%d groups, %d matches", len(groups), total), err
	case "gnn":
		gcfg := analytics.GNNConfig{K: k, Layers: 2, Seed: seed}
		feat, featNext, err := analytics.GNNSetup(p, g, gcfg)
		if err != nil {
			return "", err
		}
		norm, err := analytics.GNNForward(p, g, gcfg, feat, featNext)
		return fmt.Sprintf("k=%d layers=2, output L1 norm %.4f", k, norm), err
	default:
		return "", fmt.Errorf("unknown workload %q", name)
	}
}

// htapAlgos are the kernels an HTAPSession exposes over a pinned cut.
var htapAlgos = []string{"bfs", "pagerank"}

// runHTAP runs each algorithm over a live snapshot cut while an open-loop
// LinkBench load keeps committing against the same database: one row per
// algorithm with the analytics wall time and the served OLTP QPS the load
// sustained alongside it.
func runHTAP(rt *gdi.Runtime, db *gdi.Database, g *analytics.Graph, sch kron.Schema, cfg kron.Config, algos []string, ranks, iters int) {
	const (
		opsEach = 200
		thinkNs = 1_000_000 // 1ms between ops: a fixed offered load, not saturation
	)
	for _, name := range algos {
		ok := false
		for _, h := range htapAlgos {
			ok = ok || name == h
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "gdi-olap: -htap supports %s; %q runs only quiesced\n", strings.Join(htapAlgos, ", "), name)
			os.Exit(1)
		}
	}
	sys := &workload.GDASystem{DB: db, Schema: sch}
	chunk := uint64(ranks*opsEach + ranks)
	fmt.Printf("servers=%d |V|=%d |E|=%d htap=true (open-loop LinkBench: %d workers, %d ops each, %dus think)\n",
		ranks, cfg.NumVertices(), cfg.NumEdges(), ranks, opsEach, thinkNs/1000)
	fmt.Printf("%-10s %-12s %11s %11s  %s\n", "algo", "time", "oltp-qps", "oltp-fail", "result")
	for i, name := range algos {
		var mu sync.Mutex
		var summary string
		var runErr error
		var res workload.Result
		var wlErr error
		done := make(chan struct{})
		go func(i int) {
			defer close(done)
			res, wlErr = workload.Run(sys, workload.RunConfig{
				Mix: workload.LinkBench, Workers: ranks, OpsPerWorker: opsEach,
				KeySpace: cfg.NumVertices(), Seed: int64(i + 1),
				InsertBase: uint64(i) * chunk, ThinkNs: thinkNs,
			})
		}(i)
		start := time.Now()
		rt.Run(db, func(p *gdi.Process) {
			s, err := analytics.OpenHTAP(p, g)
			if err != nil {
				mu.Lock()
				runErr = err
				mu.Unlock()
				return
			}
			defer s.Close()
			var sum string
			switch name {
			case "bfs":
				visited, depth, stats, e := s.BFS(0)
				sum, err = fmt.Sprintf("visited %d vertices at cut time, eccentricity %d (%d push / %d pull levels)",
					visited, depth, stats.PushLevels, stats.PullLevels), e
			case "pagerank":
				_, norm, e := s.PageRank(iters, 0.85)
				sum, err = fmt.Sprintf("i=%d df=0.85 over the cut, total mass %.6f", iters, norm), e
			}
			if p.Rank() == 0 {
				mu.Lock()
				summary = sum
				if err != nil {
					runErr = err
				}
				mu.Unlock()
			}
		})
		elapsed := time.Since(start).Round(time.Microsecond)
		<-done
		if runErr == nil {
			runErr = wlErr
		}
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "gdi-olap:", runErr)
			os.Exit(1)
		}
		fmt.Printf("%-10s %-12s %11.0f %11d  %s\n", name, elapsed, res.QPS(), res.Failed, summary)
	}
	eng := db.Engine()
	fmt.Printf("snapshots: %d cuts, %d block versions retired\n", eng.SnapshotCuts(), eng.RetiredBlocks())
}
