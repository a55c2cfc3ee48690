package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
	"github.com/gdi-go/gdi/internal/baseline/graph500"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/kron"
)

// The olap cycle: kernel runs per cycle. BFS makes up more than half of the
// runs (40 of 65) and the 90th percentile falls in the middle of the PageRank
// runs (the slowest kernel but LCC; places 53 to 64 of 65), so over the cycle
// lat_p50_us is a BFS-from-one-root latency and lat_p90_us a PageRank latency,
// while qps follows the whole cycle, of which LCC is the largest part.
const (
	olapBFSRoots  = 40
	olapPageRanks = 12
	olapWCCs      = 12
	olapLCCs      = 1
	pageRankIters = 20
	pageRankDF    = 0.85
	wccMaxIters   = 100
)

// kernelRun is the outcome of one kernel on all ranks.
type kernelRun struct {
	visited    int64           // BFS
	mass       float64         // PageRank
	components map[uint64]bool // WCC: distinct component labels over all ranks
	lcc        float64         // LCC
}

// runKernel executes kernel c collectively on every rank of e (root is the
// BFS root) and returns rank 0's view of the result.
func runKernel(e *env, g *analytics.Graph, c class, root uint64) (kernelRun, error) {
	var mu sync.Mutex
	var out kernelRun
	var firstErr error
	e.rt.Run(e.db, func(p *gdi.Process) {
		var err error
		var kr kernelRun
		switch c {
		case clBFS:
			kr.visited, _, _, err = analytics.BFSDense(p, g, root)
		case clPageRank:
			_, kr.mass, err = analytics.PageRank(p, g, pageRankIters, pageRankDF)
		case clWCC:
			var comp map[uint64]uint64
			comp, _, err = analytics.WCC(p, g, wccMaxIters)
			kr.components = make(map[uint64]bool)
			for _, label := range comp {
				kr.components[label] = true
			}
		case clLCC:
			kr.lcc, err = analytics.LCC(p, g)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if c == clWCC {
			if out.components == nil {
				out.components = make(map[uint64]bool)
			}
			for label := range kr.components {
				out.components[label] = true
			}
		} else if p.Rank() == 0 {
			out = kr
		}
	})
	return out, firstErr
}

// olapOracle holds the expected results, computed from the generator's edge
// list without the database.
type olapOracle struct {
	roots      []uint64
	visited    []int64 // per root, Graph500 reference BFS
	components int     // union-find over the edge list
}

func newOlapOracle(cfg kron.Config, seed int64) olapOracle {
	o := olapOracle{}
	rng := rand.New(rand.NewSource(opSeed(seed)))
	csr := kron.BuildCSR(cfg)
	for i := 0; i < olapBFSRoots; i++ {
		root := rng.Uint64() % cfg.NumVertices()
		o.roots = append(o.roots, root)
		o.visited = append(o.visited, int64(graph500.Visited(graph500.BFS(csr, root, 1))))
	}
	parent := make([]uint64, cfg.NumVertices())
	for i := range parent {
		parent[i] = uint64(i)
	}
	find := func(x uint64) uint64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	o.components = int(cfg.NumVertices())
	for k := uint64(0); k < cfg.NumEdges(); k++ {
		sp := kron.EdgeSpec(cfg, kron.Schema{}, k)
		if a, b := find(sp.OriginApp), find(sp.TargetApp); a != b {
			parent[a] = b
			o.components--
		}
	}
	return o
}

// quietCycle condenses a phase of whole cycles (one per entry of SlotS) into
// one cycle: each of the cycle's 65 requests — a kernel, and for BFS its root —
// at the lower quartile of its repeats (the second fastest of five). Every
// repeat of a request is the same computation on the same pristine graph, so
// what differs between repeats is what the machine did to them, and that only
// ever adds time: on the shared reference box a loud minute adds 15 to 25 % to
// the median of a kernel's repeats and 1 to 5 % to the fast end. The very
// fastest repeat is not used because LCC's repeats are spread evenly over
// 0.9 to 1.2 s, and the minimum of such a sample moves more than its quartile.
// A change to the program moves the quartile as it moves the median.
func quietCycle(p *phaseResult) *phaseResult {
	n := len(p.SlotS)
	q := &phaseResult{Failed: p.Failed / int64(n)}
	repeats := make([]float64, n)
	for c := range p.Lat {
		per := len(p.Lat[c]) / n
		for i := 0; i < per; i++ {
			for k := range repeats {
				repeats[k] = float64(p.Lat[c][k*per+i])
			}
			quiet := pick(repeats, 0.25)
			q.Lat[c] = append(q.Lat[c], int64(quiet))
			q.Attempted++
			q.ElapsedS += quiet / 1e9
		}
	}
	q.StolenS = p.StolenS * q.ElapsedS / p.ElapsedS
	return q
}

// runOLAP runs the analytics cycle on the pristine loaded graph.
func runOLAP(s spec, o options, res *result) error {
	e, setupS, err := setupSim(s, o)
	if err != nil {
		return err
	}
	oracle := newOlapOracle(e.cfg, o.seed)
	g := &analytics.Graph{DB: e.db, Schema: e.sch}
	fab := e.rt.Transport()

	// cycles runs whole cycles until dur has passed.
	cycles := func(dur time.Duration, tr *tracer) (*phaseResult, error) {
		p := &phaseResult{}
		before := localTraffic(fab)
		stolen := stolenSeconds()
		start := time.Now()
		n := 0
		for ; n == 0 || time.Since(start) < dur; n++ {
			cycleS := 0.0
			for _, k := range []struct {
				c    class
				runs int
			}{{clBFS, olapBFSRoots}, {clPageRank, olapPageRanks}, {clWCC, olapWCCs}, {clLCC, olapLCCs}} {
				for i := 0; i < k.runs; i++ {
					root := oracle.roots[i%len(oracle.roots)]
					// Every kernel run starts from a collected heap, so that it
					// pays for its own garbage and not for the previous run's.
					runtime.GC()
					tr.beginOp(k.c)
					sp := tr.begin(phRun)
					t0 := time.Now()
					kr, err := runKernel(e, g, k.c, root)
					lat := time.Since(t0)
					p.Lat[k.c] = append(p.Lat[k.c], int64(lat))
					p.Slot[k.c] = append(p.Slot[k.c], uint16(n)) // a cycle is a slice
					p.ElapsedS += lat.Seconds()
					cycleS += lat.Seconds()
					tr.end(sp)
					tr.endOp()
					if err != nil {
						return nil, fmt.Errorf("%s: %w", classNames[k.c], err)
					}
					p.Attempted++
					switch k.c {
					case clBFS:
						if kr.visited != oracle.visited[i] {
							res.failf("BFS from app %d visited %d vertices, Graph500 reference %d", root, kr.visited, oracle.visited[i])
						}
					case clPageRank:
						if math.Abs(kr.mass-1) > 1e-9 {
							res.failf("PageRank mass %.12f is not within 1e-9 of 1", kr.mass)
						}
					case clWCC:
						if len(kr.components) != oracle.components {
							res.failf("WCC found %d components, union-find over the edge list %d", len(kr.components), oracle.components)
						}
					case clLCC:
						if !(kr.lcc >= 0 && kr.lcc <= 1) {
							res.failf("average LCC %v outside [0, 1]", kr.lcc)
						}
					}
				}
			}
			p.SlotS = append(p.SlotS, cycleS)
		}
		p.Traffic = diff(localTraffic(fab), before)
		// ElapsedS is kernel time only; scale the wall-clock theft to it.
		p.StolenS = (stolenSeconds() - stolen) / loadThreads * p.ElapsedS / time.Since(start).Seconds()
		return p, nil
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	ph := &phases{warm: &phaseResult{}}
	if !o.trace {
		if ph.untraced, err = cycles(dur, nil); err != nil {
			return err
		}
	} else {
		// The graph is pristine throughout, so nothing drifts: one untraced
		// half, one traced half.
		if ph.untraced, err = cycles(dur/2, nil); err != nil {
			return err
		}
		tr := newTracer(fab, fabric.Rank(0), maxTracedOps, time.Now())
		if ph.traced, err = cycles(dur/2, tr); err != nil {
			return err
		}
		ph.traced.Spans = [][]span{tr.spans}
	}
	report(e, o, res, ph, setupS, measureMemory())
	// Throughput and latency are those of one quiet cycle, not of the phase
	// taken as one piece.
	quiet := quietCycle(ph.untraced)
	if !o.trace {
		endToEnd(res, quiet)
		// Time to solution per kernel and cycle, CSR build included, as a
		// caller pays it.
		for _, c := range []class{clBFS, clPageRank, clWCC, clLCC} {
			res.set(classNames[c]+"_s", mean(quiet.Lat[c])*float64(len(quiet.Lat[c]))/1e9, "s", len(ph.untraced.Lat[c]))
		}
	} else {
		res.set("trace.overhead_frac", 1-quietCycle(ph.traced).qps()/quiet.qps(), "ratio", int(ph.traced.succeeded()))
	}
	if got, want := e.vertexCount(), int64(e.cfg.NumVertices()); got != want {
		res.failf("vertices after run: %d, want %d", got, want)
	}
	return nil
}
