package analytics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/kron"
)

// customGraph bulk-loads an explicit edge list (rank 0 contributes all
// specs) into a fresh database.
func customGraph(t *testing.T, ranks int, nVerts uint64, edges []gdi.EdgeSpec) (*gdi.Runtime, *Graph) {
	t.Helper()
	rt := gdi.Init(ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{BlocksPerRank: 1 << 14})
	label, err := db.DefineLabel("L")
	if err != nil {
		t.Fatal(err)
	}
	var loadErr error
	var mu sync.Mutex
	rt.Run(db, func(p *gdi.Process) {
		var vs []gdi.VertexSpec
		var es []gdi.EdgeSpec
		if p.Rank() == 0 {
			for app := uint64(0); app < nVerts; app++ {
				vs = append(vs, gdi.VertexSpec{AppID: app, Labels: []gdi.LabelID{label}})
			}
			es = edges
		}
		if err := p.BulkLoadVertices(vs); err != nil {
			mu.Lock()
			loadErr = err
			mu.Unlock()
			return
		}
		if err := p.BulkLoadEdges(es); err != nil {
			mu.Lock()
			loadErr = err
			mu.Unlock()
		}
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return rt, &Graph{DB: db, Schema: kron.Schema{}}
}

// mergeMaps folds one rank's result map into the cross-rank accumulator.
func mergeMaps[K comparable, V any](mu *sync.Mutex, dst map[K]V, src map[K]V) {
	mu.Lock()
	defer mu.Unlock()
	for k, v := range src {
		dst[k] = v
	}
}

// TestDenseGoldenEquivalence holds the dense CSR kernels to bit-identical
// results against the map-based oracles (oracle_test.go) on the same graph:
// PageRank mass per vertex, CDLP labels, WCC components and iteration count,
// the LCC average, and BFS visited count and depth. The Kronecker graph gets
// a multi-edge, a self-loop and a heavy edge, where the order of PageRank's
// sums matters, and from two ranks up it runs again after connected
// vertices migrated (the BFS root among them, and one vertex twice), so
// edge records name former homes.
func TestDenseGoldenEquivalence(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		rt, g := testGraph(t, ranks, smallCfg)
		addGoldenExtras(t, g)
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) { checkGolden(t, rt, g) })
		if ranks == 1 {
			continue
		}
		for _, app := range []uint64{0, goldenMulti, goldenMultiTo, goldenLoop, goldenHeavy, goldenMulti} {
			migrateApp(t, g, app, 1)
		}
		t.Run(fmt.Sprintf("ranks=%d/migrated", ranks), func(t *testing.T) { checkGolden(t, rt, g) })
	}
}

// The application IDs of the golden graph's extra edges: a second
// goldenMulti → goldenMultiTo edge, a self-loop on goldenLoop and a heavy
// edge goldenHeavy → goldenHeavyTo. Owners are appID mod ranks, so each
// edge but the loop crosses ranks at 2 and 4 ranks.
const (
	goldenMulti, goldenMultiTo = 5, 6
	goldenLoop                 = 7
	goldenHeavy, goldenHeavyTo = 9, 14
)

// addGoldenExtras commits the golden graph's extra edges.
func addGoldenExtras(t *testing.T, g *Graph) {
	t.Helper()
	err := commitOn(g, 0, func(tx *gdi.Transaction) error {
		v := make(map[uint64]gdi.VertexID)
		for _, app := range []uint64{goldenMulti, goldenMultiTo, goldenLoop, goldenHeavy, goldenHeavyTo} {
			dp, err := tx.TranslateVertexID(app)
			if err != nil {
				return err
			}
			v[app] = dp
		}
		for k := 0; k < 2; k++ {
			if _, err := tx.CreateEdge(v[goldenMulti], v[goldenMultiTo], gdi.DirOut, 0); err != nil {
				return err
			}
		}
		if _, err := tx.CreateEdge(v[goldenLoop], v[goldenLoop], gdi.DirOut, 0); err != nil {
			return err
		}
		_, err := tx.CreateRichEdge(v[goldenHeavy], v[goldenHeavyTo], gdi.DirOut, nil, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// migrateApp moves the vertex with application ID app by step ranks (mod
// the rank count) with one migration train.
func migrateApp(t *testing.T, g *Graph, app uint64, step int) {
	t.Helper()
	tx := g.DB.Process(0).StartTransaction(gdi.ReadOnly)
	old, err := tx.TranslateVertexID(app)
	tx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	ranks := fabric.Rank(g.DB.Engine().Fabric().Size())
	dest := (old.Rank() + fabric.Rank(step)) % ranks
	move := []core.MigrationMove{{App: app, Old: old, Dest: dest}}
	if n, err := g.DB.Engine().MigrateVertices(dest, move); n != 1 || err != nil {
		t.Fatalf("migrating vertex %d to rank %d moved %d vertices: %v", app, dest, n, err)
	}
}

// checkGolden runs every kernel through the oracle and the dense engine on
// g and compares the results.
func checkGolden(t *testing.T, rt *gdi.Runtime, g *Graph) {
	type kernels struct {
		pageRank func(*gdi.Process, *Graph, int, float64) (map[uint64]float64, float64, error)
		cdlp     func(*gdi.Process, *Graph, int) (map[uint64]uint64, error)
		wcc      func(*gdi.Process, *Graph, int) (map[uint64]uint64, int, error)
		lcc      func(*gdi.Process, *Graph) (float64, error)
		bfs      func(*gdi.Process, *Graph, uint64) (int64, int, error)
	}
	engines := map[bool]kernels{
		false: {pageRankMap, cdlpMap, wccMap, lccMap, bfsMap},
		true:  {PageRank, CDLP, WCC, LCC, BFS},
	}
	type result struct {
		pr      map[uint64]float64
		prNorm  float64
		cdlp    map[uint64]uint64
		wcc     map[uint64]uint64
		wccIts  int
		lcc     float64
		visited int64
		depth   int
	}
	results := make(map[bool]*result)
	for _, dense := range []bool{false, true} {
		k := engines[dense]
		res := &result{
			pr:   make(map[uint64]float64),
			cdlp: make(map[uint64]uint64),
			wcc:  make(map[uint64]uint64),
		}
		results[dense] = res
		var mu sync.Mutex
		rt.Run(g.DB, func(p *gdi.Process) {
			pr, norm, err := k.pageRank(p, g, 5, 0.85)
			if err != nil {
				t.Error(err)
				return
			}
			cd, err := k.cdlp(p, g, 5)
			if err != nil {
				t.Error(err)
				return
			}
			wc, its, err := k.wcc(p, g, 1000)
			if err != nil {
				t.Error(err)
				return
			}
			lcc, err := k.lcc(p, g)
			if err != nil {
				t.Error(err)
				return
			}
			visited, depth, err := k.bfs(p, g, 0)
			if err != nil {
				t.Error(err)
				return
			}
			mergeMaps(&mu, res.pr, pr)
			mergeMaps(&mu, res.cdlp, cd)
			mergeMaps(&mu, res.wcc, wc)
			mu.Lock()
			res.prNorm, res.wccIts, res.lcc = norm, its, lcc
			res.visited, res.depth = visited, depth
			mu.Unlock()
		})
	}
	if t.Failed() {
		t.FailNow()
	}
	mapRes, denseRes := results[false], results[true]
	if len(denseRes.pr) != len(mapRes.pr) {
		t.Fatalf("PageRank covered %d vs %d vertices", len(denseRes.pr), len(mapRes.pr))
	}
	for app, want := range mapRes.pr {
		if got := denseRes.pr[app]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PageRank[%d] = %v (dense) vs %v (map): not bit-identical", app, got, want)
		}
	}
	if math.Abs(denseRes.prNorm-mapRes.prNorm) > 1e-9 {
		t.Fatalf("PageRank norm %v vs %v", denseRes.prNorm, mapRes.prNorm)
	}
	for app, want := range mapRes.cdlp {
		if got := denseRes.cdlp[app]; got != want {
			t.Fatalf("CDLP[%d] = %d vs %d", app, got, want)
		}
	}
	if denseRes.wccIts != mapRes.wccIts {
		t.Fatalf("WCC converged in %d vs %d iterations", denseRes.wccIts, mapRes.wccIts)
	}
	for app, want := range mapRes.wcc {
		if got := denseRes.wcc[app]; got != want {
			t.Fatalf("WCC[%d] = %d vs %d", app, got, want)
		}
	}
	if math.Float64bits(denseRes.lcc) != math.Float64bits(mapRes.lcc) {
		t.Fatalf("LCC %v (dense) vs %v (map): not bit-identical", denseRes.lcc, mapRes.lcc)
	}
	if denseRes.visited != mapRes.visited || denseRes.depth != mapRes.depth {
		t.Fatalf("BFS (%d, %d) vs (%d, %d)", denseRes.visited, denseRes.depth, mapRes.visited, mapRes.depth)
	}
}

// TestDenseBFSPushPullSwitch drives the direction-optimizing heuristic
// through both phases on a two-tier graph: a sparse root level (push), a
// dense middle level covering most of the graph (pull), whose expansion must
// still discover the leaf tier.
func TestDenseBFSPushPullSwitch(t *testing.T) {
	const nVerts = 64
	var edges []gdi.EdgeSpec
	// Root 0 fans out to 1..47 (the dense frontier), vertex 1 reaches the
	// leaves 48..63.
	for app := uint64(1); app < 48; app++ {
		edges = append(edges, gdi.EdgeSpec{OriginApp: 0, TargetApp: app, Dir: gdi.DirOut})
	}
	for app := uint64(48); app < nVerts; app++ {
		edges = append(edges, gdi.EdgeSpec{OriginApp: 1, TargetApp: app, Dir: gdi.DirOut})
	}
	rt, g := customGraph(t, 4, nVerts, edges)
	rt.Run(g.DB, func(p *gdi.Process) {
		visited, depth, stats, err := BFSDense(p, g, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if visited != nVerts || depth != 3 {
			t.Errorf("BFS = (%d, %d), want (%d, 3)", visited, depth, nVerts)
		}
		if stats.PullLevels == 0 {
			t.Errorf("dense frontier never switched to pull: %+v", stats)
		}
		if stats.PushLevels == 0 {
			t.Errorf("sparse root level should have pushed: %+v", stats)
		}
	})
}

// TestDenseBFSEdgeCases covers the frontier corner cases: a missing root, a
// graph with no edges (isolated vertices), a star whose first level is the
// whole graph, and undirected edges traversed in both directions.
func TestDenseBFSEdgeCases(t *testing.T) {
	t.Run("missing-root", func(t *testing.T) {
		rt, g := testGraph(t, 2, kron.Config{Scale: 4, EdgeFactor: 2, Seed: 1, NumLabels: 2, NumProps: 1})
		rt.Run(g.DB, func(p *gdi.Process) {
			visited, depth, _, err := BFSDense(p, g, 1<<40)
			if visited != 0 || depth != 0 {
				t.Errorf("BFS from missing root = (%d, %d)", visited, depth)
			}
			owner := int(g.DB.Engine().OwnerOf(1 << 40))
			if int(p.Rank()) == owner && !errors.Is(err, gdi.ErrNotFound) {
				t.Errorf("owner rank error = %v, want ErrNotFound", err)
			}
		})
	})
	t.Run("isolated-vertices", func(t *testing.T) {
		rt, g := customGraph(t, 3, 12, nil)
		rt.Run(g.DB, func(p *gdi.Process) {
			visited, depth, _, err := BFSDense(p, g, 5)
			if err != nil {
				t.Error(err)
				return
			}
			if visited != 1 || depth != 1 {
				t.Errorf("BFS on edgeless graph = (%d, %d), want (1, 1)", visited, depth)
			}
		})
		// Every isolated vertex is its own WCC component.
		comps := make(map[uint64]uint64)
		var mu sync.Mutex
		rt.Run(g.DB, func(p *gdi.Process) {
			wc, _, err := WCC(p, g, 10)
			if err != nil {
				t.Error(err)
				return
			}
			mergeMaps(&mu, comps, wc)
		})
		for app, c := range comps {
			if c != app {
				t.Errorf("WCC[%d] = %d on an edgeless graph", app, c)
			}
		}
	})
	t.Run("full-graph-frontier", func(t *testing.T) {
		// Star: level 1 is every remaining vertex at once.
		const nVerts = 32
		var edges []gdi.EdgeSpec
		for app := uint64(1); app < nVerts; app++ {
			edges = append(edges, gdi.EdgeSpec{OriginApp: 0, TargetApp: app, Dir: gdi.DirOut})
		}
		rt, g := customGraph(t, 4, nVerts, edges)
		rt.Run(g.DB, func(p *gdi.Process) {
			visited, depth, stats, err := BFSDense(p, g, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if visited != nVerts || depth != 2 {
				t.Errorf("star BFS = (%d, %d), want (%d, 2)", visited, depth, nVerts)
			}
			if stats.PullLevels == 0 {
				t.Errorf("full-graph frontier should pull: %+v", stats)
			}
		})
	})
	t.Run("undirected-edges", func(t *testing.T) {
		// An undirected path 0-1-2-...-9; a BFS from the middle reaches both
		// ends only if undirected records traverse both ways.
		const nVerts = 10
		var edges []gdi.EdgeSpec
		for app := uint64(0); app+1 < nVerts; app++ {
			edges = append(edges, gdi.EdgeSpec{OriginApp: app, TargetApp: app + 1, Dir: gdi.DirUndirected})
		}
		rt, g := customGraph(t, 3, nVerts, edges)
		rt.Run(g.DB, func(p *gdi.Process) {
			visited, depth, _, err := BFSDense(p, g, 5)
			if err != nil {
				t.Error(err)
				return
			}
			if visited != nVerts || depth != 6 {
				t.Errorf("undirected path BFS = (%d, %d), want (%d, 6)", visited, depth, nVerts)
			}
		})
	})
}

// TestDensePageRankDeterministic: two independent runs of dense PageRank at
// the same seed must be diff-clean to the last bit — the dense arrays remove
// the map-iteration nondeterminism of the map-based formulation.
func TestDensePageRankDeterministic(t *testing.T) {
	dump := func() string {
		rt, g := testGraph(t, 4, smallCfg)
		got := make(map[uint64]float64)
		var mu sync.Mutex
		var norm float64
		rt.Run(g.DB, func(p *gdi.Process) {
			pr, n, err := PageRank(p, g, 10, 0.85)
			if err != nil {
				t.Error(err)
				return
			}
			mergeMaps(&mu, got, pr)
			mu.Lock()
			norm = n
			mu.Unlock()
		})
		apps := make([]uint64, 0, len(got))
		for app := range got {
			apps = append(apps, app)
		}
		sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
		out := fmt.Sprintf("norm=%016x\n", math.Float64bits(norm))
		for _, app := range apps {
			out += fmt.Sprintf("%d=%016x\n", app, math.Float64bits(got[app]))
		}
		return out
	}
	if a, b := dump(), dump(); a != b {
		t.Fatalf("two dense PageRank runs at the same seed differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

// bruteLinks computes, per application ID, |N(v)| and Σ_{u∈N(v)}
// |N(u) ∩ N(v)| straight from an edge list, where N(v) is v's distinct
// neighbors over both directions with self-loops excluded.
func bruteLinks(nVerts uint64, edges []gdi.EdgeSpec) (links []int64, deg []int) {
	nbr := make([]map[uint64]bool, nVerts)
	for v := range nbr {
		nbr[v] = make(map[uint64]bool)
	}
	for _, e := range edges {
		if e.OriginApp != e.TargetApp {
			nbr[e.OriginApp][e.TargetApp] = true
			nbr[e.TargetApp][e.OriginApp] = true
		}
	}
	links = make([]int64, nVerts)
	deg = make([]int, nVerts)
	for v := range nbr {
		deg[v] = len(nbr[v])
		for u := range nbr[v] {
			for w := range nbr[u] {
				if nbr[v][w] {
					links[v]++
				}
			}
		}
	}
	return links, deg
}

// TestLCCCountsMatchBruteForce holds LCC's per-vertex integers — the
// degree and the link count 2·T(v) — exactly to a brute-force count, at
// every rank count from 1 to 4, on graphs that stress the orientation: a
// clique, a star whose leaves tie in degree (only the packed-ID tie-break
// orders them), a multigraph with duplicate, reciprocal, undirected and
// self-loop edges, isolated and degree-1 vertices, and a Kronecker graph.
func TestLCCCountsMatchBruteForce(t *testing.T) {
	type input struct {
		name   string
		nVerts uint64
		edges  []gdi.EdgeSpec
	}
	edge := func(a, b uint64, dir gdi.Direction) gdi.EdgeSpec {
		return gdi.EdgeSpec{OriginApp: a, TargetApp: b, Dir: dir}
	}
	var clique, star, multi, sparse []gdi.EdgeSpec
	for a := uint64(0); a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			clique = append(clique, edge(a, b, gdi.DirOut))
		}
	}
	const leaves = 300
	for leaf := uint64(1); leaf <= leaves; leaf++ {
		star = append(star, edge(0, leaf, gdi.DirOut))
		if leaf < leaves {
			star = append(star, edge(leaf, leaf+1, gdi.DirOut))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 120; k++ {
		a, b := uint64(rng.Intn(24)), uint64(rng.Intn(24))
		multi = append(multi, edge(a, b, gdi.DirOut))
		if k%3 == 0 {
			multi = append(multi, edge(a, b, gdi.DirOut))
		}
		if k%4 == 0 {
			multi = append(multi, edge(b, a, gdi.DirOut))
		}
		if k%5 == 0 {
			multi = append(multi, edge(a, a, gdi.DirOut))
		}
		if k%7 == 0 {
			multi = append(multi, edge(a, b, gdi.DirUndirected))
		}
	}
	// A triangle with a pendant path, a lone edge, a vertex with only a
	// self-loop, and isolated vertices 8..15.
	sparse = []gdi.EdgeSpec{
		edge(0, 1, gdi.DirOut), edge(1, 2, gdi.DirOut), edge(2, 0, gdi.DirOut),
		edge(3, 0, gdi.DirOut), edge(4, 3, gdi.DirOut),
		edge(5, 6, gdi.DirOut),
		edge(7, 7, gdi.DirOut),
	}
	kcfg := kron.Config{Scale: 6, EdgeFactor: 6, Seed: 9, NumLabels: 3, NumProps: 2}.WithDefaults()
	inputs := []input{
		{"clique8", 8, clique},
		{"star300-path", leaves + 1, star},
		{"multigraph", 24, multi},
		{"isolated-degree1", 16, sparse},
		{"kronecker6", kcfg.NumVertices(), kron.EdgesFor(kcfg, kron.Schema{}, 0, 1)},
	}
	for _, in := range inputs {
		wantLinks, wantDeg := bruteLinks(in.nVerts, in.edges)
		for ranks := 1; ranks <= 4; ranks++ {
			t.Run(fmt.Sprintf("%s/ranks=%d", in.name, ranks), func(t *testing.T) {
				rt, g := customGraph(t, ranks, in.nVerts, in.edges)
				gotLinks := make(map[uint64]int64)
				gotDeg := make(map[uint64]int)
				var mu sync.Mutex
				rt.Run(g.DB, func(p *gdi.Process) {
					tx := p.StartCollectiveTransaction(gdi.ReadOnly)
					defer tx.Commit()
					c, err := buildCSR(p, tx)
					if err != nil {
						t.Error(err)
						return
					}
					links, deg := lccLinks(p, c)
					mu.Lock()
					defer mu.Unlock()
					for i, app := range c.app {
						gotLinks[app], gotDeg[app] = links[i], int(deg[i])
					}
				})
				if len(gotLinks) != int(in.nVerts) {
					t.Fatalf("counted %d of %d vertices", len(gotLinks), in.nVerts)
				}
				for app := uint64(0); app < in.nVerts; app++ {
					if gotLinks[app] != wantLinks[app] || gotDeg[app] != wantDeg[app] {
						t.Fatalf("vertex %d: links %d over degree %d, brute force %d over %d",
							app, gotLinks[app], gotDeg[app], wantLinks[app], wantDeg[app])
					}
				}
			})
		}
	}
}

// TestLCCTrafficIsLinearOnAStar pins LCC's traffic on a hub, on the
// simulator's deterministic counters. A star with its centre on rank 0 and
// every leaf on rank 1 is the worst case for shipping neighbor sets: the
// centre's set is as large as the graph. Net of a bare CSR build, LCC's bytes
// put must grow linearly with the leaves (at most 5× for 4× the leaves;
// shipping the centre's set once per leaf grows 16×), and its PUT trains
// must stay within three exchange rounds' worth per destination rank.
func TestLCCTrafficIsLinearOnAStar(t *testing.T) {
	const ranks, rounds = 2, 3
	measure := func(leaves int) (bytes, trains int64) {
		// OwnerOf is appID mod ranks: the centre 0 lives on rank 0, the odd
		// leaves on rank 1, and the even IDs stay isolated on rank 0.
		var edges []gdi.EdgeSpec
		for k := 0; k < leaves; k++ {
			edges = append(edges, gdi.EdgeSpec{OriginApp: 0, TargetApp: uint64(2*k + 1), Dir: gdi.DirOut})
		}
		rt, g := customGraph(t, ranks, uint64(2*leaves), edges)
		fab := g.DB.Engine().Fabric()
		run := func(kernel func(p *gdi.Process) error) fabric.Snapshot {
			before := fab.TotalSnapshot()
			rt.Run(g.DB, func(p *gdi.Process) {
				if err := kernel(p); err != nil {
					t.Error(err)
				}
			})
			after := fab.TotalSnapshot()
			after.BytesPut -= before.BytesPut
			after.PutBatches -= before.PutBatches
			return after
		}
		csr := run(func(p *gdi.Process) error {
			tx := p.StartCollectiveTransaction(gdi.ReadOnly)
			defer tx.Commit()
			_, err := buildCSR(p, tx)
			return err
		})
		lcc := run(func(p *gdi.Process) error {
			avg, err := LCC(p, g)
			if err == nil && avg != 0 {
				err = fmt.Errorf("star LCC = %v, want 0", avg)
			}
			return err
		})
		return lcc.BytesPut - csr.BytesPut, lcc.PutBatches - csr.PutBatches
	}
	small, _ := measure(256)
	large, trains := measure(1024)
	t.Logf("LCC net of the CSR build: %d B at 256 leaves, %d B and %d PUT trains at 1024", small, large, trains)
	if small <= 0 || large > 5*small {
		t.Fatalf("LCC put %d B at 256 leaves and %d B at 1024: not linear in the leaves", small, large)
	}
	if max := int64(rounds * ranks * (ranks - 1)); trains > max {
		t.Fatalf("LCC issued %d PUT trains beyond the CSR build, want at most %d", trains, max)
	}
}
