package analytics

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/baseline/graph500"
	"github.com/gdi-go/gdi/internal/kron"
)

// testGraph loads a deterministic Kronecker LPG into a fresh database.
func testGraph(t *testing.T, ranks int, cfg kron.Config) (*gdi.Runtime, *Graph) {
	t.Helper()
	return testGraphWith(t, ranks, cfg, gdi.DatabaseParams{})
}

// testGraphWith is testGraph on a database with params, whose block size
// and count default to testGraph's.
func testGraphWith(t *testing.T, ranks int, cfg kron.Config, params gdi.DatabaseParams) (*gdi.Runtime, *Graph) {
	t.Helper()
	cfg = cfg.WithDefaults()
	rt := gdi.Init(ranks)
	params.BlockSize, params.BlocksPerRank = 512, 1<<16
	db := rt.CreateDatabase(params)
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var loadErr error
	var mu sync.Mutex
	rt.Run(db, func(p *gdi.Process) {
		n := p.Size()
		if err := p.BulkLoadVertices(kron.VerticesFor(cfg, sch, int(p.Rank()), n)); err != nil {
			mu.Lock()
			loadErr = err
			mu.Unlock()
			return
		}
		if err := p.BulkLoadEdges(kron.EdgesFor(cfg, sch, int(p.Rank()), n)); err != nil {
			mu.Lock()
			loadErr = err
			mu.Unlock()
		}
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return rt, &Graph{DB: db, Schema: sch}
}

var smallCfg = kron.Config{Scale: 7, EdgeFactor: 8, Seed: 42, NumLabels: 5, NumProps: 4}

// TestBFSMatchesGraph500 holds BFS to the Graph500 reference from several
// roots: every rank must report the reference's visited count and its number
// of levels.
func TestBFSMatchesGraph500(t *testing.T) {
	csr := kron.BuildCSR(smallCfg.WithDefaults())
	for _, ranks := range []int{1, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			rt, g := testGraph(t, ranks, smallCfg)
			for root := uint64(0); root < 4; root++ {
				t.Run(fmt.Sprintf("root=%d", root), func(t *testing.T) {
					levels := graph500.BFS(csr, root, 0)
					wantDepth := 0
					for _, l := range levels {
						wantDepth = max(wantDepth, int(l)+1)
					}
					rt.Run(g.DB, func(p *gdi.Process) {
						visited, depth, err := BFS(p, g, root)
						if err != nil {
							t.Error(err)
							return
						}
						if int(visited) != graph500.Visited(levels) || depth != wantDepth {
							t.Errorf("rank %d: BFS = (%d visited, %d levels), Graph500 (%d, %d)",
								p.Rank(), visited, depth, graph500.Visited(levels), wantDepth)
						}
					})
				})
			}
		})
	}
}

func TestKHopMatchesReference(t *testing.T) {
	rt, g := testGraph(t, 4, smallCfg)
	csr := kron.BuildCSR(smallCfg.WithDefaults())
	levels := graph500.BFS(csr, 1, 0)
	for _, k := range []int{1, 2, 3} {
		want := int64(0)
		for _, l := range levels {
			if l >= 0 && int(l) <= k {
				want++
			}
		}
		var got int64
		var mu sync.Mutex
		rt.Run(g.DB, func(p *gdi.Process) {
			n, err := KHop(p, g, 1, k)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			got = n
			mu.Unlock()
		})
		if got != want {
			t.Fatalf("k=%d: KHop = %d, want %d", k, got, want)
		}
	}
}

// refDirectedAdj builds out-adjacency from the generator's edge stream.
func refDirectedAdj(cfg kron.Config) (n uint64, out map[uint64][]uint64, all map[uint64][]uint64) {
	cfg = cfg.WithDefaults()
	n = cfg.NumVertices()
	out = make(map[uint64][]uint64)
	all = make(map[uint64][]uint64)
	var sch kron.Schema
	for _, sp := range kron.EdgesFor(cfg, sch, 0, 1) {
		out[sp.OriginApp] = append(out[sp.OriginApp], sp.TargetApp)
		all[sp.OriginApp] = append(all[sp.OriginApp], sp.TargetApp)
		all[sp.TargetApp] = append(all[sp.TargetApp], sp.OriginApp)
	}
	return
}

func TestPageRankMatchesReference(t *testing.T) {
	cfg := smallCfg
	rt, g := testGraph(t, 4, cfg)
	const iters, df = 5, 0.85

	// Reference: same synchronous iteration in plain Go.
	n, out, _ := refDirectedAdj(cfg)
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		dangling := 0.0
		for u := uint64(0); u < n; u++ {
			if len(out[u]) == 0 {
				dangling += ref[u]
			}
		}
		base := (1-df)/float64(n) + df*dangling/float64(n)
		for i := range next {
			next[i] = base
		}
		for u := uint64(0); u < n; u++ {
			if len(out[u]) == 0 {
				continue
			}
			share := ref[u] / float64(len(out[u]))
			for _, v := range out[u] {
				next[v] += df * share
			}
		}
		ref = next
	}

	got := make(map[uint64]float64)
	var mu sync.Mutex
	var norm float64
	rt.Run(g.DB, func(p *gdi.Process) {
		local, l1, err := PageRank(p, g, iters, df)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		for k, v := range local {
			got[k] = v
		}
		norm = l1
		mu.Unlock()
	})
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("PageRank mass = %v, want 1", norm)
	}
	if len(got) != int(n) {
		t.Fatalf("PageRank covered %d vertices, want %d", len(got), n)
	}
	for app, want := range ref {
		if math.Abs(got[uint64(app)]-want) > 1e-9 {
			t.Fatalf("PageRank[%d] = %v, want %v", app, got[uint64(app)], want)
		}
	}
}

func TestWCCMatchesUnionFind(t *testing.T) {
	cfg := smallCfg
	rt, g := testGraph(t, 2, cfg)

	// Reference: union-find over the undirected edge list.
	n, _, _ := refDirectedAdj(cfg)
	parent := make([]uint64, n)
	for i := range parent {
		parent[i] = uint64(i)
	}
	var find func(x uint64) uint64
	find = func(x uint64) uint64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var sch kron.Schema
	for _, sp := range kron.EdgesFor(cfg.WithDefaults(), sch, 0, 1) {
		a, b := find(sp.OriginApp), find(sp.TargetApp)
		if a != b {
			parent[a] = b
		}
	}
	refComp := make(map[uint64]int)
	for u := uint64(0); u < n; u++ {
		refComp[find(u)]++
	}

	got := make(map[uint64]uint64)
	var mu sync.Mutex
	rt.Run(g.DB, func(p *gdi.Process) {
		local, _, err := WCC(p, g, 1000)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		for k, v := range local {
			got[k] = v
		}
		mu.Unlock()
	})
	// Same number of components, and WCC labels must be consistent with
	// union-find partitioning.
	gotComp := make(map[uint64]int)
	for _, c := range got {
		gotComp[c]++
	}
	if len(gotComp) != len(refComp) {
		t.Fatalf("WCC found %d components, union-find %d", len(gotComp), len(refComp))
	}
	for u := uint64(0); u < n; u++ {
		for v := u + 1; v < n && v < u+20; v++ {
			same := find(u) == find(v)
			if (got[u] == got[v]) != same {
				t.Fatalf("WCC disagrees with union-find on (%d, %d)", u, v)
			}
		}
	}
}

func TestCDLPMatchesReference(t *testing.T) {
	cfg := smallCfg
	const iters = 5
	rt, g := testGraph(t, 4, cfg)

	n, _, all := refDirectedAdj(cfg)
	ref := make([]uint64, n)
	for i := range ref {
		ref[i] = uint64(i)
	}
	for it := 0; it < iters; it++ {
		next := make([]uint64, n)
		for u := uint64(0); u < n; u++ {
			counts := make(map[uint64]int)
			for _, nb := range all[u] {
				counts[ref[nb]]++
			}
			if len(counts) == 0 {
				next[u] = ref[u]
				continue
			}
			best, bestCount := ref[u], 0
			first := true
			for l, cnt := range counts {
				if cnt > bestCount || (cnt == bestCount && (first || l < best)) {
					best, bestCount = l, cnt
					first = false
				}
			}
			next[u] = best
		}
		ref = next
	}

	got := make(map[uint64]uint64)
	var mu sync.Mutex
	rt.Run(g.DB, func(p *gdi.Process) {
		local, err := CDLP(p, g, iters)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		for k, v := range local {
			got[k] = v
		}
		mu.Unlock()
	})
	for u := uint64(0); u < n; u++ {
		if got[u] != ref[u] {
			t.Fatalf("CDLP[%d] = %d, want %d", u, got[u], ref[u])
		}
	}
}

func TestLCCMatchesReference(t *testing.T) {
	cfg := kron.Config{Scale: 6, EdgeFactor: 6, Seed: 9, NumLabels: 3, NumProps: 2}
	rt, g := testGraph(t, 2, cfg)

	n, _, all := refDirectedAdj(cfg)
	sets := make([]map[uint64]bool, n)
	for u := uint64(0); u < n; u++ {
		sets[u] = make(map[uint64]bool)
		for _, nb := range all[u] {
			if nb != u {
				sets[u][nb] = true
			}
		}
	}
	sum := 0.0
	for u := uint64(0); u < n; u++ {
		deg := len(sets[u])
		if deg < 2 {
			continue
		}
		links := 0
		for nb := range sets[u] {
			for x := range sets[nb] {
				if sets[u][x] {
					links++
				}
			}
		}
		sum += float64(links) / float64(deg*(deg-1))
	}
	want := sum / float64(n)

	var got float64
	var mu sync.Mutex
	rt.Run(g.DB, func(p *gdi.Process) {
		v, err := LCC(p, g)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		got = v
		mu.Unlock()
	})
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("LCC = %v, want %v", got, want)
	}
}

func TestBI2MatchesDirectCount(t *testing.T) {
	cfg := smallCfg.WithDefaults()
	rt, g := testGraph(t, 4, cfg)
	label := g.Schema.Labels[0]
	lo, hi := uint64(20), uint64(60)
	groupProp := g.Schema.Props[4%len(g.Schema.Props)]

	// Reference from the generator's deterministic vertex stream.
	want := make(map[uint64]int64)
	for app := uint64(0); app < cfg.NumVertices(); app++ {
		sp := kron.VertexSpec(cfg, g.Schema, app)
		if sp.Labels[0] != label {
			continue
		}
		var age, group uint64
		var hasGroup bool
		for _, pr := range sp.Props {
			if pr.PType == g.Schema.AgeProp {
				age = gdi.Uint64Of(pr.Value)
			}
			if pr.PType == groupProp {
				group = gdi.Uint64Of(pr.Value)
				hasGroup = true
			}
		}
		if age >= lo && age < hi && hasGroup {
			want[group]++
		}
	}

	var got map[uint64]int64
	var mu sync.Mutex
	rt.Run(g.DB, func(p *gdi.Process) {
		m, err := BI2(p, g, label, g.Schema.AgeProp, lo, hi, groupProp)
		if err != nil {
			t.Error(err)
			return
		}
		if p.Rank() == 0 {
			mu.Lock()
			got = m
			mu.Unlock()
		}
	})
	if len(got) != len(want) {
		t.Fatalf("BI2 groups = %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("BI2[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestGNNDeterministicAcrossRankCounts(t *testing.T) {
	cfg := kron.Config{Scale: 6, EdgeFactor: 4, Seed: 3, NumLabels: 3, NumProps: 2}
	gnnCfg := GNNConfig{K: 8, Layers: 2, Seed: 5}
	var norms []float64
	for _, ranks := range []int{1, 4} {
		rt, g := testGraph(t, ranks, cfg)
		var norm float64
		var mu sync.Mutex
		rt.Run(g.DB, func(p *gdi.Process) {
			feat, featNext, err := GNNSetup(p, g, gnnCfg)
			if err != nil {
				t.Error(err)
				return
			}
			v, err := GNNForward(p, g, gnnCfg, feat, featNext)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			norm = v
			mu.Unlock()
		})
		if norm <= 0 || math.IsNaN(norm) {
			t.Fatalf("ranks=%d: GNN norm = %v", ranks, norm)
		}
		norms = append(norms, norm)
	}
	if rel := math.Abs(norms[0]-norms[1]) / norms[0]; rel > 1e-9 {
		t.Fatalf("GNN norm differs across rank counts: %v vs %v (rel %v)", norms[0], norms[1], rel)
	}
}

func TestBFSFromMissingRootTerminates(t *testing.T) {
	rt, g := testGraph(t, 2, kron.Config{Scale: 4, EdgeFactor: 2, Seed: 1, NumLabels: 2, NumProps: 1})
	rt.Run(g.DB, func(p *gdi.Process) {
		visited, _, _ := BFS(p, g, 1<<40) // nonexistent root
		if visited != 0 {
			t.Errorf("BFS from missing root visited %d", visited)
		}
	})
}

// TestKHopFromMissingRootTerminates: the owner of a missing root must keep
// taking part in the level loop's collectives, or every other rank waits in
// them forever. A regression is a hang, so the ranks run under a deadline.
func TestKHopFromMissingRootTerminates(t *testing.T) {
	rt, g := testGraph(t, 2, kron.Config{Scale: 4, EdgeFactor: 2, Seed: 1, NumLabels: 2, NumProps: 1})
	const missing = 1 << 40
	owner := g.DB.Engine().OwnerOf(missing)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(g.DB, func(p *gdi.Process) {
			n, err := KHop(p, g, missing, 2)
			if n != 0 {
				t.Errorf("rank %d: KHop from a missing root counted %d", p.Rank(), n)
			}
			if p.Rank() == owner && !errors.Is(err, gdi.ErrNotFound) {
				t.Errorf("owner rank error = %v, want ErrNotFound", err)
			}
			if p.Rank() != owner && err != nil {
				t.Errorf("rank %d: %v", p.Rank(), err)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("KHop from a missing root did not return on every rank")
	}
}
