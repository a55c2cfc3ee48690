package query

import (
	"errors"
	"reflect"
	"testing"

	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// fanGraph is a source (application ID 0) with one edge to each of len(fans)
// hub vertices, all on rank 0, and leaves hanging off the hubs: the last
// frontier of a 2-hop pattern from the source is every leaf. Leaf i has age
// i*7%90 — two thirds are 30 or older — and the Person label, so
// g.ageOver(30) matches two thirds of the leaves.
type fanGraph struct {
	*testGraph
	src    fabric.DPtr
	fans   []fabric.DPtr
	leaves []fabric.DPtr // by leaf index
}

// leafBase is the first leaf's application ID: a multiple of every rank
// count the tests use, above the source's and the hubs'.
const leafBase = 1 << 20

// newFanGraph builds a fanGraph over ranks ranks: fan j gets the leaves
// perFan[j] lists, by leaf index. A leaf's application ID, and so its rank,
// is leafBase + leafApp(i).
func newFanGraph(t *testing.T, ranks int, shape storeShape, leafApp func(i int) uint64, perFan ...[]int) *fanGraph {
	t.Helper()
	e := core.NewEngine(rma.New(ranks), core.Config{
		BlockSize:     shape.blockSize,
		BlocksPerRank: 1 << 12,
		LockTries:     256,
		CacheCapacity: shape.cacheBlocks,
	})
	g := &fanGraph{testGraph: &testGraph{e: e}}
	var err error
	if g.person, err = e.DefineLabel("Person"); err != nil {
		t.Fatal(err)
	}
	if g.age, err = e.DefinePType("age", metadata.PTypeSpec{Datatype: lpg.TypeUint64}); err != nil {
		t.Fatal(err)
	}
	tx := e.StartLocal(0, core.ReadWrite)
	vertex := func(app, age uint64) fabric.DPtr {
		dp, err := tx.CreateVertex(app)
		if err != nil {
			t.Fatal(err)
		}
		h, err := tx.AssociateVertex(dp)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AddLabel(g.person); err != nil {
			t.Fatal(err)
		}
		if err := h.AddProperty(g.age, lpg.EncodeUint64(age)); err != nil {
			t.Fatal(err)
		}
		return dp
	}
	edge := func(from, to fabric.DPtr) {
		if _, err := tx.CreateEdge(from, to, holder.DirOut, g.person); err != nil {
			t.Fatal(err)
		}
	}
	g.src = vertex(0, 0)
	nLeaves := 0
	for j, leaves := range perFan {
		g.fans = append(g.fans, vertex(uint64(ranks*(j+1)), 0))
		edge(g.src, g.fans[j])
		for _, i := range leaves {
			nLeaves = max(nLeaves, i+1)
		}
	}
	g.leaves = make([]fabric.DPtr, nLeaves)
	for i := range g.leaves {
		g.leaves[i] = vertex(leafBase+leafApp(i), uint64(i*7%90))
	}
	for j, leaves := range perFan {
		for _, i := range leaves {
			edge(g.fans[j], g.leaves[i])
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return g
}

// span lists the leaf indices lo..hi-1.
func span(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// wideFan is the graph of the early-stop contracts: 520 leaves on rank 1,
// 130 under each of four hubs, read from rank 0, so every leaf read is a
// remote one.
func wideFan(t *testing.T) *fanGraph {
	const leaves, hubs = 520, 4
	var perFan [][]int
	for j := 0; j < hubs; j++ {
		perFan = append(perFan, span(j*leaves/hubs, (j+1)*leaves/hubs))
	}
	return newFanGraph(t, 2, defaultShape, func(i int) uint64 { return uint64(2*i + 1) }, perFan...)
}

// TestLimitStopsFinalHopEarly is the count contract of LIMIT's early stop: a
// LIMIT 5 final hop over a 520-vertex frontier on a remote rank, two thirds
// of which match, reads at most 8×LIMIT of the frontier's holders — over the
// wire or out of the block cache — where a hop without the stop reads every
// one. The rows are the naive executor's.
func TestLimitStopsFinalHopEarly(t *testing.T) {
	g := wideFan(t)
	const limit = 5
	p := &Pattern{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut, Cons: g.ageOver(30)}}, Limit: limit}
	before := g.e.Fabric().TotalSnapshot()
	tx := g.e.StartLocal(0, core.ReadOnly)
	res, err := Run(tx, g.src, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := g.e.Fabric().TotalSnapshot()
	if read := after.RemoteGets + after.CacheHits - before.RemoteGets - before.CacheHits; read > 8*limit {
		t.Fatalf("a LIMIT %d hop over %d vertices read %d of their holders, want at most %d", limit, len(g.leaves), read, 8*limit)
	} else {
		t.Logf("a LIMIT %d hop over %d vertices read %d of their holders", limit, len(g.leaves), read)
	}
	if want := runBoth(t, g.testGraph, core.ReadOnly, g.src, p); !reflect.DeepEqual(res, want) || len(res.Rows) != limit {
		t.Fatalf("rows %+v, want the naive executor's %+v", res.Rows, want.Rows)
	}
}

// TestLimitEarlyStopValidatesUnread: the vertices a LIMIT hop stopped before
// reading are in the read set at the versions their stamps showed. Migrating
// or rewriting one of them between Run and Commit fails Commit with a
// transaction-critical error; left alone, Commit succeeds.
func TestLimitEarlyStopValidatesUnread(t *testing.T) {
	for _, interfere := range []string{"none", "migrate", "rewrite"} {
		t.Run(interfere, func(t *testing.T) {
			g := wideFan(t)
			p := &Pattern{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut, Cons: g.ageOver(30)}}, Limit: 5}
			tx := g.e.StartLocal(0, core.ReadOnly)
			defer tx.Abort()
			before := g.e.Fabric().TotalSnapshot()
			if _, err := Run(tx, g.src, p); err != nil {
				t.Fatal(err)
			}
			if gets := g.e.Fabric().TotalSnapshot().RemoteGets - before.RemoteGets; gets >= int64(len(g.leaves)) {
				t.Fatalf("the hop read %d holders: it did not stop early", gets)
			}
			// The last leaf sorts after every other: the hop never read it.
			last := len(g.leaves) - 1
			switch interfere {
			case "migrate":
				n, err := g.e.MigrateVertices(0, []core.MigrationMove{{App: leafBase + uint64(2*last+1), Old: g.leaves[last], Dest: 0}})
				if err != nil || n != 1 {
					t.Fatalf("migration of the unread leaf: moved %d, %v", n, err)
				}
			case "rewrite":
				w := g.e.StartLocal(1, core.ReadWrite)
				h, err := w.AssociateVertex(g.leaves[last])
				if err != nil {
					t.Fatal(err)
				}
				if err := h.SetProperty(g.age, lpg.EncodeUint64(1)); err != nil {
					t.Fatal(err)
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			err := tx.Commit()
			if interfere == "none" && err != nil {
				t.Fatalf("commit of an undisturbed LIMIT hop: %v", err)
			}
			if interfere != "none" && !errors.Is(err, core.ErrTxCritical) {
				t.Fatalf("commit after a %s of an unread frontier vertex: %v, want ErrTxCritical", interfere, err)
			}
		})
	}
}

// goldenEarlyStop is TestGoldenEquivalence's early-stop case: a 2-hop pattern
// whose last frontier holds forwarding stubs, under LIMIT ∈ {1, 5, rows,
// rows+1}, on both tiers and over a one-block cache. The leaves live on ranks
// 1 to 3. One matching leaf moved from rank 3 to rank 0, so it resolves below
// every DPtr the hop reads; one moved from rank 1 to rank 3, so it resolves
// above most; and one moved from rank 2 to rank 1 and got an edge from the
// second hub under its new DPtr, so the frontier names it twice.
func goldenEarlyStop(t *testing.T, ranks int) {
	// Leaf i goes to rank i%3 + 1: a leaf's index picks its rank.
	leafApp := func(i int) uint64 { return uint64(ranks*(i/3) + i%3 + 1) }
	const low, high, twice = 5, 6, 7 // on ranks 3, 1 and 2, aged 35, 42 and 49
	build := func(shape storeShape) (*fanGraph, [3]fabric.DPtr) {
		g := newFanGraph(t, ranks, shape, leafApp, span(0, 60), span(55, 70))
		var moved [3]fabric.DPtr
		for k, mv := range []struct {
			leaf int
			dest fabric.Rank
		}{{low, 0}, {high, 3}, {twice, 1}} {
			app := leafBase + leafApp(mv.leaf)
			if n, err := g.e.MigrateVertices(mv.dest, []core.MigrationMove{{App: app, Old: g.leaves[mv.leaf], Dest: mv.dest}}); err != nil || n != 1 {
				t.Fatalf("migration of leaf %d: moved %d, %v", mv.leaf, n, err)
			}
			look := g.e.StartLocal(0, core.ReadOnly)
			cur, err := look.TranslateVertexID(app)
			look.Abort()
			if err != nil || cur.Rank() != mv.dest {
				t.Fatalf("leaf %d after migration: %v, %v", mv.leaf, cur, err)
			}
			moved[k] = cur
		}
		tx := g.e.StartLocal(0, core.ReadWrite)
		if _, err := tx.CreateEdge(g.fans[1], moved[2], holder.DirOut, g.person); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return g, moved
	}
	check := func(t *testing.T, g *fanGraph, moved [3]fabric.DPtr, mode core.Mode) {
		hops := []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut, Cons: g.ageOver(30)}}
		all := runBoth(t, g.testGraph, mode, g.src, &Pattern{Kind: KHop, Hops: hops})
		for _, dp := range moved {
			if n := countRows(all, dp); n != 1 {
				t.Fatalf("the moved leaf %v is in %d rows, want 1", dp, n)
			}
		}
		if all.Rows[0].Verts[0] != moved[0] {
			t.Fatalf("first row %v, want the leaf moved to rank 0 (%v)", all.Rows[0].Verts, moved[0])
		}
		for _, limit := range []int{1, 5, len(all.Rows), len(all.Rows) + 1} {
			got := runBoth(t, g.testGraph, mode, g.src, &Pattern{Kind: KHop, Hops: hops, Limit: limit, Project: g.age, HasProject: true})
			want := all.Rows[:min(limit, len(all.Rows))]
			if len(got.Rows) != len(want) {
				t.Fatalf("limit %d: %d rows, want %d", limit, len(got.Rows), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got.Rows[i].Verts, want[i].Verts) || !got.Rows[i].OK {
					t.Fatalf("limit %d: row %d = %+v, want the unlimited result's %v with its age", limit, i, got.Rows[i], want[i].Verts)
				}
			}
		}
	}
	g, moved := build(defaultShape)
	t.Run("read-only", func(t *testing.T) { check(t, g, moved, core.ReadOnly) })
	t.Run("read-write", func(t *testing.T) { check(t, g, moved, core.ReadWrite) })
	t.Run("cache=1", func(t *testing.T) {
		cold, moved := build(storeShape{blockSize: defaultShape.blockSize, cacheBlocks: 1})
		check(t, cold, moved, core.ReadOnly)
	})
}

// countRows counts the rows of r that carry dp.
func countRows(r *Result, dp fabric.DPtr) int {
	n := 0
	for _, row := range r.Rows {
		if row.Verts[0] == dp {
			n++
		}
	}
	return n
}
