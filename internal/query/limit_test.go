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
		BlocksPerRank: 1 << 13,
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
func wideFan(t *testing.T) *fanGraph { return wideFanOf(t, 520) }

// wideFanOf is wideFan with the given number of leaves, a multiple of four.
func wideFanOf(t *testing.T, leaves int) *fanGraph {
	const hubs = 4
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

// TestLimitHopLoadsWhatItReads is the count contract of the LIMIT hop on a
// rank that never held a forwarding stub: over wideFan's 520 leaves and over
// 5 200, a LIMIT 5 final hop and its commit load at most 2 guard words per
// owner rank plus 3 per vertex read — the rank's forwarding word at the hop
// and again at Commit, and a vertex's guard ahead of its read, behind it and
// at Commit — so the same number at both widths, where a stamp of the whole
// frontier loaded one per frontier vertex and Commit another. Commit loads
// the forwarding word in the load train it already sends the rank: one train.
func TestLimitHopLoadsWhatItReads(t *testing.T) {
	const limit, owners = 5, 1
	var loads [2]int64
	for k, width := range []int{520, 5200} {
		g := wideFanOf(t, width)
		p := &Pattern{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut, Cons: g.ageOver(30)}}, Limit: limit}
		fab := g.e.Fabric()
		before := fab.TotalSnapshot()
		tx := g.e.StartLocal(0, core.ReadOnly)
		res, err := Run(tx, g.src, p)
		if err != nil {
			t.Fatal(err)
		}
		mid := fab.TotalSnapshot()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		after := fab.TotalSnapshot()
		if len(res.Rows) != limit {
			t.Fatalf("width %d: %d rows, want %d", width, len(res.Rows), limit)
		}
		read := mid.RemoteGets + mid.CacheHits - before.RemoteGets - before.CacheHits
		loads[k] = after.RemoteAtoms - before.RemoteAtoms
		if bound := 2*owners + 3*read; loads[k] > bound || read > 8*limit {
			t.Fatalf("width %d: the hop read %d vertices and, with its commit, loaded %d guard words, want at most %d reads and %d words",
				width, read, loads[k], 8*limit, bound)
		}
		if trains := after.AtomicBatches - mid.AtomicBatches; trains != owners {
			t.Fatalf("width %d: Commit sent %d load trains, want one per owner rank", width, trains)
		}
		if commit := after.RemoteAtoms - mid.RemoteAtoms; commit > owners+read {
			t.Fatalf("width %d: Commit loaded %d words, want at most the forwarding word and the %d vertices read", width, commit, read)
		}
		t.Logf("width %d: %d vertices read, %d guard words loaded (%d at Commit)", width, read, loads[k], after.RemoteAtoms-mid.RemoteAtoms)
	}
	if loads[0] != loads[1] {
		t.Fatalf("a LIMIT hop and its commit loaded %d guard words over 520 vertices and %d over 5 200, want the same", loads[0], loads[1])
	}
}

// TestProjectionCostsNoRead is the count contract of the projection: the
// friends pattern — two hops, age ≥ 30 at the last, LIMIT 20, and the
// filter-all route without a LIMIT — run and committed from rank 0 over
// wideFan's leaves on rank 1, puts the same traffic on the fabric with the
// age projected as without, in Run and in Commit alike: the same trains,
// guard loads, GETs, cache hits and bytes. The final round hands back the
// value of each row it has read and matched, so building the rows reads
// nothing, and the read set, which Commit loads entry by entry, holds each
// row once. Each run has a graph of its own, so both start from a cold
// cache. The rows are the same, each with its age.
func TestProjectionCostsNoRead(t *testing.T) {
	for _, limit := range []int{20, 0} {
		type cost struct{ run, commit fabric.Snapshot }
		measure := func(project bool) (cost, *Result) {
			g := wideFan(t)
			p := &Pattern{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut, Cons: g.ageOver(30)}},
				Limit: limit, Project: g.age, HasProject: project}
			fab := g.e.Fabric()
			before := fab.TotalSnapshot()
			tx := g.e.StartLocal(0, core.ReadOnly)
			res, err := Run(tx, g.src, p)
			if err != nil {
				t.Fatal(err)
			}
			mid := fab.TotalSnapshot()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			return cost{since(mid, before), since(fab.TotalSnapshot(), mid)}, res
		}
		plain, rows := measure(false)
		projected, prows := measure(true)
		if plain != projected {
			t.Fatalf("LIMIT %d: the pattern cost\n%+v\nwithout a projection and\n%+v\nwith one", limit, plain, projected)
		}
		if plain.run.RemoteGets == 0 || len(rows.Rows) == 0 || len(prows.Rows) != len(rows.Rows) {
			t.Fatalf("LIMIT %d: %d remote GETs, %d rows and %d projected rows: the pattern reads no remote row", limit, plain.run.RemoteGets, len(rows.Rows), len(prows.Rows))
		}
		for i, row := range prows.Rows {
			if !row.OK || len(row.Prop) != 8 || lpg.DecodeUint64(row.Prop) < 30 || !reflect.DeepEqual(row.Verts, rows.Rows[i].Verts) {
				t.Fatalf("LIMIT %d: projected row %d is %+v, the plain one %+v", limit, i, row, rows.Rows[i])
			}
		}
		t.Logf("LIMIT %d, with and without the projection: Run %+v, Commit %+v", limit, plain.run, plain.commit)
	}
}

// since returns the counters of after less those of before.
func since(after, before fabric.Snapshot) fabric.Snapshot {
	a, b := reflect.ValueOf(&after).Elem(), reflect.ValueOf(before)
	for i := range a.NumField() {
		a.Field(i).SetInt(a.Field(i).Int() - b.Field(i).Int())
	}
	return after
}

// TestLimitEarlyStopValidatesUnread: the vertices a LIMIT hop stopped before
// reading are in the read set through their rank's forwarding word, at 0:
// wideFan's leaf rank has never held a stub. A migration of one of them
// between Run and Commit publishes a stub there and fails Commit with a
// transaction-critical error: the last leaf ("migrate"), or a matching leaf
// that moves below every vertex the hop read and so belongs in the result
// ("migrate-below"). So does the first stub on the rank, of a vertex that is
// not in the frontier at all ("first-stub"). A rewrite of an unread leaf
// commits: the leaf's ID, which is all the hop's result depends on, stays
// above every row the hop returned, so the transaction serializes at its
// commit with the same rows. Left alone, Commit succeeds.
func TestLimitEarlyStopValidatesUnread(t *testing.T) {
	for _, interfere := range []string{"none", "migrate", "migrate-below", "first-stub", "rewrite"} {
		t.Run(interfere, func(t *testing.T) {
			g := wideFan(t)
			p := &Pattern{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut, Cons: g.ageOver(30)}}, Limit: 5}
			tx := g.e.StartLocal(0, core.ReadOnly)
			defer tx.Abort()
			before := g.e.Fabric().TotalSnapshot()
			res, err := Run(tx, g.src, p)
			if err != nil {
				t.Fatal(err)
			}
			if gets := g.e.Fabric().TotalSnapshot().RemoteGets - before.RemoteGets; gets >= int64(len(g.leaves)) {
				t.Fatalf("the hop read %d holders: it did not stop early", gets)
			}
			migrate := func(app uint64, old fabric.DPtr) {
				t.Helper()
				if n, err := g.e.MigrateVertices(0, []core.MigrationMove{{App: app, Old: old, Dest: 0}}); err != nil || n != 1 {
					t.Fatalf("migration of vertex %d: moved %d, %v", app, n, err)
				}
			}
			// The last leaf sorts after every other: the hop never read it.
			last := len(g.leaves) - 1
			switch interfere {
			case "migrate":
				migrate(leafBase+uint64(2*last+1), g.leaves[last])
			case "migrate-below":
				// The last matching leaf but one: rank 0 takes it below
				// every leaf, so a fresh run returns it first.
				i := last - 1
				for i*7%90 < 30 {
					i--
				}
				migrate(leafBase+uint64(2*i+1), g.leaves[i])
				fresh := g.e.StartLocal(0, core.ReadOnly)
				now, err := RunNaive(fresh, g.src, p)
				fresh.Abort()
				if err != nil || now.Rows[0].Verts[0].Rank() != 0 || reflect.DeepEqual(now, res) {
					t.Fatalf("after the move a fresh run returns %+v (%v), want the moved leaf first", now, err)
				}
			case "first-stub":
				w := g.e.StartLocal(1, core.ReadWrite)
				app := leafBase + uint64(2*len(g.leaves)+1)
				dp, err := w.CreateVertex(app)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
				if dp.Rank() != 1 {
					t.Fatalf("vertex %d created on rank %d, want the leaves' rank 1", app, dp.Rank())
				}
				migrate(app, dp)
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
			err = tx.Commit()
			switch interfere {
			case "none", "rewrite":
				if err != nil {
					t.Fatalf("commit after a %s of an unread frontier vertex: %v", interfere, err)
				}
			default:
				if !errors.Is(err, core.ErrTxCritical) {
					t.Fatalf("commit after a %s: %v, want ErrTxCritical", interfere, err)
				}
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
// second hub under its new DPtr, so the frontier names it twice. In the
// "mixed" store only the first of those moves happened: rank 3 holds a stub
// and ranks 1 and 2 none, so one last frontier has vertices the hop stamps
// and vertices their ranks' forwarding words vouch for.
func goldenEarlyStop(t *testing.T, ranks int) {
	// Leaf i goes to rank i%3 + 1: a leaf's index picks its rank.
	leafApp := func(i int) uint64 { return uint64(ranks*(i/3) + i%3 + 1) }
	const low, high, twice = 5, 6, 7 // on ranks 3, 1 and 2, aged 35, 42 and 49
	type move struct {
		leaf int
		dest fabric.Rank
	}
	every := []move{{low, 0}, {high, 3}, {twice, 1}}
	build := func(shape storeShape, moves []move) (*fanGraph, []fabric.DPtr) {
		g := newFanGraph(t, ranks, shape, leafApp, span(0, 60), span(55, 70))
		var moved []fabric.DPtr
		for _, mv := range moves {
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
			moved = append(moved, cur)
		}
		if len(moves) == len(every) {
			tx := g.e.StartLocal(0, core.ReadWrite)
			if _, err := tx.CreateEdge(g.fans[1], moved[2], holder.DirOut, g.person); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return g, moved
	}
	check := func(t *testing.T, g *fanGraph, moved []fabric.DPtr, mode core.Mode) {
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
	g, moved := build(defaultShape, every)
	t.Run("read-only", func(t *testing.T) { check(t, g, moved, core.ReadOnly) })
	t.Run("read-write", func(t *testing.T) { check(t, g, moved, core.ReadWrite) })
	t.Run("cache=1", func(t *testing.T) {
		cold, moved := build(storeShape{blockSize: defaultShape.blockSize, cacheBlocks: 1}, every)
		check(t, cold, moved, core.ReadOnly)
	})
	t.Run("mixed", func(t *testing.T) {
		mixed, moved := build(defaultShape, every[:1])
		check(t, mixed, moved, core.ReadOnly)
		check(t, mixed, moved, core.ReadWrite)
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
