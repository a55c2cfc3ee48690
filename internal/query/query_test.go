package query

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// testGraph is one deterministic engine + seeded graph the executors run
// over.
type testGraph struct {
	e      *core.Engine
	person lpg.LabelID
	age    lpg.PTypeID
	verts  []fabric.DPtr // by appID
}

const graphVerts = 48

// hubApp is the extra vertex newTestGraph adds on request: a hub whose holder
// spans at least four blocks — a bulky property and eight parallel edges to
// each of eight vertices whose ranks alternate, so that the neighbor deltas
// stay wide. It is one hop from those eight and two from most of
// the graph, so 2-hop patterns meet it in their last frontier.
const hubApp = graphVerts

// storeShape is the block size and per-rank cache capacity a test graph is
// stored with. The block size decides how long each holder's chain is; a
// one-block cache evicts on every install, so nearly every read comes off
// the wire.
type storeShape struct {
	blockSize, cacheBlocks int
}

var defaultShape = storeShape{blockSize: 256, cacheBlocks: 1 << 10}

// newTestGraph seeds a fixed pseudo-random graph: every vertex gets an age,
// even appIDs get the Person label, and each vertex sends three outgoing
// edges drawn from a fixed-seed stream (self-loops skipped, parallel edges
// possible — the dedup paths must cope).
func newTestGraph(t *testing.T, ranks int, shape storeShape, replicas int, hub bool) *testGraph {
	t.Helper()
	e := core.NewEngine(rma.New(ranks), core.Config{
		BlockSize:     shape.blockSize,
		BlocksPerRank: 1 << 12,
		LockTries:     256,
		CacheCapacity: shape.cacheBlocks,
	})
	g := &testGraph{e: e}
	var err error
	if g.person, err = e.DefineLabel("Person"); err != nil {
		t.Fatal(err)
	}
	if g.age, err = e.DefinePType("age", metadata.PTypeSpec{Datatype: lpg.TypeUint64}); err != nil {
		t.Fatal(err)
	}
	bio, err := e.DefinePType("bio", metadata.PTypeSpec{Datatype: lpg.TypeBytes})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(7))
	tx := e.StartLocal(0, core.ReadWrite)
	g.verts = make([]fabric.DPtr, graphVerts, graphVerts+1)
	if hub {
		g.verts = g.verts[:graphVerts+1]
	}
	for app := uint64(0); app < uint64(len(g.verts)); app++ {
		dp, err := tx.CreateVertex(app)
		if err != nil {
			t.Fatal(err)
		}
		g.verts[app] = dp
		h, err := tx.AssociateVertex(dp)
		if err != nil {
			t.Fatal(err)
		}
		if app%2 == 0 {
			if err := h.AddLabel(g.person); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.AddProperty(g.age, lpg.EncodeUint64(app*7%90)); err != nil {
			t.Fatal(err)
		}
	}
	for app := 0; app < graphVerts; app++ {
		for i := 0; i < 3; i++ {
			to := rnd.Intn(graphVerts)
			if to == app {
				continue
			}
			if _, err := tx.CreateEdge(g.verts[app], g.verts[to], holder.DirOut, g.person); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hub {
		h, err := tx.AssociateVertex(g.verts[hubApp])
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AddProperty(bio, make([]byte, 400)); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 8; round++ {
			for to := 1; to < graphVerts; to += 6 {
				if _, err := tx.CreateEdge(g.verts[hubApp], g.verts[to], holder.DirOut, g.person); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if hub {
		primary := make([]byte, shape.blockSize)
		e.Store().ReadBlock(0, g.verts[hubApp], primary)
		if nb := holder.NumBlocks(primary); nb < 4 {
			t.Fatalf("hub holder spans %d blocks, want at least 4", nb)
		}
	}
	if replicas > 1 {
		for r := 0; r < ranks; r++ {
			g.e.ReplicateUniform(fabric.Rank(r), replicas)
		}
	}
	return g
}

// ageOver builds (Person && age >= over) as a DNF constraint.
func (g *testGraph) ageOver(over uint64) *constraint.Constraint {
	c := constraint.New(g.e.Registry(0))
	i := c.AddSubconstraint(constraint.Subconstraint{})
	c.AddLabelCond(i, constraint.LabelCond{Label: g.person})
	c.AddPropCond(i, constraint.PropCond{
		PType: g.age, Datatype: lpg.TypeUint64,
		Op: constraint.OpGe, Operand: lpg.EncodeUint64(over),
	})
	return c
}

// runBoth executes p compiled and naive in fresh transactions of the given
// mode and requires bit-identical results, and each of the compiled plan's
// expansions to give what the per-vertex reference expansion gives on its
// transaction.
func runBoth(t *testing.T, g *testGraph, mode core.Mode, src fabric.DPtr, p *Pattern) *Result {
	t.Helper()
	txC := g.e.StartLocal(0, mode)
	defer txC.Abort()
	// Run, with every expansion checked against the per-vertex reference
	// expansion on the same transaction.
	ex := compiled(txC)
	expand := ex.expand
	ex.expand = func(frontier []fabric.DPtr, mask core.DirMask, cons *constraint.Constraint) (matched, next []fabric.DPtr, err error) {
		if matched, next, err = expand(frontier, mask, cons); err != nil {
			return nil, nil, err
		}
		kept, wantN, err := naiveHop(txC, frontier, nil, mask, cons)
		wantM := ids(kept)
		if err != nil || !slices.Equal(matched, wantM) || !slices.Equal(next, wantN) {
			t.Fatalf("hop over %v (mask %#x): matched %v, next %v; the reference: %v, %v, %v", frontier, mask, matched, next, wantM, wantN, err)
		}
		return matched, next, nil
	}
	compiled, err := run(src, p, ex)
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	txN := g.e.StartLocal(0, mode)
	defer txN.Abort()
	naive, err := RunNaive(txN, src, p)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	if !reflect.DeepEqual(compiled, naive) {
		t.Fatalf("compiled and naive results diverge:\ncompiled: %+v\nnaive:    %+v", compiled, naive)
	}
	return compiled
}

// patternsUnderTest enumerates every shape the golden tier pins: k-hop for
// k=1..3 with and without predicates/limit/projection, triangle plain,
// constrained and projected, and 2/3-edge simple paths with per-hop masks,
// one projected.
func patternsUnderTest(g *testGraph) map[string]*Pattern {
	out := MaskOut(core.MaskOut)
	all := MaskOut(core.MaskAll)
	return map[string]*Pattern{
		"1hop-out":        {Kind: KHop, Hops: []Hop{out}},
		"2hop-all":        {Kind: KHop, Hops: []Hop{all, all}},
		"3hop-out":        {Kind: KHop, Hops: []Hop{out, out, out}},
		"2hop-pred":       {Kind: KHop, Hops: []Hop{all, {Mask: core.MaskAll, Cons: g.ageOver(30)}}},
		"2hop-limit-proj": {Kind: KHop, Hops: []Hop{all, all}, Limit: 5, Project: g.age, HasProject: true},
		"triangle":        {Kind: Triangle},
		"triangle-pred":   {Kind: Triangle, Hops: []Hop{{Mask: core.MaskAll, Cons: g.ageOver(10)}}},
		"triangle-proj":   {Kind: Triangle, Limit: 3, Project: g.age, HasProject: true},
		"path-2":          {Kind: Path, Hops: []Hop{out, all}},
		"path-2-proj":     {Kind: Path, Hops: []Hop{out, all}, Project: g.age, HasProject: true},
		"path-3-pred":     {Kind: Path, Hops: []Hop{all, {Mask: core.MaskAll, Cons: g.ageOver(20)}, out}, Limit: 50},
	}
}

// MaskOut wraps a bare mask as an unconstrained hop.
func MaskOut(m core.DirMask) Hop { return Hop{Mask: m} }

// TestGoldenEquivalence is the executors' contract: every query shape,
// bit-identical between the compiled plan and the naive reference, with and
// without replicas, over 64-byte blocks and over 256-byte ones, which lay the
// same holders out as longer or shorter chains — in an optimistic read-only
// transaction (the lean frontier route), again in a locking read-write one,
// and again over a one-block cache. The graph carries a
// hub of four or more blocks that 2-hop patterns meet in their last
// frontier, and the last pass runs after a last-hop vertex has migrated from
// the highest rank to rank 0: the edge records still hold its old DPtr, and
// its new ID sorts ahead of every other row. The early-stop case runs LIMIT
// over a last frontier of forwarding stubs (goldenEarlyStop).
func TestGoldenEquivalence(t *testing.T) {
	const ranks = 4
	twoHop := []Hop{MaskOut(core.MaskAll), MaskOut(core.MaskAll)}
	// sweep runs every pattern under test from a spread of sources.
	sweep := func(t *testing.T, g *testGraph, mode core.Mode) {
		for name, p := range patternsUnderTest(g) {
			t.Run(name, func(t *testing.T) {
				for src := uint64(0); src < graphVerts; src += 7 {
					runBoth(t, g, mode, g.verts[src], p)
				}
			})
		}
	}
	// limits cuts 2-hop results at, around and far below their row count,
	// with the projection that turns the kept rows into handles, and checks
	// the hub was among the vertices the last hop had to filter.
	limits := func(t *testing.T, g *testGraph, mode core.Mode) {
		hubLast := false
		for src := uint64(0); src < graphVerts; src += 5 {
			all := runBoth(t, g, mode, g.verts[src], &Pattern{Kind: KHop, Hops: twoHop})
			for _, r := range all.Rows {
				hubLast = hubLast || r.Verts[0] == g.verts[hubApp]
			}
			for _, limit := range []int{1, 5, len(all.Rows), len(all.Rows) + 1} {
				if limit == 0 {
					continue // 0 means unlimited
				}
				got := runBoth(t, g, mode, g.verts[src], &Pattern{Kind: KHop, Hops: twoHop, Limit: limit, Project: g.age, HasProject: true})
				want := all.Rows[:min(limit, len(all.Rows))]
				if len(got.Rows) != len(want) {
					t.Fatalf("src %d limit %d: %d rows, want %d", src, limit, len(got.Rows), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got.Rows[i].Verts, want[i].Verts) || !got.Rows[i].OK {
						t.Fatalf("src %d limit %d: row %d = %+v, want the unlimited result's %v with its age", src, limit, i, got.Rows[i], want[i].Verts)
					}
				}
			}
		}
		if !hubLast {
			t.Fatal("no 2-hop query met the hub in its last frontier")
		}
	}
	for _, blockSize := range []int{64, 256} {
		for _, replicas := range []int{1, 3} {
			t.Run(fmt.Sprintf("block=%d/replicas=%d", blockSize, replicas), func(t *testing.T) {
				goldenPasses(t, ranks, storeShape{blockSize: blockSize, cacheBlocks: defaultShape.cacheBlocks}, replicas, sweep, limits)
			})
		}
	}
	t.Run("early-stop", func(t *testing.T) { goldenEarlyStop(t, ranks) })
}

// goldenPasses is one TestGoldenEquivalence configuration: the sweep and the
// limits, read-only and read-write, again over a one-block cache, and — when
// nothing is replicated — once more after a migration.
func goldenPasses(t *testing.T, ranks int, shape storeShape, replicas int, sweep, limits func(*testing.T, *testGraph, core.Mode)) {
	g := newTestGraph(t, ranks, shape, replicas, true)
	sweep(t, g, core.ReadOnly)
	t.Run("limits", func(t *testing.T) { limits(t, g, core.ReadOnly) })
	t.Run("read-write", func(t *testing.T) {
		sweep(t, g, core.ReadWrite)
		limits(t, g, core.ReadWrite)
	})
	t.Run("cache=1", func(t *testing.T) {
		cold := newTestGraph(t, ranks, storeShape{blockSize: shape.blockSize, cacheBlocks: 1}, replicas, true)
		sweep(t, cold, core.ReadOnly)
		limits(t, cold, core.ReadOnly)
	})
	if replicas > 1 {
		return // replicated vertices are pinned in place: nothing to migrate
	}
	t.Run("after-migration", func(t *testing.T) {
		// Move a rank-3 vertex to rank 0. Rank is the DPtr's high
		// bits, so among the vertices without the Person label —
		// the odd ones, on ranks 1 and 3 — it now sorts first,
		// while its neighbors' edge records still name the stub.
		moved := uint64(ranks - 1)
		n, err := g.e.MigrateVertices(0, []core.MigrationMove{{App: moved, Old: g.verts[moved], Dest: 0}})
		if err != nil || n != 1 {
			t.Fatalf("migration of vertex %d: moved %d, %v", moved, n, err)
		}
		look := g.e.StartLocal(0, core.ReadOnly)
		current, err := look.TranslateVertexID(moved)
		look.Abort()
		if err != nil || current.Rank() != 0 {
			t.Fatalf("vertex %d after migration: %v, %v", moved, current, err)
		}
		notPerson := constraint.New(g.e.Registry(0))
		notPerson.AddLabelCond(notPerson.AddSubconstraint(constraint.Subconstraint{}), constraint.LabelCond{Label: g.person, Absent: true})
		odd := []Hop{MaskOut(core.MaskAll), {Mask: core.MaskAll, Cons: notPerson}}
		first := 0
		for src := uint64(0); src < graphVerts; src++ {
			all := runBoth(t, g, core.ReadOnly, g.verts[src], &Pattern{Kind: KHop, Hops: odd})
			one := runBoth(t, g, core.ReadOnly, g.verts[src], &Pattern{Kind: KHop, Hops: odd, Limit: 1, Project: g.age, HasProject: true})
			for _, r := range all.Rows {
				if r.Verts[0] == g.verts[moved] {
					t.Fatalf("src %d: a row carries the stale DPtr %v", src, r.Verts[0])
				}
				if r.Verts[0] == current {
					if one.Rows[0].Verts[0] != current {
						t.Fatalf("src %d: LIMIT 1 kept %v, want the migrated vertex %v", src, one.Rows[0].Verts[0], current)
					}
					first++
				}
			}
		}
		if first == 0 {
			t.Fatal("no 2-hop query met the migrated vertex in its last frontier")
		}
		sweep(t, g, core.ReadOnly)
		limits(t, g, core.ReadOnly)
		t.Run("read-write", func(t *testing.T) { sweep(t, g, core.ReadWrite) })
	})
}

// TestRunReportsVanishedVertexLikeNaive is the query-level regression test of
// the nil-handle dereference in ExpandFrontier: a pattern rooted at a vertex
// that has since been deleted used to crash the compiled executor where the
// naive one reports ErrNotFound. They agree now.
func TestRunReportsVanishedVertexLikeNaive(t *testing.T) {
	g := newTestGraph(t, 2, defaultShape, 1, false)
	victim := g.verts[5]
	del := g.e.StartLocal(0, core.ReadWrite)
	if err := del.DeleteVertex(victim); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	for name, p := range patternsUnderTest(g) {
		for exec, run := range map[string]func(*core.Tx, fabric.DPtr, *Pattern) (*Result, error){"compiled": Run, "naive": RunNaive} {
			tx := g.e.StartLocal(0, core.ReadOnly)
			if _, err := run(tx, victim, p); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("%s, %s executor over a deleted source: %v, want ErrNotFound", name, exec, err)
			}
			tx.Abort()
		}
	}
}

// TestKHopSemantics pins the BFS-layer meaning of KHop on a hand-built
// line-with-branch graph: 0 -> 1 -> 2 -> 3 and 0 -> 2.
func TestKHopSemantics(t *testing.T) {
	e := core.NewEngine(rma.New(2), core.Config{
		BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 64,
	})
	person, err := e.DefineLabel("Person")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.StartLocal(0, core.ReadWrite)
	dps := make([]fabric.DPtr, 4)
	for i := uint64(0); i < 4; i++ {
		if dps[i], err = tx.CreateVertex(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, edge := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		if _, err := tx.CreateEdge(dps[edge[0]], dps[edge[1]], holder.DirOut, person); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	ro := e.StartLocal(0, core.ReadOnly)
	defer ro.Abort()
	// Hop 2 out of 0: layer 1 = {1, 2}, so layer 2 = {3} (2 is not
	// re-reported even though it is also two hops away via 1).
	res, err := Run(ro, dps[0], &Pattern{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Verts[0] != dps[3] {
		t.Fatalf("2-hop rows = %+v, want exactly [3]", res.Rows)
	}
	// Triangle 0-1-2 closes; rows carry (src, b, c) with b < c.
	tri, err := Run(ro, dps[0], &Pattern{Kind: Triangle})
	if err != nil {
		t.Fatal(err)
	}
	if len(tri.Rows) != 1 || len(tri.Rows[0].Verts) != 3 || tri.Rows[0].Verts[0] != dps[0] {
		t.Fatalf("triangle rows = %+v, want one (0,b,c) row", tri.Rows)
	}
	// Paths of length 2 from 0: 0-1-2 and 0-2-3 (simple, so 0-2-... cannot
	// revisit 0).
	paths, err := Run(ro, dps[0], &Pattern{Kind: Path, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths.Rows) != 2 {
		t.Fatalf("2-edge paths = %+v, want 2 rows", paths.Rows)
	}
}

// TestCompiledExpansionBatchesTrains is the one-train-per-rank-per-hop
// counter assertion at unit scale. The fabric counts a remote GET train once
// in GetBatches however many blocks it carries, and an optimistic read's
// GETs always ride guarded trains (each loads the guard word around its
// blocks), so the contract reads directly off the counters: the compiled
// plan's frontier rounds ride at most one GET train per remote rank per
// association round (and at least one train total), while the naive
// per-vertex walk pays one train per block it GETs — it never vectors two
// blocks into one train. Each executor runs on a fresh copy of the graph,
// so both start from a cold block cache.
func TestCompiledExpansionBatchesTrains(t *testing.T) {
	const ranks = 4
	g, gN := newTestGraph(t, ranks, defaultShape, 1, false), newTestGraph(t, ranks, defaultShape, 1, false)
	p := &Pattern{Kind: KHop, Hops: []Hop{{Mask: core.MaskAll}, {Mask: core.MaskAll}}}

	base := g.e.Fabric().TotalSnapshot()
	tx := g.e.StartLocal(0, core.ReadOnly)
	res, err := Run(tx, g.verts[1], p)
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	mid := g.e.Fabric().TotalSnapshot()

	baseN := gN.e.Fabric().TotalSnapshot()
	txN := gN.e.StartLocal(0, core.ReadOnly)
	resN, err := RunNaive(txN, gN.verts[1], p)
	if err != nil {
		t.Fatal(err)
	}
	txN.Abort()
	end := gN.e.Fabric().TotalSnapshot()

	if len(res.Rows) == 0 || !reflect.DeepEqual(res, resN) {
		t.Fatalf("executors diverged or empty: %d vs %d rows", len(res.Rows), len(resN.Rows))
	}
	// 3 association rounds (src, layer 1, layer 2), at most one GET train
	// per remote rank each; the single-vertex src round goes scalar, so the
	// bound is loose on purpose.
	maxTrains := int64((len(p.Hops) + 1) * (ranks - 1))
	trains := mid.GetBatches - base.GetBatches
	if trains < 1 || trains > maxTrains {
		t.Fatalf("compiled 2-hop issued %d GET trains, want 1..%d", trains, maxTrains)
	}
	ng := end.RemoteGets - baseN.RemoteGets
	if ng == 0 {
		t.Fatal("naive walk issued no remote gets — graph too local to compare")
	}
	if nt := end.GetBatches - baseN.GetBatches; nt != ng {
		t.Fatalf("naive walk issued %d GET trains for %d remote GETs, want one train per block", nt, ng)
	}
	if trains >= ng {
		t.Fatalf("compiled 2-hop issued %d GET trains, the naive walk %d: no batching", trains, ng)
	}
}

// TestPatternValidate holds Validate to the patterns the executors can run:
// each accepted pattern passes, and each rejected one fails with
// ErrBadPattern. The accepted ones cover all three kinds, predicates,
// projection, limits and the MaxHops bound itself.
func TestPatternValidate(t *testing.T) {
	pred := &constraint.Constraint{
		Version: 42,
		Subs: []constraint.Subconstraint{
			{
				Labels: []constraint.LabelCond{{Label: 3}, {Label: 9, Absent: true}},
				Props: []constraint.PropCond{{
					PType: 1, Datatype: 2, Op: constraint.OpGe, Operand: []byte{1, 2, 3, 4},
				}},
			},
			{Props: []constraint.PropCond{{PType: 7, Op: constraint.OpExists}}},
		},
	}
	hops := func(n int) []Hop {
		out := make([]Hop, n)
		for i := range out {
			out[i] = Hop{Mask: core.MaskOut}
		}
		return out
	}
	good := map[string]*Pattern{
		"khop one hop":              {Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}}},
		"khop predicate and limit":  {Kind: KHop, Hops: []Hop{{Mask: core.MaskAll}, {Mask: core.MaskIn, Cons: pred}}, Limit: 20},
		"triangle no hop spec":      {Kind: Triangle},
		"triangle one hop spec":     {Kind: Triangle, Hops: []Hop{{Mask: core.MaskAll, Cons: pred}}},
		"path projection and limit": {Kind: Path, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskUndirected}, {Mask: core.MaskAll, Cons: pred}}, Limit: 5, Project: 11, HasProject: true},
		"khop at MaxHops":           {Kind: KHop, Hops: hops(MaxHops)},
	}
	bad := map[string]*Pattern{
		"khop no hops":             {Kind: KHop},
		"path no hops":             {Kind: Path},
		"unknown kind":             {Kind: Kind(77), Hops: []Hop{{Mask: core.MaskOut}}},
		"zero mask":                {Kind: KHop, Hops: []Hop{{Mask: 0}}},
		"zero mask on a later hop": {Kind: Path, Hops: []Hop{{Mask: core.MaskOut}, {Mask: 0}}},
		"out-of-range mask":        {Kind: KHop, Hops: []Hop{{Mask: 0x80}}},
		"negative limit":           {Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}}, Limit: -1},
		"triangle two hop specs":   {Kind: Triangle, Hops: hops(2)},
		"khop over MaxHops":        {Kind: KHop, Hops: hops(MaxHops + 1)},
	}
	for name, p := range good {
		t.Run("accepts/"+name, func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate rejected %+v: %v", p, err)
			}
		})
	}
	for name, p := range bad {
		t.Run("rejects/"+name, func(t *testing.T) {
			if err := p.Validate(); !errors.Is(err, ErrBadPattern) {
				t.Fatalf("Validate of %+v: %v, want ErrBadPattern", p, err)
			}
		})
	}
}
