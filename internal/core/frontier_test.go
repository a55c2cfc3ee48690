package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// referenceExpand is ExpandFrontier's contract spelled out on handles — the
// body the expansion had before it learned to read holders in place, kept
// here as the oracle the lean route is held to: associate everything, dedup
// by resolved ID, filter with Matches, harvest with ForEachNeighbor.
func referenceExpand(tx *Tx, frontier []rma.DPtr, mask DirMask, cons *constraint.Constraint) (matched, next []rma.DPtr, err error) {
	hs, err := tx.AssociateVertices(frontier)
	if err != nil {
		return nil, nil, err
	}
	var kept []*VertexHandle
	seenV := make(map[rma.DPtr]struct{})
	for i, h := range hs {
		if h == nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrNotFound, frontier[i])
		}
		if _, dup := seenV[h.ID()]; dup {
			continue
		}
		seenV[h.ID()] = struct{}{}
		if h.Matches(cons) {
			kept = append(kept, h)
			matched = append(matched, h.ID())
		}
	}
	seenN := make(map[rma.DPtr]struct{})
	for _, h := range kept {
		if mask == 0 {
			break
		}
		if err := h.ForEachNeighbor(mask, func(nb rma.DPtr) {
			if _, dup := seenN[nb]; !dup {
				seenN[nb] = struct{}{}
				next = append(next, nb)
			}
		}); err != nil {
			return nil, nil, err
		}
	}
	return matched, next, nil
}

// frontierGraph is a seeded engine for the expansion tests: small blocks
// (at 64 bytes properties alone overflow most holders into chains), a hub,
// heavy edges, and — after shake — vertices that live behind forwarding
// stubs.
type frontierGraph struct {
	e      *Engine
	person lpg.LabelID
	age    lpg.PTypeID
	since  lpg.PTypeID
	dps    []rma.DPtr // by application ID, as first created
}

const frontierVerts = 40

func newFrontierGraph(t *testing.T, ranks, blockSize, cacheBlocks int) *frontierGraph {
	t.Helper()
	g := &frontierGraph{e: NewEngine(rma.New(ranks), Config{BlockSize: blockSize, BlocksPerRank: 1 << 12, LockTries: 256, CacheCapacity: cacheBlocks})}
	g.person, _, g.age, _ = seedPersonSchema(t, g.e)
	g.since = payloadPType(t, g.e)
	rnd := rand.New(rand.NewSource(11))
	tx := g.e.StartLocal(0, ReadWrite)
	for app := uint64(0); app < frontierVerts; app++ {
		dp, err := tx.CreateVertex(app)
		if err != nil {
			t.Fatal(err)
		}
		g.dps = append(g.dps, dp)
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
		if app%3 == 0 { // a payload that pushes the entries past the primary block
			if err := h.AddProperty(g.since, payloadPattern(app, 9)); err != nil {
				t.Fatal(err)
			}
		}
	}
	edge := func(from, to int) {
		if from == to {
			return
		}
		var err error
		if rnd.Intn(6) == 0 { // a heavy edge: its far end is in the edge holder
			_, err = tx.CreateRichEdge(g.dps[from], g.dps[to], holder.DirOut, []lpg.LabelID{g.person},
				[]lpg.Property{{PType: g.since, Value: []byte{1}}})
		} else {
			_, err = tx.CreateEdge(g.dps[from], g.dps[to], holder.DirOut, g.person)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for app := 0; app < frontierVerts; app++ {
		for i := 0; i < 3; i++ {
			edge(app, rnd.Intn(frontierVerts))
		}
		edge(app, 1) // vertex 1 is everyone's neighbor: a hub of a dozen 64-byte blocks
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return g
}

// ageOver builds (Person && age >= over).
func (g *frontierGraph) ageOver(over uint64) *constraint.Constraint {
	c := constraint.New(g.e.Registry(0))
	i := c.AddSubconstraint(constraint.Subconstraint{})
	c.AddLabelCond(i, constraint.LabelCond{Label: g.person})
	c.AddPropCond(i, constraint.PropCond{PType: g.age, Datatype: lpg.TypeUint64, Op: constraint.OpGe, Operand: lpg.EncodeUint64(over)})
	return c
}

// TestExpandFrontierMatchesHandleWalk holds the expansion to its handle-based
// oracle — same matched IDs, same neighbors, same order — and every hop's
// harvest to the record-at-a-time walk over its arena (checkHarvest), in
// read-only transactions (over a cache that holds the graph and over a
// one-block cache that evicts on every install) and read-write ones, over
// 64- and 256-byte blocks, on frontiers with duplicates, before and after
// live migration leaves forwarding stubs behind some of the DPtrs the
// frontiers and the edge records still use. Every hop takes the lean route:
// only the vertices behind stubs reach AssociateVertices.
func TestExpandFrontierMatchesHandleWalk(t *testing.T) {
	tiers := []struct {
		name        string
		mode        Mode
		cacheBlocks int
	}{
		{"optimistic", ReadOnly, 1 << 10},
		{"optimistic-cache=1", ReadOnly, 1},
		{"read-write", ReadWrite, 1 << 10},
	}
	for _, blockSize := range []int{64, 256} {
		for _, tier := range tiers {
			t.Run(fmt.Sprintf("block=%d/%s", blockSize, tier.name), func(t *testing.T) {
				g := newFrontierGraph(t, 4, blockSize, tier.cacheBlocks)
				rnd := rand.New(rand.NewSource(5))
				pool := slices.Clone(g.dps)
				// round runs a dozen expansions; stubs is how many vertices
				// sit behind forwarding stubs by now — the only ones the lean
				// route may leave to the flush.
				round := func(stubs int) {
					for trial := 0; trial < 12; trial++ {
						frontier := make([]rma.DPtr, 1+rnd.Intn(2*frontierVerts))
						for i := range frontier {
							frontier[i] = pool[rnd.Intn(len(pool))]
						}
						mask := []DirMask{0, MaskOut, MaskIn, MaskAll}[trial%4]
						cons := []*constraint.Constraint{nil, g.ageOver(30), g.ageOver(0)}[trial%3]

						tx := g.e.StartLocal(rma.Rank(trial%4), tier.mode)
						matched, next, err := tx.ExpandFrontier(frontier, mask, cons)
						if err != nil {
							t.Fatal(err)
						}
						if len(tx.verts) > stubs {
							t.Fatalf("trial %d: the expansion materialized %d vertex states, want at most the %d behind stubs",
								trial, len(tx.verts), stubs)
						}
						if mask != 0 {
							checkHarvest(t, tx, mask, matched, next)
						}
						if err := tx.Commit(); err != nil {
							t.Fatal(err)
						}
						ref := g.e.StartLocal(rma.Rank(trial%4), tier.mode)
						wantM, wantN, err := referenceExpand(ref, frontier, mask, cons)
						if err != nil {
							t.Fatal(err)
						}
						ref.Abort()
						if !slices.Equal(matched, wantM) || !slices.Equal(next, wantN) {
							t.Fatalf("trial %d (mask %#x, %s, %d-vertex frontier):\nmatched %v\n   want %v\nnext %v\nwant %v",
								trial, mask, cons, len(frontier), matched, wantM, next, wantN)
						}
						if mask == 0 && next != nil {
							t.Fatalf("filter-only hop returned a next frontier: %v", next)
						}
					}
				}
				round(0)
				// Move a few vertices, the hub among them, one of them twice.
				// Frontiers now draw from stale and current DPtrs alike, so one
				// frontier can name a vertex under two IDs.
				for _, mv := range []struct {
					app  uint64
					dest rma.Rank
				}{{1, 0}, {6, 3}, {9, 2}, {6, 1}, {12, 3}} {
					pool = append(pool, mustMigrate(t, g.e, mv.app, mv.dest))
				}
				round(4)
			})
		}
	}
}

// TestExpandFrontierReportsVanishedVertex is the regression test of the
// nil-handle dereference: a frontier vertex deleted between two hops of an
// optimistic transaction used to crash the expansion (AssociateVertices
// reports it as a nil handle). It is a stale read set, and says so.
func TestExpandFrontierReportsVanishedVertex(t *testing.T) {
	e := NewEngine(rma.New(2), Config{BlockSize: 64, BlocksPerRank: 1 << 10, LockTries: 64})
	knows, err := e.DefineLabel("KNOWS")
	if err != nil {
		t.Fatal(err)
	}
	seed := e.StartLocal(0, ReadWrite)
	a, _ := seed.CreateVertex(2)
	b, _ := seed.CreateVertex(1)
	if _, err := seed.CreateEdge(a, b, holder.DirOut, knows); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := e.StartLocal(0, ReadOnly)
	defer tx.Abort()
	_, next, err := tx.ExpandFrontier([]rma.DPtr{a}, MaskAll, nil)
	if err != nil || !slices.Equal(next, []rma.DPtr{b}) {
		t.Fatalf("hop 1 = %v, %v, want [%v]", next, err, b)
	}
	del := e.StartLocal(1, ReadWrite)
	if err := del.DeleteVertex(b); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx.ExpandFrontier(next, MaskAll, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("hop 2 over a deleted vertex: %v, want ErrNotFound", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("commit of the stale read set: %v, want a validation abort", err)
	}

	// A read-write transaction reports its own deletions the same way.
	rw := e.StartLocal(0, ReadWrite)
	defer rw.Abort()
	if err := rw.DeleteVertex(a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rw.ExpandFrontier([]rma.DPtr{a}, 0, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expansion over a vertex this transaction deleted: %v, want ErrNotFound", err)
	}
}

// TestFilterHopFetchesPropertyPrefixOnly is the traffic contract of a
// filter-only hop over multi-block holders: with a cold cache it GETs one
// block per remote frontier vertex — the one its labels and properties sit
// in — in one train, where a harvesting hop reads every chain to its end;
// warm, neither GETs anything. Both filter-only hops keep it, each on an
// engine of its own (a cold cache): ExpandFrontier with mask 0 and
// FilterFrontier without a LIMIT.
func TestFilterHopFetchesPropertyPrefixOnly(t *testing.T) {
	for _, route := range []string{"ExpandFrontier", "FilterFrontier"} {
		t.Run(route, func(t *testing.T) { filterHopFetchesPropertyPrefixOnly(t, route == "FilterFrontier") })
	}
}

// filterHopFetchesPropertyPrefixOnly holds the contract on a fresh engine;
// its filter hop is FilterFrontier when viaFilterFrontier, and ExpandFrontier
// with mask 0 otherwise.
func filterHopFetchesPropertyPrefixOnly(t *testing.T, viaFilterFrontier bool) {
	e := NewEngine(rma.New(2), Config{
		BlockSize: 128, BlocksPerRank: 1 << 12, LockTries: 64, CacheCapacity: 1 << 11,
	})
	_, knows, age, _ := seedPersonSchema(t, e)
	const n, fan = 24, 60
	seed := e.StartLocal(0, ReadWrite)
	var frontier []rma.DPtr
	blocks := 0
	for i := 0; i < n; i++ {
		center, err := seed.CreateVertex(uint64(1 + 2*i)) // odd IDs below 1000: rank 1
		if err != nil {
			t.Fatal(err)
		}
		h, _ := seed.AssociateVertex(center)
		if err := h.AddProperty(age, lpg.EncodeUint64(uint64(20+i))); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < fan; j++ {
			// Leaves alternate between the ranks, which defeats the delta
			// encoding: eight bytes a record, a chain of four or five blocks.
			leaf, err := seed.CreateVertex(uint64(1000 + i*fan + j))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := seed.CreateEdge(center, leaf, holder.DirOut, knows); err != nil {
				t.Fatal(err)
			}
		}
		frontier = append(frontier, center)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	look := e.StartLocal(1, ReadOnly)
	for _, dp := range frontier {
		h, err := look.AssociateVertex(dp)
		if err != nil {
			t.Fatal(err)
		}
		blocks += h.st.view.NumBlocks()
	}
	look.Abort()
	if blocks < 3*n {
		t.Fatalf("frontier holders average %d/%d blocks, want chains of at least 3", blocks, n)
	}
	cons := constraint.New(e.Registry(0))
	cons.AddPropCond(cons.AddSubconstraint(constraint.Subconstraint{}), constraint.PropCond{
		PType: age, Datatype: lpg.TypeUint64, Op: constraint.OpGe, Operand: lpg.EncodeUint64(30)})

	gets := func(mask DirMask) (remote, trains int64, matched []rma.DPtr) {
		before := e.Fabric().TotalSnapshot()
		tx := e.StartLocal(0, ReadOnly)
		var err error
		if mask == 0 && viaFilterFrontier {
			matched, _, err = tx.FilterFrontier(frontier, nil, cons, 0, 0)
		} else {
			matched, _, err = tx.ExpandFrontier(frontier, mask, cons)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		after := e.Fabric().TotalSnapshot()
		return after.RemoteGets - before.RemoteGets, after.GetBatches - before.GetBatches, matched
	}
	remote, trains, matched := gets(0)
	if len(matched) != n-10 {
		t.Fatalf("filter matched %d vertices, want %d", len(matched), n-10)
	}
	if remote != n || trains != 1 {
		t.Fatalf("cold filter hop: %d remote GETs in %d trains, want %d (one block per vertex, not the %d of the chains) in 1", remote, trains, n, blocks)
	}
	if remote, _, _ := gets(0); remote != 0 {
		t.Fatalf("warm filter hop issued %d remote GETs, want 0", remote)
	}
	// The harvest needs the edges: everything but the cached primaries.
	if remote, _, _ := gets(MaskAll); remote != int64(blocks-n) {
		t.Fatalf("harvesting hop after the filter: %d remote GETs, want the %d uncached chain blocks", remote, blocks-n)
	}
	if remote, _, _ := gets(MaskAll); remote != 0 {
		t.Fatalf("warm harvesting hop issued %d remote GETs, want 0", remote)
	}
}

// TestExpandFrontierJoinsTheReadSet: what the lean route reads is validated
// at commit like any optimistic read — one (vertex, version) pair per
// frontier vertex, checked in the commit's stamp train — and what it cannot
// read consistently goes to the flush with its retry budget: a vertex whose
// guard a writer holds throughout exhausts it.
func TestExpandFrontierJoinsTheReadSet(t *testing.T) {
	g := newFrontierGraph(t, 2, 64, 1<<10)
	frontier := g.dps[:10]

	tx := g.e.StartLocal(0, ReadOnly)
	if _, _, err := tx.ExpandFrontier(frontier, 0, g.ageOver(0)); err != nil {
		t.Fatal(err)
	}
	if len(tx.optReads) != len(frontier) {
		t.Fatalf("read set of %d entries after a %d-vertex hop", len(tx.optReads), len(frontier))
	}
	w := g.e.StartLocal(1, ReadWrite)
	h, err := w.AssociateVertex(frontier[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetProperty(g.age, lpg.EncodeUint64(99)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	aborts := g.e.OptimisticAborts()
	if err := tx.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("commit after a frontier vertex was rewritten: %v, want a validation abort", err)
	}
	if got := g.e.OptimisticAborts(); got != aborts+1 {
		t.Fatalf("OptimisticAborts = %d, want %d", got, aborts+1)
	}

	word := g.e.lockWordOf(frontier[5])
	vers, held := locks.AcquireWriteTrainEach(1, []locks.TrainLock{{Word: word}}, 64)
	if !held[0] {
		t.Fatal("could not write-lock a frontier vertex")
	}
	stuck := g.e.StartLocal(0, ReadOnly)
	if _, _, err := stuck.ExpandFrontier(frontier, MaskAll, nil); !errors.Is(err, ErrTxCritical) || !errors.Is(err, locks.ErrContended) {
		t.Fatalf("expansion over a write-held vertex: %v, want the flush's contention abort", err)
	}
	stuck.Abort()
	locks.ReleaseWriteTrain(1, []locks.Word{word}, vers)
	free := g.e.StartLocal(0, ReadOnly)
	if _, _, err := free.ExpandFrontier(frontier, MaskAll, nil); err != nil {
		t.Fatal(err)
	}
	if err := free.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestExpandFrontierReadsLocalFollowers: a frontier vertex this rank holds a
// follower copy of is served by it, and validated against its primary.
func TestExpandFrontierReadsLocalFollowers(t *testing.T) {
	_, e := newReplicaEngine(t, 2)
	dpA, dpV, _ := seedTwoHopGraph(t, e, 8)
	fr := otherRank(dpV, 2)
	if n := e.ReplicateFromRank(fr, dpV.Rank(), 2); n != 1 {
		t.Fatalf("ReplicateFromRank seeded %d copies, want 1", n)
	}
	tx := e.StartLocal(fr, ReadOnly)
	base := e.ReplicaReads()
	before := e.Fabric().TotalSnapshot()
	matched, _, err := tx.ExpandFrontier([]rma.DPtr{dpA, dpV}, MaskAll, nil)
	if err != nil || !slices.Equal(matched, []rma.DPtr{dpA, dpV}) {
		t.Fatalf("matched %v, %v", matched, err)
	}
	if got := e.ReplicaReads(); got != base+1 {
		t.Fatalf("ReplicaReads = %d, want %d", got, base+1)
	}
	if d := e.Fabric().TotalSnapshot().RemoteGets - before.RemoteGets; d != 0 {
		t.Fatalf("follower-served hop issued %d remote GETs, want 0", d)
	}
	if i := slices.IndexFunc(tx.optReads, func(r optRead) bool { return r.dp == dpV }); i < 0 {
		t.Fatalf("read set %v does not name the primary %v", tx.optReads, dpV)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestExpandFrontierCoherenceStress runs the lean route against concurrent
// writers. Every vertex carries a bit twice — in its primary block and, behind
// a bulky filler, three blocks further on — and a writer always flips both in
// one commit, so a predicate asking for the two to differ matches nothing in
// any committed state: a match is a torn holder the seqlock let through.
// Expansions that validate at commit must also have seen every vertex. It
// runs over a cache that holds every holder, where most reads are stamped
// cache hits, and over a one-block cache, where nearly every read comes off
// the wire while the writers run.
func TestExpandFrontierCoherenceStress(t *testing.T) {
	for _, cacheBlocks := range []int{512, 1} {
		t.Run(fmt.Sprintf("cache=%d", cacheBlocks), func(t *testing.T) {
			expandFrontierCoherenceStress(t, cacheBlocks)
		})
	}
}

func expandFrontierCoherenceStress(t *testing.T, cacheBlocks int) {
	const (
		ranks   = 2
		keys    = 8
		writers = 2
		readers = 2
		rounds  = 150
		// maxRounds caps a writer's rounds while it waits for the readers.
		maxRounds = 100 * rounds
	)

	e := NewEngine(rma.New(ranks), Config{BlockSize: 64, BlocksPerRank: 1 << 12, LockTries: 256, CacheCapacity: cacheBlocks})
	_, _, head, _ := seedPersonSchema(t, e)
	filler := payloadPType(t, e)
	tail, err := e.DefinePType("tail", metadata.PTypeSpec{Datatype: lpg.TypeUint64, SizeType: lpg.SizeFixed, Limit: 8})
	if err != nil {
		t.Fatal(err)
	}
	seed := e.StartLocal(0, ReadWrite)
	dps := make([]rma.DPtr, keys)
	for i := range dps {
		dps[i], _ = seed.CreateVertex(uint64(i))
		h, _ := seed.AssociateVertex(dps[i])
		for _, p := range []lpg.Property{{PType: head, Value: lpg.EncodeUint64(0)}, {PType: filler, Value: make([]byte, 150)}, {PType: tail, Value: lpg.EncodeUint64(0)}} {
			if err := h.AddProperty(p.PType, p.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	differ := constraint.New(e.Registry(0))
	for bit := uint64(0); bit < 2; bit++ {
		i := differ.AddSubconstraint(constraint.Subconstraint{})
		differ.AddPropCond(i, constraint.PropCond{PType: head, Datatype: lpg.TypeUint64, Op: constraint.OpEq, Operand: lpg.EncodeUint64(bit)})
		differ.AddPropCond(i, constraint.PropCond{PType: tail, Datatype: lpg.TypeUint64, Op: constraint.OpEq, Operand: lpg.EncodeUint64(1 - bit)})
	}

	// Writers flip at least rounds times and then on until every reader has
	// validated an expansion while they were still writing; readers read for
	// as long as any writer writes. A writer that reaches maxRounds gives up,
	// and the test fails: the readers starved.
	var (
		wg        sync.WaitGroup
		writing   atomic.Int32 // writers still flipping
		satisfied atomic.Int32 // readers that validated an expansion mid-write
	)
	writing.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Add(-1)
			rng := rand.New(rand.NewSource(int64(w) + 3))
			for i := 0; i < rounds || satisfied.Load() < readers; i++ {
				if i == maxRounds {
					return
				}
				tx := e.StartLocal(rma.Rank(w%ranks), ReadWrite)
				h, err := tx.AssociateVertex(dps[rng.Intn(keys)])
				if err == nil {
					cur, _ := h.Property(head)
					flipped := lpg.EncodeUint64(1 - lpg.DecodeUint64(cur))
					if err = h.SetProperty(head, flipped); err == nil {
						err = h.SetProperty(tail, flipped)
					}
				}
				if err == nil {
					err = tx.Commit()
				}
				tx.Abort()
				if err != nil && !errors.Is(err, ErrTxCritical) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			counted := false
			for i := 0; writing.Load() > 0; i++ {
				tx := e.StartLocal(rma.Rank(r%ranks), ReadOnly)
				torn, _, err := tx.ExpandFrontier(dps, DirMask(i%2)*MaskAll, differ)
				var all []rma.DPtr
				if err == nil {
					all, _, err = tx.ExpandFrontier(dps, 0, nil)
				}
				if err == nil {
					err = tx.Commit()
				}
				tx.Abort()
				switch {
				case errors.Is(err, ErrTxCritical):
				case err != nil:
					t.Error(err)
					return
				case len(torn) != 0 || len(all) != keys:
					t.Errorf("validated expansion saw %d torn vertices and %d of %d vertices", len(torn), len(all), keys)
					return
				case !counted && writing.Load() == writers:
					// No writer can stop before this reader is counted, so
					// every writer was still writing when it validated.
					counted = true
					satisfied.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()
	if n := satisfied.Load(); n < readers {
		t.Fatalf("%d of %d readers validated an expansion while the writers wrote, in %d rounds a writer: the readers starved", n, readers, maxRounds)
	}
}

// TestDPtrTableSpreadsRanks holds the frontier's hash table to short probes
// on keys that differ only in their rank bits: the same block offsets
// 1..1024 on ranks 0..3, as a hop's frontier and neighbor sets hold them.
// The mean linear-probe distance from a key's home slot to its slot must
// stay at most 0.5; a home slot taken from product bits below the rank bits
// files all four ranks' offset k under one home and averages above 1.5.
func TestDPtrTableSpreadsRanks(t *testing.T) {
	const ranks, offs = 4, 1024
	var tab dptrTable[struct{}]
	tab.reset(ranks * offs)
	var keys []rma.DPtr
	for r := 0; r < ranks; r++ {
		for off := uint64(1); off <= offs; off++ {
			keys = append(keys, rma.MakeDPtr(rma.Rank(r), off))
		}
	}
	for _, k := range keys {
		if _, dup := tab.getOrPut(k, struct{}{}); dup {
			t.Fatalf("key %v reported as a duplicate", k)
		}
	}
	pos := make(map[rma.DPtr]uint64, len(keys))
	for i, s := range tab.slots {
		if !s.key.IsNull() {
			pos[s.key] = uint64(i)
		}
	}
	mask := uint64(len(tab.slots) - 1)
	steps := 0
	for _, k := range keys {
		at, ok := pos[k]
		if !ok {
			t.Fatalf("key %v lost", k)
		}
		steps += int((at - tab.home(k)) & mask)
	}
	mean := float64(steps) / float64(len(keys))
	t.Logf("%d keys in %d slots: mean probe distance %.3f", len(keys), len(tab.slots), mean)
	if mean > 0.5 {
		t.Fatalf("mean probe distance %.3f over %d keys, want at most 0.5", mean, len(keys))
	}
}

// TestLimitHopRecordsWhatItReads is the white-box side of the LIMIT hop's
// cost: a LIMIT 5 final round (FilterNeighbors) over 8 hubs harvests 10 400
// edge records, two for each of 5 200 vertices on stub-free ranks, into the
// hop's paged bitmap and reads its candidates off the bits. It gives a
// record only to the vertices it read, each read OK: at most 6×LIMIT, since
// its first chunk of 2×LIMIT candidates, the youngest vertices, matches
// nothing and the next one is twice as large (a chunk sized from a match
// rate of one in the 2×LIMIT read made it 20×LIMIT). No slice of the arena
// grows to the layer (cands holds the hubs, next the decode of one hub's
// run at a time); the read set grows by the hubs, the vertices read and one
// forwarding-word entry per rank with unread candidates, not by the
// vertices left unread; and the hop's set holds no page after the hop's
// clear.
func TestLimitHopRecordsWhatItReads(t *testing.T) {
	const limit, hubs, degree = 5, 8, 1300
	e, layer, cons := newPersonFrontier(t, 256, 5200)
	frontier := addHubs(t, e, layer, hubs, degree, false)
	tx := e.StartLocal(0, ReadOnly)
	defer tx.Abort()
	matched, _, err := tx.FilterNeighbors(frontier, nil, MaskOut, frontier, cons, limit, 0)
	if err != nil || len(matched) < limit {
		t.Fatalf("LIMIT %d round: %d matched, %v", limit, len(matched), err)
	}
	sc := tx.frontier
	for name, c := range map[string]int{
		"cands": cap(sc.cands), "verts": cap(sc.verts), "next": cap(sc.next), "pick": cap(sc.pick),
		"matched": cap(sc.matched), "resolving": cap(sc.resolving), "items": cap(sc.items), "found": len(sc.found.slots),
	} {
		if c >= len(layer)/2 {
			t.Fatalf("the arena's %s grew to %d for a layer of %d", name, c, len(layer))
		}
	}
	if n := len(sc.verts); n == 0 || n > 6*limit {
		t.Fatalf("the hop made %d records, want between 1 and %d", n, 6*limit)
	}
	for i, v := range sc.verts {
		if v.verdict != readOK || v.h != nil {
			t.Fatalf("record %d (%v): verdict %d, handle %v; want only vertices read OK", i, v.head, v.verdict, v.h != nil)
		}
	}
	if !slices.Equal(sc.stubFree, []bool{true, true}) {
		t.Fatalf("stub-free ranks %v, want both: neither ever held a stub", sc.stubFree)
	}
	words := 0
	for _, rd := range tx.optReads {
		if rd.dp == block.ForwardingGuard(rd.dp.Rank()) {
			words++
		}
	}
	if want := hubs + len(sc.verts) + words; words == 0 || len(tx.optReads) != want || cap(tx.optReads) > 4*want {
		t.Fatalf("read set of %d entries (capacity %d), want the %d hubs, %d vertices read and %d forwarding words, without room for the unread",
			len(tx.optReads), cap(tx.optReads), hubs, len(sc.verts), words)
	}
	t.Logf("%d records, %d read-set entries (capacity %d)", len(sc.verts), len(tx.optReads), cap(tx.optReads))
	if n := len(sc.seen.pages); n != 0 {
		t.Fatalf("%d pages of the hop's set left after the hop", n)
	}
	want := referenceFilter(t, tx, layer, nil, cons)
	slices.Sort(matched)
	if !slices.Equal(matched[:limit], want[:limit]) {
		t.Fatalf("LIMIT %d round returned %v, want the %d smallest matches %v", limit, matched, limit, want[:limit])
	}
}

// addHubs commits hubs vertices on top of newPersonFrontier's, hub j with an
// out-edge to each of the degree layer vertices from j·len(layer)/hubs on,
// wrapping around, and returns them. The edges are created in layer order,
// or, ascending, in DPtr order, so that each hub holds one ascending run.
func addHubs(t *testing.T, e *Engine, layer []rma.DPtr, hubs, degree int, ascending bool) []rma.DPtr {
	t.Helper()
	seed := e.StartLocal(0, ReadWrite)
	out := make([]rma.DPtr, hubs)
	for j := range out {
		dp, err := seed.CreateVertex(uint64(len(layer) + j))
		if err != nil {
			t.Fatal(err)
		}
		out[j] = dp
		targets := make([]rma.DPtr, degree)
		for k := range targets {
			targets[k] = layer[(j*len(layer)/hubs+k)%len(layer)]
		}
		if ascending {
			slices.Sort(targets)
		}
		for _, to := range targets {
			if _, err := seed.CreateEdge(dp, to, holder.DirOut, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLimitHopDecodesBelowItsBound is the count contract of the resumable
// harvest. A LIMIT 5 final round (FilterNeighbors) over 8 hubs of 1 300
// out-edges each, created in ascending DPtr order (10 400 edge records, one
// ascending run per hub), less an exclude set, decodes fewer than a tenth of
// the records on stub-free ranks, where each candidate is known by its DPtr
// and the round raises its bound only as far as its reads need candidates.
// It decodes all of them in a transaction that has written, which sees the
// vertices it holds through their handles, and after a migration has left a
// forwarding stub on an owner rank, where a candidate's ID may sort
// anywhere. Every round returns the 5 smallest matches, leaves no page of
// the hop's set and no run paused, and a read-only one commits.
func TestLimitHopDecodesBelowItsBound(t *testing.T) {
	const limit, hubs, degree = 5, 8, 1300
	e, layer, cons := newPersonFrontier(t, 256, 5200)
	frontier := addHubs(t, e, layer, hubs, degree, true)
	mark, err := e.DefineLabel("Marked")
	if err != nil {
		t.Fatal(err)
	}
	var exclude []rma.DPtr
	for i := 0; i < len(layer); i += 7 {
		exclude = append(exclude, layer[i])
	}
	exclude = append(exclude, frontier...)
	round := func(t *testing.T, mode Mode, all bool) {
		tx := e.StartLocal(0, mode)
		defer tx.Abort()
		sc := new(frontierScratch)
		tx.frontier = sc
		if mode == ReadWrite {
			h, err := tx.AssociateVertex(layer[len(layer)-1])
			if err == nil {
				err = h.AddLabel(mark)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		got, _, err := tx.FilterNeighbors(frontier, nil, MaskOut, exclude, cons, limit, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceFilter(t, tx, layer, exclude, cons)
		slices.Sort(got)
		if len(got) < limit || !slices.Equal(got[:limit], want[:limit]) {
			t.Fatalf("LIMIT %d round returned %v, want the %d smallest matches %v", limit, got, limit, want[:limit])
		}
		decoded := tx.DecodedRecords()
		t.Logf("%d of %d edge records decoded", decoded, hubs*degree)
		if all && decoded != hubs*degree || !all && decoded >= hubs*degree/10 {
			t.Fatalf("the round decoded %d of %d edge records, want all: %v", decoded, hubs*degree, all)
		}
		if len(sc.fed.paused) != 0 {
			t.Fatalf("%d runs still paused after the round", len(sc.fed.paused))
		}
		if n := len(sc.seen.pages); n != 0 {
			t.Fatalf("%d pages of the hop's set left after the round", n)
		}
		if mode == ReadOnly {
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
	}
	t.Run("stub-free", func(t *testing.T) { round(t, ReadOnly, false) })
	t.Run("wrote", func(t *testing.T) { round(t, ReadWrite, true) })
	mustMigrate(t, e, 31, 1-layer[31].Rank())
	t.Run("stub", func(t *testing.T) { round(t, ReadOnly, true) })
}

// TestFilterHopRejectsNegativeLimit: a negative limit is a bad argument to
// either filter hop, as it is to query.Validate, not a hop that reads no
// candidate; the same hops with limit 0 return every match.
func TestFilterHopRejectsNegativeLimit(t *testing.T) {
	e, layer, cons := newPersonFrontier(t, 256, 120)
	hub := addHubs(t, e, layer, 1, len(layer), false)
	tx := e.StartLocal(0, ReadOnly)
	defer tx.Abort()
	hops := map[string]func(limit int) ([]rma.DPtr, error){
		"FilterFrontier": func(limit int) ([]rma.DPtr, error) {
			got, _, err := tx.FilterFrontier(layer, nil, cons, limit, 0)
			return got, err
		},
		"FilterNeighbors": func(limit int) ([]rma.DPtr, error) {
			got, _, err := tx.FilterNeighbors(hub, nil, MaskOut, hub, cons, limit, 0)
			return got, err
		},
	}
	want := referenceFilter(t, tx, layer, nil, cons)
	for name, hop := range hops {
		for _, limit := range []int{-1, -20} {
			if got, err := hop(limit); !errors.Is(err, ErrBadArgument) {
				t.Errorf("%s with limit %d: %d IDs, %v; want ErrBadArgument", name, limit, len(got), err)
			}
		}
		got, err := hop(0)
		if err != nil {
			t.Fatalf("%s with limit 0: %v", name, err)
		}
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Errorf("%s with limit 0 returned %d IDs, want the %d matches", name, len(got), len(want))
		}
	}
}

// referenceFilter is the filter hop's contract on handles: the distinct IDs,
// sorted, of the vertices of frontier that exclude does not name and that
// satisfy cons (referenceExpand with mask 0).
func referenceFilter(t *testing.T, tx *Tx, frontier, exclude []rma.DPtr, cons *constraint.Constraint) []rma.DPtr {
	t.Helper()
	rest := slices.DeleteFunc(slices.Clone(frontier), func(dp rma.DPtr) bool { return slices.Contains(exclude, dp) })
	if len(rest) == 0 {
		return nil
	}
	matched, _, err := referenceExpand(tx, rest, 0, cons)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(matched)
	return matched
}

// TestFilterHopsMatchNaive holds the filter hops to the handle walk
// (referenceFilter). A FilterFrontier over a layer less an exclude set, and
// a harvest-fed FilterNeighbors over hubs whose out-edges reach it, at LIMIT
// 1, 5, 40 and none: the limit smallest IDs are the reference's, every ID is
// one of the reference's, none twice, and a read-only transaction commits.
// Each runs over two shapes: hubs whose edges were created in DPtr order,
// one ascending run per hub, which a LIMIT harvest pauses, and hubs whose
// edges follow the layer's creation order, which alternates ranks, so that
// their runs are too short to pause (the list route is handed the layer
// sorted, and in creation order). Each runs read-only and read-write, having
// rewritten a vertex so that it now matches and another so that it no
// longer does (and then aborted, so that the stored vertices stay as they
// were), first on stub-free ranks, then after a migration has left a stub
// on one, whose candidates the hop then stamps. A read-only LIMIT round over
// the ascending hubs on stub-free ranks decodes fewer than all their
// records: the oracle reaches the paused runs.
func TestFilterHopsMatchNaive(t *testing.T) {
	const hubs, degree = 4, 300
	e, layer, cons := newPersonFrontier(t, 256, 600)
	hubsOf := map[bool][]rma.DPtr{true: addHubs(t, e, layer, hubs, degree, true), false: addHubs(t, e, layer, hubs, degree, false)}
	frontierOf := map[bool][]rma.DPtr{true: slices.Sorted(slices.Values(layer)), false: layer}
	pt, _ := e.Registry(0).PTypeByName("age")
	// The rewritten vertices: the non-matching one with the smallest DPtr,
	// which the transaction's own write puts among the smallest matches,
	// and the matching one with the smallest DPtr, which it drops from them.
	var young, old []rma.DPtr
	for i, dp := range layer {
		if i%90 < 30 {
			young = append(young, dp)
		} else {
			old = append(old, dp)
		}
	}
	rewrite := map[rma.DPtr]uint64{slices.Min(young): 89, slices.Min(old): 0}
	var exclude []rma.DPtr
	for i := 0; i < len(layer); i += 7 {
		exclude = append(exclude, layer[i])
	}
	check := func(t *testing.T, stubFree, ascending bool, mode Mode, route string, limit int) {
		tx := e.StartLocal(0, mode)
		defer tx.Abort()
		sc := new(frontierScratch)
		tx.frontier = sc
		if mode == ReadWrite {
			for dp, age := range rewrite {
				h, err := tx.AssociateVertex(dp)
				if err == nil {
					err = h.SetProperty(pt.ID, lpg.EncodeUint64(age))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		var got, want []rma.DPtr
		var err error
		switch hub := hubsOf[ascending]; route {
		case "list":
			got, _, err = tx.FilterFrontier(frontierOf[ascending], exclude, cons, limit, 0)
			want = referenceFilter(t, tx, layer, exclude, cons)
		case "harvest":
			got, _, err = tx.FilterNeighbors(hub, nil, MaskOut, append(slices.Clip(hub), exclude...), cons, limit, 0)
			decoded := tx.DecodedRecords()
			_, next, rerr := referenceExpand(tx, hub, MaskOut, nil)
			if rerr != nil {
				t.Fatal(rerr)
			}
			want = referenceFilter(t, tx, next, append(slices.Clip(hub), exclude...), cons)
			if ascending && stubFree && mode == ReadOnly && limit > 0 && decoded >= hubs*degree {
				t.Fatalf("the round decoded %d of %d edge records, want fewer", decoded, hubs*degree)
			}
		}
		if err != nil {
			t.Fatalf("%s hop: %v", route, err)
		}
		slices.Sort(got)
		if len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Fatalf("the hop returned %v: an ID twice", got)
		}
		for _, id := range got {
			if _, ok := slices.BinarySearch(want, id); !ok {
				t.Fatalf("the hop returned %v, which is not a match of the reference", id)
			}
		}
		keep := len(want)
		if limit > 0 {
			keep = min(limit, keep)
		}
		if len(got) < keep || !slices.Equal(got[:keep], want[:keep]) {
			t.Fatalf("the hop's %d smallest IDs %v, want the reference's %v", keep, got[:min(keep, len(got))], want[:keep])
		}
		if n := len(sc.seen.pages); n != 0 {
			t.Fatalf("%d pages of the hop's set left after the hop", n)
		}
		if mode == ReadOnly {
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
	}
	sweep := func(stubFree bool) func(t *testing.T) {
		return func(t *testing.T) {
			for _, ascending := range []bool{true, false} {
				for _, mode := range []Mode{ReadOnly, ReadWrite} {
					for _, route := range []string{"list", "harvest"} {
						for _, limit := range []int{1, 5, 40, 0} {
							t.Run(fmt.Sprintf("ascending=%v/mode=%d/%s/limit=%d", ascending, mode, route, limit), func(t *testing.T) {
								check(t, stubFree, ascending, mode, route, limit)
							})
						}
					}
				}
			}
		}
	}
	t.Run("stub-free", sweep(true))
	// A matching vertex moves to the other rank: its old DPtr is a stub the
	// hubs' edges still name.
	const moved = 31
	mustMigrate(t, e, moved, 1-layer[moved].Rank())
	t.Run("stub", sweep(false))
}
