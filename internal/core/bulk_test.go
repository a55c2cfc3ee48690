package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// referenceLoadEdges is the loader BulkLoadEdges replaced — two scalar index
// lookups per edge, no de-duplication — kept as the oracle the batched
// resolve is checked against. Routing and merge are the engine's own.
func referenceLoadEdges(e *Engine, rank fabric.Rank, specs []EdgeSpec) error {
	out := make([][]recDelivery, e.fab.Size())
	for _, sp := range specs {
		oRaw, ok := e.index.Lookup(rank, sp.OriginApp)
		if !ok {
			return fmt.Errorf("%w: bulk edge origin %d", ErrNotFound, sp.OriginApp)
		}
		tRaw, ok := e.index.Lookup(rank, sp.TargetApp)
		if !ok {
			return fmt.Errorf("%w: bulk edge target %d", ErrNotFound, sp.TargetApp)
		}
		o, t := fabric.DPtr(oRaw), fabric.DPtr(tRaw)
		back := holder.DirIn
		if sp.Dir == holder.DirUndirected {
			back = holder.DirUndirected
		}
		out[o.Rank()] = append(out[o.Rank()], recDelivery{V: o, Rec: holder.EdgeRec{Neighbor: t, Dir: sp.Dir, Label: sp.Label}})
		if o == t && sp.Dir == holder.DirUndirected {
			continue
		}
		out[t.Rank()] = append(out[t.Rank()], recDelivery{V: t, Rec: holder.EdgeRec{Neighbor: o, Dir: back, Label: sp.Label}})
	}
	err := e.mergeEdges(rank, collective.Alltoall(e.comm, rank, out))
	e.comm.Barrier(rank)
	return err
}

// windowLog is a transport that remembers every window allocated through it,
// so a test can compare two engines' entire one-sided state: block payloads,
// free lists, lock words, and the DHT's table and heap. It also counts the
// round trips issued through those windows: every remote operation, scalar
// or train, is one.
type windowLog struct {
	fabric.Transport
	bytes []fabric.ByteWin
	words []fabric.WordWin
	trips atomic.Int64
}

func (w *windowLog) NewByteWin(segSize int) fabric.ByteWin {
	win := tripByteWin{w.Transport.NewByteWin(segSize), &w.trips}
	w.bytes = append(w.bytes, win)
	return win
}

func (w *windowLog) NewWordWin(nWords int) fabric.WordWin {
	win := tripWordWin{w.Transport.NewWordWin(nWords), &w.trips}
	w.words = append(w.words, win)
	return win
}

// trip counts one round trip when an operation of n elements crosses ranks.
func trip(trips *atomic.Int64, origin, target fabric.Rank, n int) {
	if origin != target && n > 0 {
		trips.Add(1)
	}
}

// tripByteWin is a byte window that counts its round trips.
type tripByteWin struct {
	fabric.ByteWin
	trips *atomic.Int64
}

func (w tripByteWin) Put(origin, target fabric.Rank, off int, data []byte) {
	trip(w.trips, origin, target, 1)
	w.ByteWin.Put(origin, target, off, data)
}

func (w tripByteWin) Get(origin, target fabric.Rank, off int, buf []byte) {
	trip(w.trips, origin, target, 1)
	w.ByteWin.Get(origin, target, off, buf)
}

func (w tripByteWin) GetBatch(origin, target fabric.Rank, ops []fabric.GetOp) {
	trip(w.trips, origin, target, len(ops))
	w.ByteWin.GetBatch(origin, target, ops)
}

func (w tripByteWin) PutBatch(origin, target fabric.Rank, ops []fabric.PutOp) {
	trip(w.trips, origin, target, len(ops))
	w.ByteWin.PutBatch(origin, target, ops)
}

func (w tripByteWin) GuardedGetBatch(origin, target fabric.Rank, guard fabric.WordWin, ops []fabric.GuardedGetOp) {
	trip(w.trips, origin, target, len(ops))
	if g, ok := guard.(tripWordWin); ok {
		guard = g.WordWin
	}
	w.ByteWin.GuardedGetBatch(origin, target, guard, ops)
}

// tripWordWin is a word window that counts its round trips.
type tripWordWin struct {
	fabric.WordWin
	trips *atomic.Int64
}

func (w tripWordWin) Load(origin, target fabric.Rank, idx int) uint64 {
	trip(w.trips, origin, target, 1)
	return w.WordWin.Load(origin, target, idx)
}

func (w tripWordWin) Store(origin, target fabric.Rank, idx int, val uint64) {
	trip(w.trips, origin, target, 1)
	w.WordWin.Store(origin, target, idx, val)
}

func (w tripWordWin) CAS(origin, target fabric.Rank, idx int, old, new uint64) (uint64, bool) {
	trip(w.trips, origin, target, 1)
	return w.WordWin.CAS(origin, target, idx, old, new)
}

func (w tripWordWin) LoadBatch(origin, target fabric.Rank, idxs []int) []uint64 {
	trip(w.trips, origin, target, len(idxs))
	return w.WordWin.LoadBatch(origin, target, idxs)
}

func (w tripWordWin) CASBatch(origin, target fabric.Rank, ops []fabric.CASOp) []fabric.CASResult {
	trip(w.trips, origin, target, len(ops))
	return w.WordWin.CASBatch(origin, target, ops)
}

func (w tripWordWin) FetchAdd(origin, target fabric.Rank, idx int, delta uint64) uint64 {
	trip(w.trips, origin, target, 1)
	return w.WordWin.FetchAdd(origin, target, idx, delta)
}

// dump reads every rank's segment of every window.
func (w *windowLog) dump() (bytes [][]byte, words [][]uint64) {
	for r := 0; r < w.Size(); r++ {
		rank := fabric.Rank(r)
		for _, win := range w.bytes {
			buf := make([]byte, win.SegSize())
			win.Get(rank, rank, 0, buf)
			bytes = append(bytes, buf)
		}
		for _, win := range w.words {
			idxs := make([]int, win.Words())
			for i := range idxs {
				idxs[i] = i
			}
			words = append(words, win.LoadBatch(rank, rank, idxs))
		}
	}
	return bytes, words
}

// bulkTestGraph is a small graph with everything the loader has to get right:
// labels and properties, hubs whose holders span many blocks, all three
// directions, duplicate edges and self-loops. Specs are dealt to the ranks
// that contribute them, not to the owners.
func bulkTestGraph(ranks, vertices, edges int, label lpg.LabelID, ptype lpg.PTypeID) (vs [][]VertexSpec, es [][]EdgeSpec) {
	rng := rand.New(rand.NewSource(11))
	vs, es = make([][]VertexSpec, ranks), make([][]EdgeSpec, ranks)
	for i := 0; i < vertices; i++ {
		sp := VertexSpec{AppID: uint64(i) * 3}
		if i%2 == 0 {
			sp.Labels = []lpg.LabelID{label}
		}
		if i%3 == 0 {
			sp.Props = []lpg.Property{{PType: ptype, Value: []byte(fmt.Sprintf("vertex-%d", i))}}
		}
		r := rng.Intn(ranks)
		vs[r] = append(vs[r], sp)
	}
	for i := 0; i < edges; i++ {
		o, t := rng.Intn(vertices), rng.Intn(vertices)
		if i%4 == 0 {
			o = rng.Intn(4) // hubs
		}
		if i%97 == 0 {
			t = o // self-loop
		}
		sp := EdgeSpec{OriginApp: uint64(o) * 3, TargetApp: uint64(t) * 3, Dir: holder.Direction(i % 3), Label: label}
		r := rng.Intn(ranks)
		es[r] = append(es[r], sp)
	}
	return vs, es
}

// TestBulkLoadEdgesMatchesReferenceLoader is the golden test of the batched
// loader: against the per-edge-lookup oracle it must leave every window of
// every rank — block pool, lock words, DHT — and the vertex shards
// identical, with and without HTAP snapshots, over 64- and 128-byte blocks.
func TestBulkLoadEdgesMatchesReferenceLoader(t *testing.T) {
	const ranks = 4
	for _, tc := range []struct {
		name      string
		blockSize int
		htap      bool
	}{
		{"block=64/plain", 64, false},
		{"block=64/htap", 64, true},
		{"block=128/plain", 128, false},
		{"block=128/htap", 128, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type loaded struct {
				log *windowLog
				e   *Engine
			}
			load := func(edges func(*Engine, fabric.Rank, []EdgeSpec) error) loaded {
				log := &windowLog{Transport: rma.New(ranks)}
				e := NewEngine(log, Config{
					BlockSize: tc.blockSize, BlocksPerRank: 1 << 12,
					// Two buckets per rank: every lookup walks a long chain.
					DHTBucketsPerRank: 2, DHTEntriesPerRank: 256,
					HTAPSnapshots: tc.htap,
				})
				label, _ := e.DefineLabel("L")
				ptype, _ := e.DefinePType("p", metadata.PTypeSpec{Datatype: lpg.TypeString})
				vs, es := bulkTestGraph(ranks, 300, 3000, label, ptype)
				e.fab.Run(func(r rma.Rank) {
					if err := e.BulkLoadVertices(r, vs[r]); err != nil {
						t.Error(err)
						return
					}
					if err := edges(e, r, es[r]); err != nil {
						t.Error(err)
					}
				})
				return loaded{log, e}
			}
			got := load((*Engine).BulkLoadEdges)
			want := load(referenceLoadEdges)
			if t.Failed() {
				return
			}
			gotBytes, gotWords := got.log.dump()
			wantBytes, wantWords := want.log.dump()
			if !reflect.DeepEqual(gotBytes, wantBytes) {
				t.Error("byte windows (block payloads) differ from the reference loader's")
			}
			if !reflect.DeepEqual(gotWords, wantWords) {
				t.Error("word windows (free lists, lock words, DHT) differ from the reference loader's")
			}
			total := 0
			for r := 0; r < ranks; r++ {
				rank := fabric.Rank(r)
				if g, w := got.e.LocalVertexCount(rank), want.e.LocalVertexCount(rank); g != w {
					t.Errorf("rank %d: %d local vertices, reference has %d", r, g, w)
				}
				total += got.e.LocalVertexCount(rank)
			}
			if total != 300 || got.e.index.Len(0) != 300 {
				t.Errorf("loaded %d vertices, %d index entries, want 300 each", total, got.e.index.Len(0))
			}
		})
	}
}

// TestBulkLoadEdgesInBatchesAppendsBehindStoredRecords loads the edges of
// bulkTestGraph in three collective batches, so every batch after the first
// merges into holders that already store records. After each batch every
// vertex's records must be exactly those its endpoints' specs so far name
// (an oracle computed from the specs alone), and the records stored before
// the batch must still lead, unchanged, in their stored order.
func TestBulkLoadEdgesInBatchesAppendsBehindStoredRecords(t *testing.T) {
	const ranks, vertices, batches = 4, 300, 3
	for _, bs := range []int{64, 512} {
		t.Run(fmt.Sprintf("block=%d", bs), func(t *testing.T) {
			e := NewEngine(rma.New(ranks), Config{BlockSize: bs, BlocksPerRank: 1 << 12})
			label, _ := e.DefineLabel("L")
			ptype, _ := e.DefinePType("p", metadata.PTypeSpec{Datatype: lpg.TypeString})
			vs, es := bulkTestGraph(ranks, vertices, 3000, label, ptype)
			e.fab.Run(func(r rma.Rank) {
				if err := e.BulkLoadVertices(r, vs[r]); err != nil {
					t.Error(err)
				}
			})
			if t.Failed() {
				return
			}
			primary := func(app uint64) fabric.DPtr {
				raw, ok := e.index.Lookup(0, app)
				if !ok {
					t.Fatalf("vertex %d is not indexed", app)
				}
				return fabric.DPtr(raw)
			}
			want := make(map[uint64][]holder.EdgeRec)
			stored := make(map[uint64][]holder.EdgeRec)
			for b := range batches {
				batch := make([][]EdgeSpec, ranks)
				for r, specs := range es {
					lo, hi := len(specs)*b/batches, len(specs)*(b+1)/batches
					batch[r] = specs[lo:hi]
					for _, sp := range batch[r] {
						o, tg := primary(sp.OriginApp), primary(sp.TargetApp)
						back := holder.DirIn
						if sp.Dir == holder.DirUndirected {
							back = holder.DirUndirected
						}
						want[sp.OriginApp] = append(want[sp.OriginApp], holder.EdgeRec{Neighbor: tg, Dir: sp.Dir, Label: sp.Label})
						if o != tg || sp.Dir != holder.DirUndirected {
							want[sp.TargetApp] = append(want[sp.TargetApp], holder.EdgeRec{Neighbor: o, Dir: back, Label: sp.Label})
						}
					}
				}
				e.fab.Run(func(r rma.Rank) {
					if err := e.BulkLoadEdges(r, batch[r]); err != nil {
						t.Error(err)
					}
				})
				if t.Failed() {
					return
				}
				for i := range vertices {
					app := uint64(i) * 3
					buf, _ := e.readChain(0, primary(app), nil)
					v, err := holder.DecodeVertex(buf)
					if err != nil {
						t.Fatalf("batch %d: vertex %d: %v", b, app, err)
					}
					if !slices.Equal(v.Edges[:min(len(v.Edges), len(stored[app]))], stored[app]) {
						t.Fatalf("batch %d: vertex %d's records stored before the batch were not kept in order", b, app)
					}
					got, exp := slices.Clone(v.Edges), slices.Clone(want[app])
					slices.SortFunc(got, cmpEdgeRec)
					slices.SortFunc(exp, cmpEdgeRec)
					if !slices.Equal(got, exp) {
						t.Fatalf("batch %d: vertex %d holds %d records %v, its specs name %d: %v", b, app, len(got), got, len(exp), exp)
					}
					stored[app] = v.Edges
				}
			}
		})
	}
}

func cmpEdgeRec(a, b holder.EdgeRec) int {
	return cmp.Or(cmp.Compare(a.Neighbor, b.Neighbor), cmp.Compare(a.Dir, b.Dir), cmp.Compare(a.Label, b.Label))
}

// TestBulkLoadEdgesResolvesEachEndpointOnce is the loader's traffic contract:
// the remote atomics BulkLoadEdges issues (all of them belong to the resolve
// phase — routing is messages, the merge is rank-local) depend on the distinct
// endpoints, not on the number of edges.
func TestBulkLoadEdgesResolvesEachEndpointOnce(t *testing.T) {
	const ranks, vertices = 4, 512
	traffic := func(chords []int) fabric.Snapshot {
		e := newEngine(t, ranks)
		var before, after fabric.Snapshot
		e.fab.Run(func(r rma.Rank) {
			var vs []VertexSpec
			var es []EdgeSpec
			for i := int(r); i < vertices; i += ranks {
				vs = append(vs, VertexSpec{AppID: uint64(i)})
			}
			// Every rank's edges touch every vertex, whatever the chords.
			for i := 0; i < vertices; i++ {
				for _, c := range chords {
					es = append(es, EdgeSpec{OriginApp: uint64(i), TargetApp: uint64((i + c) % vertices), Dir: holder.DirOut})
				}
			}
			if err := e.BulkLoadVertices(r, vs); err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				before = e.fab.TotalSnapshot()
			}
			e.comm.Barrier(r)
			if err := e.BulkLoadEdges(r, es); err != nil {
				t.Error(err)
			}
			if r == 0 {
				after = e.fab.TotalSnapshot()
			}
			e.comm.Barrier(r)
		})
		return fabric.Snapshot{
			RemoteAtoms:   after.RemoteAtoms - before.RemoteAtoms,
			AtomicBatches: after.AtomicBatches - before.AtomicBatches,
		}
	}
	one, four := traffic([]int{1}), traffic([]int{1, 2, 3, 5})
	if one.RemoteAtoms == 0 {
		t.Fatal("the resolve phase issued no remote atomics: the contract measures nothing")
	}
	if one != four {
		t.Errorf("4x the edges over the same endpoints changed the resolve traffic: %d atomics in %d trains, then %d in %d",
			one.RemoteAtoms, one.AtomicBatches, four.RemoteAtoms, four.AtomicBatches)
	}
	// One chunk per rank: a bucket train and an entry train per chain level
	// towards each of the 3 remote ranks, where the per-edge loop paid two
	// round trips per edge endpoint. Generous bound: 8 levels.
	if limit := int64(ranks * (ranks - 1) * 8); one.AtomicBatches > limit {
		t.Errorf("resolve phase posted %d trains, want at most %d", one.AtomicBatches, limit)
	}
}

// runCollective runs fn on every rank and fails the test when the ranks have
// not all returned by the deadline — the symptom of a rank leaving a
// collective routine early.
func runCollective(t *testing.T, e *Engine, fn func(r rma.Rank) error) []error {
	t.Helper()
	errs := make([]error, e.fab.Size())
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.fab.Run(func(r rma.Rank) {
			err := fn(r)
			mu.Lock()
			errs[r] = err
			mu.Unlock()
		})
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("collective call did not return on every rank within the deadline (returned so far: %v)", errs)
	}
	return errs
}

// TestBulkLoadMissingEndpointFailsCollectively: one rank is handed an edge to
// a vertex that does not exist. Every rank must return — the erring one with
// ErrNotFound, its peers with an error wrapping the same sentinel — and
// nothing may have been merged.
func TestBulkLoadMissingEndpointFailsCollectively(t *testing.T) {
	const ranks = 4
	e := newEngine(t, ranks)
	runCollective(t, e, func(r rma.Rank) error {
		var vs []VertexSpec
		for i := 0; i < 8; i++ {
			vs = append(vs, VertexSpec{AppID: uint64(int(r)*8 + i)})
		}
		if err := e.BulkLoadVertices(r, vs); err != nil {
			t.Error(err)
		}
		return nil
	})
	free := e.FreeBlocks(0)
	errs := runCollective(t, e, func(r rma.Rank) error {
		es := []EdgeSpec{{OriginApp: uint64(r), TargetApp: uint64(r) + 8, Dir: holder.DirOut}}
		if r == 2 {
			es = append(es, EdgeSpec{OriginApp: 1, TargetApp: 999, Dir: holder.DirOut})
		}
		return e.BulkLoadEdges(r, es)
	})
	for r, err := range errs {
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("rank %d returned %v, want an error wrapping ErrNotFound", r, err)
		}
	}
	if e.FreeBlocks(0) != free {
		t.Error("a failed resolve still merged edges")
	}
	// The engine is still usable collectively.
	for r, err := range runCollective(t, e, func(r rma.Rank) error {
		return e.BulkLoadEdges(r, []EdgeSpec{{OriginApp: uint64(r), TargetApp: uint64(r) + 8, Dir: holder.DirOut}})
	}) {
		if err != nil {
			t.Errorf("rank %d: load after the failed one: %v", r, err)
		}
	}
}

// TestBulkLoadPoolExhaustionFailsCollectively: a rank that runs out of blocks
// mid-build must not leave its peers in the exchange.
func TestBulkLoadPoolExhaustionFailsCollectively(t *testing.T) {
	const ranks = 4
	e := NewEngine(rma.New(ranks), Config{BlockSize: 128, BlocksPerRank: 8})
	errs := runCollective(t, e, func(r rma.Rank) error {
		var vs []VertexSpec
		if r == 1 {
			for i := 0; i < 20; i++ {
				vs = append(vs, VertexSpec{AppID: uint64(i) * ranks}) // all owned by rank 0
			}
		}
		return e.BulkLoadVertices(r, vs)
	})
	for r, err := range errs {
		if !errors.Is(err, ErrNoMemory) {
			t.Errorf("rank %d returned %v, want an error wrapping ErrNoMemory", r, err)
		}
	}
}

// findable counts the application IDs below limit the internal index resolves.
func findable(t *testing.T, e *Engine, limit uint64) int {
	t.Helper()
	tx := e.StartLocal(0, ReadOnly)
	defer tx.Abort()
	n := 0
	for app := uint64(0); app < limit; app++ {
		if _, err := tx.TranslateVertexID(app); err == nil {
			n++
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	return n
}

func storedVertices(e *Engine) int {
	n := 0
	for r := 0; r < e.fab.Size(); r++ {
		n += e.LocalVertexCount(fabric.Rank(r))
	}
	return n
}

// TestBulkLoadFullIndexIsReported: an undersized index used to drop the
// Insert result, storing vertices nobody could find. The load must fail on
// every rank with ErrNoMemory instead.
func TestBulkLoadFullIndexIsReported(t *testing.T) {
	const ranks = 2
	e := NewEngine(rma.New(ranks), Config{BlockSize: 128, BlocksPerRank: 256, DHTBucketsPerRank: 4, DHTEntriesPerRank: 5})
	errs := runCollective(t, e, func(r rma.Rank) error {
		var vs []VertexSpec
		for i := 0; i < 10; i++ {
			vs = append(vs, VertexSpec{AppID: uint64(int(r)*10 + i)})
		}
		return e.BulkLoadVertices(r, vs)
	})
	for r, err := range errs {
		if !errors.Is(err, ErrNoMemory) {
			t.Errorf("rank %d returned %v, want an error wrapping ErrNoMemory", r, err)
		}
	}
	if got := findable(t, e, 20); got != ranks*5 {
		t.Errorf("%d vertices findable, want the index's capacity of %d", got, ranks*5)
	}
}

// TestCommitFullIndexFailsBeforePublish: the commit that creates a vertex the
// index has no room for must fail as a whole, before anything is written —
// every stored vertex stays findable, and the blocks come back.
func TestCommitFullIndexFailsBeforePublish(t *testing.T) {
	e := NewEngine(rma.New(2), Config{BlockSize: 128, BlocksPerRank: 256, DHTBucketsPerRank: 4, DHTEntriesPerRank: 3})
	create := func(apps ...uint64) error {
		tx := e.StartLocal(0, ReadWrite)
		for _, app := range apps {
			if _, err := tx.CreateVertex(app); err != nil {
				t.Fatal(err)
			}
		}
		return tx.Commit()
	}
	for app := uint64(0); app < 5; app++ {
		if err := create(app); err != nil {
			t.Fatalf("create %d: %v", app, err)
		}
	}
	free := e.FreeBlocks(0) + e.FreeBlocks(1)
	// One entry left, three vertices: all or nothing.
	err := create(5, 6, 7)
	if !errors.Is(err, ErrNoMemory) || !errors.Is(err, ErrTxCritical) {
		t.Fatalf("commit into a full index returned %v, want a transaction-critical ErrNoMemory", err)
	}
	if got, stored := findable(t, e, 8), storedVertices(e); got != 5 || stored != 5 {
		t.Errorf("after the failed commit: %d findable, %d stored, want 5 and 5", got, stored)
	}
	if got := e.FreeBlocks(0) + e.FreeBlocks(1); got != free {
		t.Errorf("failed commit leaked blocks: %d free, had %d", got, free)
	}
	if err := create(5); err != nil {
		t.Fatalf("the last index entry is still usable: %v", err)
	}
	if got, stored := findable(t, e, 8), storedVertices(e); got != 6 || stored != 6 {
		t.Errorf("%d findable, %d stored, want 6 and 6", got, stored)
	}
}

// holderRecords reads the edge records of the vertex at dp from its owner.
func holderRecords(t *testing.T, e *Engine, dp fabric.DPtr) []holder.EdgeRec {
	t.Helper()
	buf, _ := e.readChain(dp.Rank(), dp, nil)
	v, err := holder.DecodeVertex(buf)
	if err != nil {
		t.Fatalf("holder %v: %v", dp, err)
	}
	return v.Edges
}

// sortedRecords is recs in canonical order, by a comparator over whole
// records: direction, light before heavy, label, neighbor.
func sortedRecords(recs []holder.EdgeRec) []holder.EdgeRec {
	heavy := func(r holder.EdgeRec) int {
		if r.Heavy {
			return 1
		}
		return 0
	}
	return slices.SortedFunc(slices.Values(recs), func(a, b holder.EdgeRec) int {
		return cmp.Or(cmp.Compare(a.Dir, b.Dir), cmp.Compare(heavy(a), heavy(b)),
			cmp.Compare(a.Label, b.Label), cmp.Compare(a.Neighbor, b.Neighbor))
	})
}

// TestBulkLoadCanonicalLayout is the contract of the bulk edge merge's record
// order. Each vertex's delivered batch is appended in canonical order —
// grouped by direction, then weight class and label, neighbors ascending —
// so:
//   - one edge set dealt to the ranks two ways yields byte-identical holders;
//   - each holder holds exactly the multiset of records delivered to it, in
//     canonical order;
//   - a second load appends behind the records already there, so an EdgeUID
//     taken before it still names the same record for DeleteEdge;
//   - a bulk-loaded star of 4 096 leaves over 4 ranks stores its center in
//     a chain of 9 blocks of 512 bytes, where appending each batch in
//     delivery order took 55.
func TestBulkLoadCanonicalLayout(t *testing.T) {
	const ranks, vertices = 4, 200
	newLoaded := func(es [][]EdgeSpec) (*Engine, *windowLog, []lpg.LabelID) {
		log := &windowLog{Transport: rma.New(ranks)}
		e := NewEngine(log, Config{BlockSize: 64, BlocksPerRank: 1 << 12})
		a, _ := e.DefineLabel("A")
		b, _ := e.DefineLabel("B")
		labels := []lpg.LabelID{0, a, b}
		if es == nil {
			return e, log, labels
		}
		for _, err := range runCollective(t, e, func(r rma.Rank) error {
			var vs []VertexSpec
			for i := int(r); i < vertices; i += ranks {
				vs = append(vs, VertexSpec{AppID: uint64(i)})
			}
			if err := e.BulkLoadVertices(r, vs); err != nil {
				return err
			}
			return e.BulkLoadEdges(r, es[r])
		}) {
			if err != nil {
				t.Fatal(err)
			}
		}
		return e, log, labels
	}
	// Every direction and label, hubs, duplicates and self-loops.
	_, _, labels := newLoaded(nil)
	rng := rand.New(rand.NewSource(5))
	var specs []EdgeSpec
	for i := range 2000 {
		o, t := rng.Intn(vertices), rng.Intn(vertices)
		if i%3 == 0 {
			o = rng.Intn(3)
		}
		if i%101 == 0 {
			t = o
		}
		sp := EdgeSpec{OriginApp: uint64(o), TargetApp: uint64(t), Dir: holder.Direction(rng.Intn(3)), Label: labels[rng.Intn(3)]}
		specs = append(specs, sp)
		if i%50 == 0 {
			specs = append(specs, sp)
		}
	}
	dealt := func(deal func(k int) int) [][]EdgeSpec {
		es := make([][]EdgeSpec, ranks)
		for k, sp := range specs {
			es[deal(k)] = append(es[deal(k)], sp)
		}
		return es
	}
	perm := rng.Perm(len(specs))
	e1, log1, _ := newLoaded(dealt(func(k int) int { return k % ranks }))
	_, log2, _ := newLoaded(dealt(func(k int) int { return perm[k] * 7 / len(specs) % ranks }))
	bytes1, _ := log1.dump()
	bytes2, _ := log2.dump()
	if !reflect.DeepEqual(bytes1, bytes2) {
		t.Error("the same edge set dealt to the ranks two ways left different block payloads")
	}

	dps := make([]fabric.DPtr, vertices)
	for i := range dps {
		raw, ok := e1.index.Lookup(0, uint64(i))
		if !ok {
			t.Fatalf("vertex %d not indexed", i)
		}
		dps[i] = fabric.DPtr(raw)
	}
	delivered := make([][]holder.EdgeRec, vertices)
	for _, sp := range specs {
		back := holder.DirIn
		if sp.Dir == holder.DirUndirected {
			back = holder.DirUndirected
		}
		o, t := sp.OriginApp, sp.TargetApp
		delivered[o] = append(delivered[o], holder.EdgeRec{Neighbor: dps[t], Dir: sp.Dir, Label: sp.Label})
		if o != t || sp.Dir != holder.DirUndirected {
			delivered[t] = append(delivered[t], holder.EdgeRec{Neighbor: dps[o], Dir: back, Label: sp.Label})
		}
	}
	for i, dp := range dps {
		got := holderRecords(t, e1, dp)
		if want := sortedRecords(delivered[i]); !slices.Equal(got, want) {
			t.Fatalf("vertex %d holds %d records, not the %d delivered to it in canonical order", i, len(got), len(want))
		}
	}

	// A second load onto the hub: the records already there keep their
	// indices, and an EdgeUID taken before it deletes the record it named.
	hub := dps[0]
	before := holderRecords(t, e1, hub)
	tx := e1.StartLocal(0, ReadOnly)
	h, err := tx.AssociateVertex(hub)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := h.Edges(MaskAll, nil)
	if err != nil || infos.Len() != len(before) {
		t.Fatalf("Edges = %d edges, %v; want %d", infos.Len(), err, len(before))
	}
	taken := infos.At(infos.Len() / 2)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	more := make([]EdgeSpec, 0, 64)
	for i := range 64 {
		more = append(more, EdgeSpec{OriginApp: 0, TargetApp: uint64(vertices - 1 - i), Dir: holder.Direction(i % 3)})
	}
	for _, err := range runCollective(t, e1, func(r rma.Rank) error {
		if r == 0 {
			return e1.BulkLoadEdges(r, more)
		}
		return e1.BulkLoadEdges(r, nil)
	}) {
		if err != nil {
			t.Fatal(err)
		}
	}
	after := holderRecords(t, e1, hub)
	if len(after) != len(before)+len(more) || !slices.Equal(after[:len(before)], before) {
		t.Fatalf("a second load moved the records already in the hub's holder")
	}
	wtx := e1.StartLocal(0, ReadWrite)
	if err := wtx.DeleteEdge(taken.UID); err != nil {
		t.Fatal(err)
	}
	if err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := slices.Delete(slices.Clone(after), int(taken.UID.Index), int(taken.UID.Index)+1)
	if got := holderRecords(t, e1, hub); !slices.Equal(got, want) {
		t.Fatalf("DeleteEdge(%v) did not remove exactly the record the UID named before the second load", taken.UID)
	}

	// The block-count contract: a star whose leaves span all 4 ranks.
	if nb := bulkStarBlocks(t, ranks, 4096); nb != 9 {
		t.Errorf("the star's center spans %d blocks, want 9 (55 in delivery order)", nb)
	}
}

// bulkStarBlocks bulk-loads a star over ranks ranks at 512-byte blocks and
// returns the length of its center's chain. The center links to the even
// leaves and the odd ones to it, so its holder stores out- and in-records,
// and the edge specs are dealt to the ranks in a shuffled order.
func bulkStarBlocks(t *testing.T, ranks, leaves int) int {
	e := NewEngine(rma.New(ranks), Config{BlockSize: 512, BlocksPerRank: 1 << 12})
	es := make([][]EdgeSpec, ranks)
	for k, i := range rand.New(rand.NewSource(3)).Perm(leaves) {
		sp := EdgeSpec{OriginApp: 0, TargetApp: uint64(i + 1), Dir: holder.DirOut}
		if i%2 == 1 {
			sp.OriginApp, sp.TargetApp = sp.TargetApp, 0
		}
		es[k%ranks] = append(es[k%ranks], sp)
	}
	for _, err := range runCollective(t, e, func(r rma.Rank) error {
		var vs []VertexSpec
		for i := int(r); i <= leaves; i += ranks {
			vs = append(vs, VertexSpec{AppID: uint64(i)})
		}
		if err := e.BulkLoadVertices(r, vs); err != nil {
			return err
		}
		return e.BulkLoadEdges(r, es[r])
	}) {
		if err != nil {
			t.Fatal(err)
		}
	}
	raw, _ := e.index.Lookup(0, 0)
	head := make([]byte, 512)
	e.Store().ReadBlock(0, fabric.DPtr(raw), head)
	return holder.NumBlocks(head)
}
