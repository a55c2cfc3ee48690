package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// Allocation-regression guard for the read path: the steady-state point-read
// path — seqlock stamps, cached or local block reads, in-place varint
// iteration over the view — must allocate nothing per operation, whether the
// holder is one block or a chain. A regression here silently re-introduces GC
// pressure on the hottest read path, so CI runs this as a hard gate (the
// non-race step of the race job; AllocsPerRun is meaningless under the
// detector, see raceEnabled).

// seedFanVertex commits one center vertex on rank 1 with fan out-edges and
// returns its DPtr.
func seedFanVertex(t *testing.T, e *Engine, fan int) rma.DPtr {
	t.Helper()
	tx := e.StartLocal(1, ReadWrite)
	center, err := tx.CreateVertex(1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fan; i++ {
		nb, err := tx.CreateVertex(2000 + uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.CreateEdge(center, nb, holder.DirOut, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return center
}

func TestPointReadPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	// At 256 bytes the center's holder is a single block; at 64 it is a chain.
	for _, blockSize := range []int{64, 256} {
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			e := NewEngine(rma.New(2), Config{
				BlockSize:     blockSize,
				BlocksPerRank: 1 << 12,
				LockTries:     256,
				CacheCapacity: 512,
			})
			center := seedFanVertex(t, e, 8)
			primary := make([]byte, blockSize)
			e.Store().ReadBlock(center.Rank(), center, primary)
			if nb := holder.NumBlocks(primary); (nb == 1) != (blockSize == 256) {
				t.Fatalf("center holder spans %d blocks of %d bytes", nb, blockSize)
			}

			// Placement hashes the application ID, so derive the two origins
			// from wherever the vertex actually landed.
			for name, origin := range map[string]rma.Rank{
				"local":      center.Rank(),                    // every block from the pool
				"cached-hit": rma.Rank(1 - int(center.Rank())), // every block from the warm cache
			} {
				t.Run(name, func(t *testing.T) {
					ar := &ReadArena{}
					var degree int
					read := func(w *holder.View) {
						degree = 0
						w.ForEachNeighbor(func(rma.DPtr, holder.Direction) bool {
							degree++
							return true
						})
					}
					// Warm-up: fetches remote blocks, installs them into the
					// cache, and grows the arena to its steady-state size.
					if !e.OptimisticPointRead(origin, center, ar, read) {
						t.Fatal("warm-up point read did not validate")
					}
					if degree != 8 {
						t.Fatalf("degree = %d, want 8", degree)
					}
					allocs := testing.AllocsPerRun(200, func() {
						if !e.OptimisticPointRead(origin, center, ar, read) {
							panic("steady-state point read did not validate")
						}
						if degree != 8 {
							panic(fmt.Sprintf("degree = %d, want 8", degree))
						}
					})
					if allocs != 0 {
						t.Fatalf("steady-state point read allocates %.1f objects/op, want 0", allocs)
					}
				})
			}
		})
	}
}

// TestTranslateHitAllocatesNothingExtra: a warm translation-cache hit is the
// association the caller makes next anyway, made one call earlier, so a
// read-only translate → associate → commit allocates no more objects than
// associate → commit of the same vertex, local or remote.
func TestTranslateHitAllocatesNothingExtra(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	e := NewEngine(rma.New(2), Config{
		BlockSize:     256,
		BlocksPerRank: 1 << 12,
		LockTries:     256,
		CacheCapacity: 512,
	})
	center := seedFanVertex(t, e, 8)
	for name, origin := range map[string]rma.Rank{
		"local":      center.Rank(),
		"cached-hit": rma.Rank(1 - int(center.Rank())),
	} {
		t.Run(name, func(t *testing.T) {
			read := func(translate bool) func() {
				return func() {
					tx := e.StartLocal(origin, ReadOnly)
					dp := center
					if translate {
						var err error
						if dp, err = tx.TranslateVertexID(1000); err != nil {
							panic(err)
						}
					}
					h, err := tx.AssociateVertex(dp)
					if err != nil {
						panic(err)
					}
					if d := h.Degree(); d != 8 {
						panic(fmt.Sprintf("degree = %d, want 8", d))
					}
					if err := tx.Commit(); err != nil {
						panic(err)
					}
				}
			}
			read(true)() // fills the translation and block caches
			hits, _ := e.TranslationCacheStats()
			translated := testing.AllocsPerRun(100, read(true))
			if h, _ := e.TranslationCacheStats(); h <= hits {
				t.Fatal("the warm translations were not cache hits")
			}
			associated := testing.AllocsPerRun(100, read(false))
			if translated > associated {
				t.Fatalf("translate → associate → commit allocates %.0f objects, associate → commit %.0f", translated, associated)
			}
			t.Logf("%.0f allocations with a translation hit, %.0f without", translated, associated)
		})
	}
}

// TestReadOnlyTxAllocs is the guard of the transactional point read: a
// read-only translate hit → associate → Degree → commit allocates at most 8
// objects — the transaction, its state map, the vertex state, the stream's
// bytes, the read set and the validation train's words — and the same
// number for a one-block holder as for a chain, local and served from the
// warm cache. Reading a property costs at most one object more (the copy of
// its value), and reading the edges at most two (the neighbor array and the
// run table).
func TestReadOnlyTxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	counts := map[string]float64{}
	for _, degree := range []int{8, 512} {
		e := NewEngine(rma.New(2), Config{
			BlockSize:     256,
			BlocksPerRank: 1 << 12,
			LockTries:     256,
			CacheCapacity: 512,
		})
		pt := payloadPType(t, e)
		center := seedFanVertex(t, e, degree)
		seed := e.StartLocal(center.Rank(), ReadWrite)
		h, err := seed.AssociateVertex(center)
		if err == nil {
			err = h.SetProperty(pt, payloadPattern(7, 2))
		}
		if err == nil {
			err = seed.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
		primary := make([]byte, 256)
		e.Store().ReadBlock(center.Rank(), center, primary)
		if nb := holder.NumBlocks(primary); (nb == 1) != (degree == 8) {
			t.Fatalf("degree %d: the center's holder spans %d blocks", degree, nb)
		}
		for name, origin := range map[string]rma.Rank{
			"local":      center.Rank(),
			"cached-hit": rma.Rank(1 - int(center.Rank())),
		} {
			read := func(use func(*VertexHandle)) func() {
				return func() {
					tx := e.StartLocal(origin, ReadOnly)
					dp, err := tx.TranslateVertexID(1000)
					if err != nil {
						panic(err)
					}
					h, err := tx.AssociateVertex(dp)
					if err != nil {
						panic(err)
					}
					use(h)
					if err := tx.Commit(); err != nil {
						panic(err)
					}
				}
			}
			degreeOnly := func(h *VertexHandle) {
				if d := h.Degree(); d != degree {
					panic(fmt.Sprintf("degree = %d, want %d", d, degree))
				}
			}
			property := func(h *VertexHandle) {
				if p, ok := h.Property(pt); !ok || len(p) != 16 {
					panic(fmt.Sprintf("property = %v, %v", p, ok))
				}
			}
			edges := func(h *VertexHandle) {
				if infos, err := h.Edges(MaskAll, nil); err != nil || infos.Len() != degree {
					panic(fmt.Sprintf("Edges = %d edges, %v; want %d", infos.Len(), err, degree))
				}
			}
			read(degreeOnly)() // fills the translation and block caches
			base := testing.AllocsPerRun(100, read(degreeOnly))
			withProperty := testing.AllocsPerRun(100, read(property))
			withEdges := testing.AllocsPerRun(100, read(edges))
			c := fmt.Sprintf("degree=%d/%s", degree, name)
			counts[c] = base
			t.Logf("%s: %.0f allocations, %.0f with Property, %.0f with Edges", c, base, withProperty, withEdges)
			if base > 8 {
				t.Errorf("%s: a read-only point read allocates %.0f objects, want at most 8", c, base)
			}
			if withProperty > base+1 {
				t.Errorf("%s: Property adds %.0f objects, want at most 1", c, withProperty-base)
			}
			if withEdges > base+2 {
				t.Errorf("%s: Edges adds %.0f objects, want at most 2 (the neighbor array and the run table)", c, withEdges-base)
			}
		}
	}
	for c, n := range counts {
		if n != counts["degree=8/local"] {
			t.Errorf("%s allocates %.0f objects, a local one-block read %.0f: want the same", c, n, counts["degree=8/local"])
		}
	}
}

// TestFrontierHopAllocsIndependentOfWidth is the same guard for the frontier
// path: a frontier vertex costs no heap object. A warm-cache filter hop in a
// transaction of its own — begin, a filter-only hop with a predicate, commit —
// takes its arena from the pool and allocates at most 8 objects (the
// transaction, the result slice, the read set, one word slice per stamp
// train and rank), and that count is the same for a frontier of 64 vertices
// and one of 1 024, local, cached and multi-block ones mixed, over 64- and
// 256-byte blocks alike. An arena made per transaction cost 28. A warm LIMIT 5
// filter hop and its commit allocate at most 9 objects, and the same objects
// and the same bytes over 520 vertices as over 5 200: the read set grows by
// the vertices the hop read and one forwarding-word entry per rank, not by
// the vertices it left unread.
func TestFrontierHopAllocsIndependentOfWidth(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	for _, blockSize := range []int{64, 256} {
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			e, frontier, cons := newPersonFrontier(t, blockSize, 5200)
			type cost struct{ objects, bytes uint64 }
			hop := func(width, limit int) cost {
				run := func() {
					tx := e.StartLocal(0, ReadOnly)
					matched, _, err := tx.FilterFrontier(frontier[:width], nil, cons, limit, 0)
					if err != nil || len(matched) == 0 {
						panic(fmt.Sprintf("filter hop: %d matched, %v", len(matched), err))
					}
					if err := tx.Commit(); err != nil {
						panic(err)
					}
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				run() // fills the cache and the arena
				c := cost{math.MaxUint64, math.MaxUint64}
				var before, after runtime.MemStats
				for range 20 {
					runtime.ReadMemStats(&before)
					run()
					runtime.ReadMemStats(&after)
					c.objects = min(c.objects, after.Mallocs-before.Mallocs)
					c.bytes = min(c.bytes, after.TotalAlloc-before.TotalAlloc)
				}
				return c
			}
			at64, at1024 := hop(64, 0), hop(1024, 0)
			if at64.objects != at1024.objects || at64.objects > 8 {
				t.Fatalf("a warm filter hop allocates %d objects over 64 vertices and %d over 1024, want the same, at most 8", at64.objects, at1024.objects)
			}
			at520, at5200 := hop(520, 5), hop(len(frontier), 5)
			if at520 != at5200 || at520.objects > 9 {
				t.Fatalf("a warm LIMIT 5 filter hop allocates %+v over 520 vertices and %+v over 5200, want the same, at most 9 objects", at520, at5200)
			}
			t.Logf("%d allocations per warm filter hop; %d allocations and %d bytes per warm LIMIT 5 hop", at64.objects, at520.objects, at520.bytes)
		})
	}
}

// newPersonFrontier commits n vertices over two ranks, vertex i aged i%90
// and linked to vertex i/2, and returns them in creation order with the
// predicate age ≥ 30, which two thirds of them match.
func newPersonFrontier(t *testing.T, blockSize, n int) (*Engine, []rma.DPtr, *constraint.Constraint) {
	t.Helper()
	e := NewEngine(rma.New(2), Config{
		BlockSize:     blockSize,
		BlocksPerRank: 1 << 14,
		LockTries:     256,
		CacheCapacity: 1 << 13,
	})
	_, knows, age, _ := seedPersonSchema(t, e)
	seed := e.StartLocal(0, ReadWrite)
	frontier := make([]rma.DPtr, n)
	for i := range frontier {
		dp, err := seed.CreateVertex(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		frontier[i] = dp
		h, _ := seed.AssociateVertex(dp)
		if err := h.AddProperty(age, lpg.EncodeUint64(uint64(i%90))); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if _, err := seed.CreateEdge(dp, frontier[i/2], holder.DirOut, knows); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	cons := constraint.New(e.Registry(0))
	cons.AddPropCond(cons.AddSubconstraint(constraint.Subconstraint{}), constraint.PropCond{
		PType: age, Datatype: lpg.TypeUint64, Op: constraint.OpGe, Operand: lpg.EncodeUint64(30)})
	return e, frontier, cons
}

// TestExpansionHopAllocsIndependentOfWidth is the count contract of the
// expansion hop: neither a frontier vertex nor an edge costs a heap object,
// and an edge costs no byte. A warm-cache read-only transaction that expands
// a frontier under MaskAll and commits allocates the same objects, at most
// 7, for 64 vertices of degree 16 (Σ degree 1 024), 64 of degree 256 and
// 1 024 of degree 16 (Σ degree 16 384 each), all three harvesting the same
// 256 neighbors; the first two allocate the same bytes, and the third at
// most 32 more per frontier vertex — its matched ID, its read-set entry, and
// the guard words the fabric returns to Commit's validation train — and
// nothing of the arena. The harvest dedups each run
// in place in the pooled arena and copies the results out, each in one
// allocation. A LIMIT 5 final round over the same frontiers
// (FilterNeighbors), which ORs the harvest into the hop's bitmap and reads
// its candidates off the bits, allocates the same objects and the same bytes
// at Σ degree 1 024 as at 16 384, at most 9 objects. So does one that
// projects the targets' age, at most 11 objects: the values and the one
// buffer they share.
func TestExpansionHopAllocsIndependentOfWidth(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const targets, narrow, wide = 256, 1024, 64
	e := NewEngine(rma.New(2), Config{
		BlockSize:     256,
		BlocksPerRank: 1 << 13,
		LockTries:     256,
		CacheCapacity: 1 << 13,
	})
	_, _, age, _ := seedPersonSchema(t, e)
	seed := e.StartLocal(0, ReadWrite)
	create := func(n int, app uint64) []rma.DPtr {
		dps := make([]rma.DPtr, n)
		for i := range dps {
			dp, err := seed.CreateVertex(app + uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			dps[i] = dp
		}
		return dps
	}
	to := create(targets, 0)
	for i, dp := range to {
		h, err := seed.AssociateVertex(dp)
		if err == nil {
			err = h.AddProperty(age, lpg.EncodeUint64(uint64(i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Source i of degree d links to targets i·d … i·d+d-1 (mod 256), so 16
	// sources of degree 16, or any one of degree 256, cover every target.
	link := func(from []rma.DPtr, degree int) {
		for i, src := range from {
			for j := range degree {
				if _, err := seed.CreateEdge(src, to[(i*degree+j)%targets], holder.DirOut, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sparse, dense := create(narrow, 1000), create(wide, 3000)
	link(sparse, 16)
	link(dense, targets)
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	type cost struct{ objects, bytes uint64 }
	measureLimit := func(frontier []rma.DPtr, limit int, project lpg.PTypeID) cost {
		hop := func() {
			tx := e.StartLocal(0, ReadOnly)
			if limit > 0 {
				last, vals, err := tx.FilterNeighbors(frontier, nil, MaskAll, nil, nil, limit, project)
				if err != nil || len(last) < limit {
					panic(fmt.Sprintf("LIMIT %d round: %d matched, %v", limit, len(last), err))
				}
				if project != 0 && (len(vals) != len(last) || !vals[0].OK || len(vals[0].Value) != 8) {
					panic(fmt.Sprintf("LIMIT %d round: %d values for %d IDs, the first %+v", limit, len(vals), len(last), vals[0]))
				}
			} else if matched, next, err := tx.ExpandFrontier(frontier, MaskAll, nil); err != nil || len(matched) != len(frontier) || len(next) != targets {
				panic(fmt.Sprintf("expansion: %d matched, %d next, %v", len(matched), len(next), err))
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		hop() // fills the cache and the arena
		c := cost{math.MaxUint64, math.MaxUint64}
		var before, after runtime.MemStats
		for range 20 {
			runtime.ReadMemStats(&before)
			hop()
			runtime.ReadMemStats(&after)
			c.objects = min(c.objects, after.Mallocs-before.Mallocs)
			c.bytes = min(c.bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return c
	}
	measure := func(frontier []rma.DPtr) cost { return measureLimit(frontier, 0, 0) }
	base, deep, broad := measure(sparse[:wide]), measure(dense), measure(sparse)
	t.Logf("64 × degree 16: %+v; 64 × degree 256: %+v; 1024 × degree 16: %+v", base, deep, broad)
	if base.objects != deep.objects || base.objects != broad.objects || base.objects > 7 {
		t.Errorf("an expansion hop allocates %d, %d and %d objects; want the same, at most 7", base.objects, deep.objects, broad.objects)
	}
	if base.bytes != deep.bytes {
		t.Errorf("an expansion hop over Σ degree 1 024 allocates %d bytes, over Σ degree 16 384 %d: want the same", base.bytes, deep.bytes)
	}
	if perVertex := (int64(broad.bytes) - int64(base.bytes)) / (narrow - wide); perVertex > 32 {
		t.Errorf("an expansion hop allocates %d bytes over 64 vertices and %d over 1024: %d per vertex, want at most 32", base.bytes, broad.bytes, perVertex)
	}
	limitBase, limitDeep := measureLimit(sparse[:wide], 5, 0), measureLimit(dense, 5, 0)
	t.Logf("LIMIT 5 round, Σ degree 1 024: %+v; Σ degree 16 384: %+v", limitBase, limitDeep)
	if limitBase != limitDeep || limitBase.objects > 9 {
		t.Errorf("a LIMIT 5 round allocates %+v over Σ degree 1 024 and %+v over Σ degree 16 384, want the same, at most 9 objects", limitBase, limitDeep)
	}
	projBase, projDeep := measureLimit(sparse[:wide], 5, age), measureLimit(dense, 5, age)
	t.Logf("projected LIMIT 5 round, Σ degree 1 024: %+v; Σ degree 16 384: %+v", projBase, projDeep)
	if projBase != projDeep || projBase.objects > 11 {
		t.Errorf("a projected LIMIT 5 round allocates %+v over Σ degree 1 024 and %+v over Σ degree 16 384, want the same, at most 11 objects", projBase, projDeep)
	}
}

// TestEdgesAllocatesOnlyItsResult: a read-only Edges walks the fetched stream
// in place and allocates its result only — the neighbor array, sized once
// from the degree, and the run table — never a materialized record slice,
// never a regrown array. On a warm handle each call costs at most those two
// objects, and a transaction that reads a vertex's edges costs at most two
// objects more than one that reads its degree, at degree 8 (one block) as at
// degree 512 (a chain). So does a read-write transaction that appended a
// record with CreateEdge: its Edges walks the stored runs and then the
// appended tail, and leaves the runs encoded.
func TestEdgesAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	for _, degree := range []int{8, 512} {
		t.Run(fmt.Sprintf("degree=%d", degree), func(t *testing.T) {
			e := NewEngine(rma.New(2), Config{
				BlockSize:     256,
				BlocksPerRank: 1 << 12,
				LockTries:     256,
				CacheCapacity: 512,
			})
			center := seedFanVertex(t, e, degree)
			edges := func(h *VertexHandle) {
				if infos, err := h.Edges(MaskAll, nil); err != nil || infos.Len() != degree {
					panic(fmt.Sprintf("Edges = %d edges, %v; want %d", infos.Len(), err, degree))
				}
			}

			tx := e.StartLocal(center.Rank(), ReadOnly)
			h, err := tx.AssociateVertex(center)
			if err != nil {
				t.Fatal(err)
			}
			edges(h)
			if perCall := testing.AllocsPerRun(100, func() { edges(h) }); perCall > 2 {
				t.Fatalf("a warm Edges allocates %.0f objects per call, want at most 2 (the neighbor array and the run table)", perCall)
			}
			if h.st.v != nil {
				t.Fatal("a read-only Edges materialized the records")
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			read := func(use func(*VertexHandle)) func() {
				return func() {
					tx := e.StartLocal(center.Rank(), ReadOnly)
					h, err := tx.AssociateVertex(center)
					if err != nil {
						panic(err)
					}
					use(h)
					if err := tx.Commit(); err != nil {
						panic(err)
					}
				}
			}
			degreeOnly := func(h *VertexHandle) {
				if d := h.Degree(); d != degree {
					panic(fmt.Sprintf("degree = %d, want %d", d, degree))
				}
			}
			withEdges := testing.AllocsPerRun(100, read(edges))
			withDegree := testing.AllocsPerRun(100, read(degreeOnly))
			if withEdges > withDegree+2 {
				t.Fatalf("a transaction reading the edges allocates %.0f objects, one reading the degree %.0f: want at most two more", withEdges, withDegree)
			}

			// An undirected self-loop appends one record.
			appended := func(use func(*VertexHandle) int) func() {
				return func() {
					tx := e.StartLocal(center.Rank(), ReadWrite)
					defer tx.Abort()
					if _, err := tx.CreateEdge(center, center, holder.DirUndirected, 0); err != nil {
						panic(err)
					}
					h, err := tx.AssociateVertex(center)
					if err != nil {
						panic(err)
					}
					if n := use(h); n != degree+1 {
						panic(fmt.Sprintf("%d edges after the append, want %d", n, degree+1))
					}
					if n := h.st.stored.Len(); n != degree {
						panic(fmt.Sprintf("%d stored records after the read, want the %d stored runs left encoded", n, degree))
					}
				}
			}
			withEdges = testing.AllocsPerRun(100, appended(func(h *VertexHandle) int {
				l, err := h.Edges(MaskAll, nil)
				if err != nil {
					panic(err)
				}
				return l.Len()
			}))
			withDegree = testing.AllocsPerRun(100, appended((*VertexHandle).Degree))
			if withEdges > withDegree+2 {
				t.Fatalf("after an append, a transaction reading the edges allocates %.0f objects, one reading the degree %.0f: want at most two more", withEdges, withDegree)
			}
		})
	}
}

// TestUpdateCommitAllocs is the guard for the write path: a read-write
// transaction that adds a label to an 8-edge vertex, or removes it, and
// commits — the optimistic association, the lock train, the write-back and
// the release train — allocates at most 20 objects when the vertex is local
// and 23 when it is remote (2 simulated ranks). The label edit splices the
// copied entry region and the commit copies the stored edge region, so
// neither the labels nor the records are decoded. The commit
// record is a field of the Tx, so the prepare loop's indirect calls move
// nothing to the heap; the lock trains' state comes from a pool, and the
// write-back groups its write set by owner rank in place.
func TestUpdateCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	e := NewEngine(rma.New(2), Config{
		BlockSize:     256,
		BlocksPerRank: 1 << 12,
		LockTries:     256,
		CacheCapacity: 512,
	})
	center := seedFanVertex(t, e, 8)
	label, err := e.DefineLabel("Tagged")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		origin rma.Rank
		bound  float64
	}{
		{"local", center.Rank(), 20},
		{"remote", rma.Rank(1 - int(center.Rank())), 23},
	} {
		t.Run(c.name, func(t *testing.T) {
			update := func(add bool) {
				tx := e.StartLocal(c.origin, ReadWrite)
				h, err := tx.AssociateVertex(center)
				if err == nil && add {
					err = h.AddLabel(label)
				} else if err == nil {
					err = h.RemoveLabel(label)
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					panic(err)
				}
			}
			update(true)
			update(false)
			perCommit := testing.AllocsPerRun(100, func() { update(true); update(false) }) / 2
			if perCommit > c.bound {
				t.Fatalf("an update commit allocates %.1f objects, want at most %.0f", perCommit, c.bound)
			}
			t.Logf("%.1f allocations per update commit", perCommit)
		})
	}
}
