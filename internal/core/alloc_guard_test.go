package core

import (
	"fmt"
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
// its value), and reading the edges exactly one (the result).
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
				if infos, err := h.Edges(MaskAll, nil); err != nil || len(infos) != degree {
					panic(fmt.Sprintf("Edges = %d edges, %v; want %d", len(infos), err, degree))
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
			if withEdges != base+1 {
				t.Errorf("%s: Edges adds %.0f objects, want exactly 1", c, withEdges-base)
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
// transaction of its own — begin, ExpandFrontier with a predicate, commit —
// allocates a few dozen objects (the transaction and its arena: one slice per
// kind of per-vertex bookkeeping, each sized in one step; the result slice,
// the read set, one word slice per stamp train and rank), and that count is
// the same for a frontier of 64 vertices and one of 1 024, local, cached and
// multi-block ones mixed, over 64- and 256-byte blocks alike.
func TestFrontierHopAllocsIndependentOfWidth(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	for _, blockSize := range []int{64, 256} {
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			e := NewEngine(rma.New(2), Config{
				BlockSize:     blockSize,
				BlocksPerRank: 1 << 13,
				LockTries:     256,
				CacheCapacity: 1 << 13,
			})
			_, knows, age, _ := seedPersonSchema(t, e)
			const wide = 1024
			seed := e.StartLocal(0, ReadWrite)
			frontier := make([]rma.DPtr, wide)
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

			hop := func(width int) float64 {
				run := func() {
					tx := e.StartLocal(0, ReadOnly)
					matched, _, err := tx.ExpandFrontier(frontier[:width], 0, cons)
					if err != nil || len(matched) == 0 {
						panic(fmt.Sprintf("filter hop: %d matched, %v", len(matched), err))
					}
					if err := tx.Commit(); err != nil {
						panic(err)
					}
				}
				run() // fills the cache
				return testing.AllocsPerRun(100, run)
			}
			at64, at1024 := hop(64), hop(wide)
			if at64 != at1024 || at64 > 48 {
				t.Fatalf("a warm filter hop allocates %.0f objects over 64 vertices and %.0f over 1024, want the same few dozen", at64, at1024)
			}
			t.Logf("%.0f allocations per warm filter hop", at64)
		})
	}
}

// TestEdgesAllocatesOnlyItsResult: a read-only Edges walks the fetched stream
// in place and allocates one object, its result, sized once from the
// degree — never a materialized record slice, never a regrown result. On a
// warm handle each call costs exactly that one object, and a transaction
// that reads a vertex's edges costs one object more than one that reads its
// degree, at degree 8 (one block) as at degree 512 (a chain).
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
				if infos, err := h.Edges(MaskAll, nil); err != nil || len(infos) != degree {
					panic(fmt.Sprintf("Edges = %d edges, %v; want %d", len(infos), err, degree))
				}
			}

			tx := e.StartLocal(center.Rank(), ReadOnly)
			h, err := tx.AssociateVertex(center)
			if err != nil {
				t.Fatal(err)
			}
			edges(h)
			if perCall := testing.AllocsPerRun(100, func() { edges(h) }); perCall != 1 {
				t.Fatalf("a warm Edges allocates %.0f objects per call, want 1", perCall)
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
			if withEdges != withDegree+1 {
				t.Fatalf("a transaction reading the edges allocates %.0f objects, one reading the degree %.0f: want exactly one more", withEdges, withDegree)
			}
		})
	}
}

// TestUpdateCommitAllocs is the guard for the write path: a read-write
// transaction that adds a label to an 8-edge vertex, or removes it, and
// commits — the optimistic association, the lock train, the write-back and
// the release train — allocates at most 24 objects when the vertex is local
// and 27 when it is remote (2 simulated ranks). The commit
// record is a field of the Tx, so the prepare loop's indirect calls move
// nothing to the heap; the lock trains' state comes from a pool, and the
// group committer reuses its queue.
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
		{"local", center.Rank(), 24},
		{"remote", rma.Rank(1 - int(center.Rank())), 27},
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
