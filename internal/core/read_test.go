package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
	"github.com/gdi-go/gdi/internal/snapshot"
)

// TestReadersRejectReusedHeadBlock: a committed vertex's head block is
// overwritten the way a recycled block can look to a reader that still names
// it — a block count of 3 whose first table entry names rank 255, or whose
// entries name real blocks on the other rank (a chain lives on one rank), and
// a block count of 0x00fffff0 — and every reader of holder chains must turn
// it away without panicking, sizing a buffer on the count or addressing the
// rank: associations on both local tiers fail with ErrNotFound, so does a
// frontier expansion and a read through a cut pinned after the overwrite, a
// warm translation fails, the point read declines, and a read under lock
// calls the chain implausible.
func TestReadersRejectReusedHeadBlock(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nb      uint32
		offRank bool // the table entries name blocks on the other rank, not rank 255
	}{{"garbage-table-entry", 3, false}, {"off-rank-table-entry", 3, true}, {"absurd-block-count", 0x00fffff0, false}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(rma.New(2), Config{BlockSize: 64, BlocksPerRank: 1 << 12, LockTries: 16, HTAPSnapshots: true})
			const app = 7
			seed := e.StartLocal(0, ReadWrite)
			dp, err := seed.CreateVertex(app)
			if err != nil {
				t.Fatal(err)
			}
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}
			// Warm every rank's translation cache on both tiers.
			for r := range 2 {
				for _, mode := range []Mode{ReadOnly, ReadWrite} {
					tx := e.StartLocal(fabric.Rank(r), mode)
					if _, err := tx.TranslateVertexID(app); err != nil {
						t.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}

			garbage := make([]byte, 64)
			binary.LittleEndian.PutUint32(garbage[0:], tc.nb)
			entries := []fabric.DPtr{rma.MakeDPtr(255, 5)}
			if tc.offRank {
				entries = []fabric.DPtr{rma.MakeDPtr(1-dp.Rank(), 5), rma.MakeDPtr(1-dp.Rank(), 6)}
			}
			for i, entry := range entries {
				binary.LittleEndian.PutUint64(garbage[holder.TableEntryOffset(i):], uint64(entry))
			}
			for r := range 2 { // a write drops the writer's cached copy only
				e.Store().WriteBlock(fabric.Rank(r), dp, garbage)
			}
			var cut *snapshot.Cut
			e.fab.Run(func(r fabric.Rank) {
				c, err := e.AcquireCut(r)
				if err != nil {
					t.Error(err)
				}
				if r == 0 {
					cut = c
				}
			})
			if cut == nil {
				t.FailNow()
			}
			defer cut.Release()
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			allocated := mem.TotalAlloc

			for r := range 2 {
				origin := fabric.Rank(r)
				for _, mode := range []Mode{ReadOnly, ReadWrite} {
					name := fmt.Sprintf("rank %d, mode %d", r, mode)
					tx := e.StartLocal(origin, mode)
					if _, err := tx.AssociateVertex(dp); !errors.Is(err, ErrNotFound) {
						t.Errorf("%s: AssociateVertex: err = %v, want ErrNotFound", name, err)
					}
					tx.Abort()

					tx = e.StartLocal(origin, mode)
					if _, _, err := tx.ExpandFrontier([]fabric.DPtr{dp}, MaskAll, nil); !errors.Is(err, ErrNotFound) {
						t.Errorf("%s: ExpandFrontier: err = %v, want ErrNotFound", name, err)
					}
					tx.Abort()

					tx = e.StartLocal(origin, mode)
					if got, err := tx.TranslateVertexID(app); err == nil {
						t.Errorf("%s: warm TranslateVertexID served %v", name, got)
					}
					tx.Abort()
				}
				if e.OptimisticPointRead(origin, dp, &ReadArena{}, func(*holder.View) {}) {
					t.Errorf("rank %d: OptimisticPointRead accepted the block", r)
				}
				if v := e.readChains(origin, []fabric.DPtr{dp}, nil)[0].verdict; v != readImplausible {
					t.Errorf("rank %d: a read under lock gave verdict %d, want readImplausible", r, v)
				}
				if _, err := e.CutVertex(origin, cut, dp); !errors.Is(err, ErrNotFound) {
					t.Errorf("rank %d: CutVertex: err = %v, want ErrNotFound", r, err)
				}
			}
			runtime.ReadMemStats(&mem)
			if n := mem.TotalAlloc - allocated; n > 16<<20 {
				t.Errorf("the readers allocated %d bytes over a one-block holder", n)
			}
		})
	}
}

// TestPlausibleBlock: the one rule set every holder-chain reader applies
// before it trusts a block. A head's block count may not exceed
// BlocksPerRank; a continuation's table entry must be a pool block (not
// null, not the reserved block 0, inside the pool, on an existing rank) on
// the head's own rank.
func TestPlausibleBlock(t *testing.T) {
	const perRank = 1 << 8
	e := NewEngine(rma.New(2), Config{BlockSize: 64, BlocksPerRank: perRank, LockTries: 16})
	head := rma.MakeDPtr(1, 9)
	for _, tc := range []struct {
		name  string
		nb    uint32      // the head's block count
		entry fabric.DPtr // table entry 0, checked as block 1
		block int         // the block checked
		want  bool
	}{
		{"head-count-at-pool-size", perRank, 0, 0, true},
		{"head-count-over-pool-size", perRank + 1, 0, 0, false},
		{"entry-on-head-rank", 2, rma.MakeDPtr(1, 10), 1, true},
		{"entry-on-other-rank", 2, rma.MakeDPtr(0, 10), 1, false},
		{"entry-on-missing-rank", 2, rma.MakeDPtr(255, 10), 1, false},
		{"entry-null", 2, fabric.NullDPtr, 1, false},
		{"entry-reserved-block", 2, rma.MakeDPtr(1, 0), 1, false},
		{"entry-past-pool", 2, rma.MakeDPtr(1, perRank), 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := make([]byte, 64)
			binary.LittleEndian.PutUint32(buf, tc.nb)
			holder.SetTableEntry(buf, 0, tc.entry)
			if got := e.plausibleBlock(head, buf, tc.block); got != tc.want {
				t.Errorf("plausibleBlock(block %d, count %d, entry %v) = %v, want %v",
					tc.block, tc.nb, tc.entry, got, tc.want)
			}
		})
	}
}

// assocFixture is the store the association golden cases read from rank 0,
// and what they read.
type assocFixture struct {
	batch []fabric.DPtr // one AssociateVertices batch
	spec  []uint64      // application IDs whose cached translations are checked speculatively
}

// buildAssocFixture commits a four-rank graph and then disturbs it. The batch
// names, in order: a hub with a long name and four edges to every other
// vertex, whose holder is a chain at 64-byte blocks and at 256; light
// vertices on every rank, rank 0's own among them; a duplicate; the three
// DPtrs of a vertex migrated twice (two forwarding stubs and its current
// primary); two vertices rank 0 follows, one of whose followers lags its
// primary; a deleted vertex; and the hub again. The speculative cases are
// a local and a remote vertex whose cached translations still hold, the
// followed and lagging vertices, the vertex migrated twice (translated after
// its moves), a vertex rewritten after its translation was cached, and one
// migrated after it.
func buildAssocFixture(t *testing.T, e *Engine) assocFixture {
	t.Helper()
	const ranks = 4
	person, knows, age, name := seedPersonSchema(t, e)
	run := func(r fabric.Rank, fn func(tx *Tx) error) {
		t.Helper()
		tx := e.StartLocal(r, ReadWrite)
		if err := fn(tx); err != nil {
			tx.Abort()
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// vertex k on rank r has application ID r + k·ranks.
	app := func(r, k int) uint64 { return uint64(r + k*ranks) }
	dps := make(map[uint64]fabric.DPtr)
	run(0, func(tx *Tx) error {
		for r := 0; r < ranks; r++ {
			for k := 0; k < 5; k++ {
				dp, err := tx.CreateVertex(app(r, k))
				if err != nil {
					return err
				}
				dps[app(r, k)] = dp
				h, err := tx.AssociateVertex(dp)
				if err != nil {
					return err
				}
				if err := h.AddLabel(person); err != nil {
					return err
				}
				if err := h.AddProperty(age, lpg.EncodeUint64(uint64(20+r+k))); err != nil {
					return err
				}
				if err := h.AddProperty(name, []byte(fmt.Sprintf("vertex %d of rank %d", k, r))); err != nil {
					return err
				}
			}
		}
		return nil
	})
	v := func(r, k int) fabric.DPtr { return dps[app(r, k)] }
	hub := v(1, 0)
	run(0, func(tx *Tx) error {
		h, err := tx.AssociateVertex(hub)
		if err != nil {
			return err
		}
		if err := h.SetProperty(name, []byte(strings.Repeat("the hub ", 40))); err != nil {
			return err
		}
		for r := 0; r < ranks; r++ {
			for k := 0; k < 5; k++ {
				for range 4 {
					if v(r, k) == hub {
						continue
					}
					if _, err := tx.CreateEdge(hub, v(r, k), holder.DirOut, knows); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	migrant := app(2, 3)
	mid := mustMigrate(t, e, migrant, 3)
	final := mustMigrate(t, e, migrant, 1)
	followed, lagging := app(2, 1), app(3, 1)
	if n := e.replicateAll(0, []uint64{followed, lagging}, 2); n != 2 {
		t.Fatalf("seeded %d follower copies on rank 0, want 2", n)
	}
	gone := v(3, 2)
	run(1, func(tx *Tx) error { return tx.DeleteVertex(gone) })

	rewritten, moved := app(2, 2), app(1, 3)
	spec := []uint64{app(0, 1), app(3, 0), followed, lagging, migrant, rewritten, moved}
	for _, a := range spec {
		tx := e.StartLocal(0, ReadOnly)
		if _, err := tx.TranslateVertexID(a); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run(1, func(tx *Tx) error {
		h, err := tx.AssociateVertex(dps[rewritten])
		if err != nil {
			return err
		}
		return h.SetProperty(age, lpg.EncodeUint64(99))
	})
	mustMigrate(t, e, moved, 2)
	// Lag a follower: bump its primary's version word without a fan-out.
	w := e.lockWordOf(dps[lagging])
	vers, held := locks.AcquireWriteTrainEach(1, []locks.TrainLock{{Word: w}}, 16)
	if !held[0] {
		t.Fatal("could not write-lock the lagging vertex's primary")
	}
	locks.ReleaseWriteTrain(1, []locks.Word{w}, vers)

	batch := []fabric.DPtr{hub, v(2, 0), v(3, 0), v(0, 1), v(2, 0), dps[migrant], mid, final,
		dps[followed], dps[lagging], gone, v(1, 2), hub}
	return assocFixture{batch: batch, spec: spec}
}

// referenceAssociateVertices is AssociateVertices over referenceFlush.
func referenceAssociateVertices(tx *Tx, dps []fabric.DPtr) ([]*VertexHandle, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	futs := make([]*VertexFuture, len(dps))
	for i, dp := range dps {
		futs[i] = tx.AssociateVertexAsync(dp)
	}
	pending := tx.pending
	tx.pending = nil
	referenceFlush(tx, pending, false, 0)
	out := make([]*VertexHandle, len(dps))
	for i, f := range futs {
		h, err := f.Wait()
		switch {
		case err == nil:
			out[i] = h
		case !errors.Is(err, ErrNotFound):
			return nil, err
		}
	}
	return out, nil
}

// stateString renders what an association left in a vertex state: its
// identity, guard and blocks, and the decoded vertex with its edge
// list materialized, whether the state holds it decoded or behind its view.
func stateString(st *vertexState) string {
	if st == nil {
		return "<nil>"
	}
	c := *st
	if c.v == nil {
		if err := c.fold(); err != nil {
			return err.Error()
		}
		if c.view.IsReplica() {
			c.blocks = nil // a follower copy's blocks are not the vertex's
		}
	}
	return fmt.Sprintf("%v guard=%+v blocks=%v %+v", c.primary, c.guard, c.blocks, *c.v)
}

// errClass names the kind of an association error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, errStaleTranslation):
		return "stale"
	case errors.Is(err, ErrNotFound):
		return "not found"
	case errors.Is(err, ErrTxCritical):
		return "critical"
	}
	return err.Error()
}

// assocOutcome is everything a golden case compares.
type assocOutcome struct {
	Results  []string   // per batch position (cold, then warm), then per speculative check
	ReadSets [][]string // the optimistic read set of each transaction, sorted
	Moved    []string   // the migration aliases each transaction chased
	Traffic  []string   // per step: remote GETs, GET trains, remote atomics, atomic trains
	Blocks   []string   // per step: remote GETs, bytes got
	Trips    []int64    // per step: round trips, scalar operations and trains
	Trains   []int64    // per step: GET and atomic trains
	Words    [][]uint64 // every word window after each step: lock words, free lists, index
	Counters string     // forwarded, replica-served and optimistic-aborted reads
}

// TestAssociateMatchesReference is the golden test of the chain reader under
// the association flush. On twin engines with the same history, one reads
// through AssociateVertices and the speculative flush, the other through
// referenceFlush, the parent's flush. Each case reads the fixture's batch
// cold, then warm, then checks each cached translation speculatively in a
// transaction of its own, and compares: the decoded vertices, guards; the
// read sets and chased aliases; the remote GETs, GET trains, remote atomics,
// atomic trains and round trips of every step; every word window after
// every step; and the engine's read counters. It runs in read-write, local
// read-only (optimistic) and collective read-only transactions, at 64- and
// 256-byte blocks, with a 512-block and a one-block cache. A collective
// read-only transaction reads as a local one does, so its rows are the
// optimistic tier's. The seqlock reads load the guard inside their GET
// trains, so their trains and atomics are not the reference's:
// seqlockTraffic restates them, and compareSeqlockTraffic holds their GETs
// and bytes to the reference's and their round trips to at most the
// reference's.
func TestAssociateMatchesReference(t *testing.T) {
	tiers := []struct {
		name       string
		mode       Mode
		collective bool
		traffic    string // the tier whose seqlockTraffic rows this one's are
	}{{"read-write", ReadWrite, false, "read-write"}, {"optimistic", ReadOnly, false, "optimistic"}, {"collective", ReadOnly, true, "optimistic"}}
	for _, tier := range tiers {
		for _, bs := range []int{64, 256} {
			for _, cache := range []int{512, 1} {
				t.Run(fmt.Sprintf("%s/block=%d/cache=%d", tier.name, bs, cache), func(t *testing.T) {
					var spec []uint64 // the fixture's speculative cases
					optimistic := tier.mode == ReadOnly
					run := func(associate func(*Tx, []fabric.DPtr) ([]*VertexHandle, error),
						flush func(*Tx, []*VertexFuture, bool, uint64)) assocOutcome {
						log := &windowLog{Transport: rma.New(4)}
						e := NewEngine(log, Config{BlockSize: bs, BlocksPerRank: 1 << 10, LockTries: 16, CacheCapacity: cache})
						fx := buildAssocFixture(t, e)
						spec = fx.spec
						head := make([]byte, bs)
						e.Store().ReadBlock(0, fx.batch[0], head)
						if holder.NumBlocks(head) < 2 {
							t.Fatal("the hub's holder is not a chain")
						}
						forwards, replicaReads := e.ForwardedReads(), e.ReplicaReads()
						var out assocOutcome
						step := func(tx *Tx, do func()) {
							before, trips := log.TotalSnapshot(), log.trips.Load()
							do()
							a := log.TotalSnapshot()
							out.Traffic = append(out.Traffic, fmt.Sprint(a.RemoteGets-before.RemoteGets, a.GetBatches-before.GetBatches,
								a.RemoteAtoms-before.RemoteAtoms, a.AtomicBatches-before.AtomicBatches))
							out.Blocks = append(out.Blocks, fmt.Sprint(a.RemoteGets-before.RemoteGets, a.BytesGot-before.BytesGot))
							out.Trips = append(out.Trips, log.trips.Load()-trips)
							out.Trains = append(out.Trains, a.GetBatches-before.GetBatches+a.AtomicBatches-before.AtomicBatches)
							_, words := log.dump()
							out.Words = append(out.Words, slices.Concat(words...))
							var reads []string
							for _, r := range tx.optReads {
								reads = append(reads, fmt.Sprint(r))
							}
							slices.Sort(reads)
							out.ReadSets = append(out.ReadSets, reads)
							out.Moved = append(out.Moved, fmt.Sprint(tx.moved))
						}
						start := func() *Tx {
							tx := e.StartLocal(0, tier.mode)
							tx.collective = tier.collective // no barrier: rank 0 reads alone
							return tx
						}
						for range 2 { // cold, then warm
							tx := start()
							step(tx, func() {
								hs, err := associate(tx, fx.batch)
								out.Results = append(out.Results, errClass(err))
								for _, h := range hs {
									var st *vertexState
									if h != nil {
										st = h.st
									}
									out.Results = append(out.Results, stateString(st))
								}
							})
							tx.collective = false
							tx.Abort()
						}
						for _, a := range fx.spec {
							tx := start()
							dp, ver, ok := e.xlate[0].get(a)
							if !ok {
								t.Fatalf("no cached translation of %d", a)
							}
							step(tx, func() {
								f := &VertexFuture{tx: tx, dp: dp}
								flush(tx, []*VertexFuture{f}, true, ver)
								out.Results = append(out.Results, fmt.Sprint(a, " ", errClass(f.err), " ", stateString(f.st)))
							})
							tx.collective = false
							tx.Abort()
						}
						if e.ForwardedReads() == forwards {
							t.Error("no read chased a forwarding stub")
						}
						if optimistic != (e.ReplicaReads() > replicaReads) {
							t.Errorf("follower-served reads: %d, on the optimistic tier only", e.ReplicaReads()-replicaReads)
						}
						out.Counters = fmt.Sprint(e.ForwardedReads(), e.ReplicaReads(), e.OptimisticAborts())
						return out
					}
					got := run((*Tx).AssociateVertices, (*Tx).flush)
					want := run(referenceAssociateVertices, referenceFlush)
					compare := func(what string, got, want any) {
						t.Helper()
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s differ from the reference:\n got %v\nwant %v", what, got, want)
						}
					}
					// The blocks the seqlock reads get: the reference's, but for
					// the head block of a refused translation that the one-block
					// cache has lost, which its guarded train GETs before the
					// stamp refuses it — the reference stamped first and read
					// nothing.
					blocks := slices.Clone(want.Blocks)
					// The lagging follower's cached version still holds on
					// the optimistic tier, which reads the follower; a
					// read-write transaction reads the primary, which moved.
					classes := []string{"ok", "ok", "ok", "ok", "ok", "stale", "stale"}
					if tier.mode == ReadWrite {
						classes[3] = "stale"
					}
					for i, c := range classes {
						if r := want.Results[len(want.Results)-len(classes)+i]; !strings.HasPrefix(r, fmt.Sprint(spec[i], " ", c, " ")) {
							t.Errorf("speculative case %d: %s, want %s", i, r, c)
						}
						if c == "stale" && cache == 1 {
							blocks[len(blocks)-len(classes)+i] = fmt.Sprint(1, bs)
						}
					}
					compare("results", got.Results, want.Results)
					compare("read sets", got.ReadSets, want.ReadSets)
					compare("aliases", got.Moved, want.Moved)
					compareSeqlockTraffic(t, fmt.Sprintf("%s/block=%d/cache=%d", tier.traffic, bs, cache), got, want, blocks)
					compare("counters", got.Counters, want.Counters)
					if !reflect.DeepEqual(got.Words, want.Words) {
						t.Error("word windows (lock words, free lists, index) differ from the reference's")
					}
				})
			}
		}
	}
}

// seqlockTraffic is what each step of TestAssociateMatchesReference costs on
// the seqlock tiers — remote GETs, GET trains, remote atomics, atomic
// trains: the cold batch, the warm batch, then the seven speculative checks.
// A read-write transaction reads as a read-only one does, but never from a
// follower copy, so it GETs what the optimistic tier's follower serves
// locally, and its fourth check is a refused translation too.
// Its seqlock reads load the guard inside their GET trains, where the
// reference stamped its holders in a load train ahead of its GETs and
// post-stamped them in another behind. So the GETs are the reference's, and
// every round trip is a train: one per owner rank and round that GETs, a load
// train for a round the cache serves whole. A round reads every block the
// blocks before it locate, so the cold 64-byte batches take 6 and 7 GET
// trains where one block per round took 12 and 13. The atomics are one load per
// holder stamped in a head round plus one behind every block fetched, in
// place of the reference's stamp and post-stamp per holder. The last two
// checks are refused translations, which the one-block cache makes GET their
// head block: 1 GET, 1 GET train, 2 loads, where the reference stamped once.
var seqlockTraffic = map[string][]string{
	"optimistic/block=64/cache=512":  {"16 6 24 0", "1 1 9 2", "0 0 0 0", "0 0 1 1", "0 0 0 0", "0 0 0 0", "0 0 1 1", "0 0 1 1", "0 0 1 1"},
	"optimistic/block=64/cache=1":    {"20 7 28 0", "19 7 27 0", "0 0 0 0", "2 2 3 0", "0 0 0 0", "0 0 0 0", "2 2 3 0", "1 1 2 0", "1 1 2 0"},
	"optimistic/block=256/cache=512": {"7 4 15 0", "1 1 9 2", "0 0 0 0", "0 0 1 1", "0 0 0 0", "0 0 0 0", "0 0 1 1", "0 0 1 1", "0 0 1 1"},
	"optimistic/block=256/cache=1":   {"9 4 17 0", "8 4 16 0", "0 0 0 0", "1 1 2 0", "0 0 0 0", "0 0 0 0", "1 1 2 0", "1 1 2 0", "1 1 2 0"},
	"read-write/block=64/cache=512":  {"20 7 30 0", "1 1 11 2", "0 0 0 0", "0 0 1 1", "0 0 1 1", "0 0 1 1", "0 0 1 1", "0 0 1 1", "0 0 1 1"},
	"read-write/block=64/cache=1":    {"24 7 34 0", "23 7 33 0", "0 0 0 0", "2 2 3 0", "2 2 3 0", "1 1 2 0", "2 2 3 0", "1 1 2 0", "1 1 2 0"},
	"read-write/block=256/cache=512": {"9 4 19 0", "1 1 11 2", "0 0 0 0", "0 0 1 1", "0 0 1 1", "0 0 1 1", "0 0 1 1", "0 0 1 1", "0 0 1 1"},
	"read-write/block=256/cache=1":   {"11 4 21 0", "10 4 20 0", "0 0 0 0", "1 1 2 0", "1 1 2 0", "1 1 2 0", "1 1 2 0", "1 1 2 0", "1 1 2 0"},
}

// compareSeqlockTraffic checks the seqlock tiers' traffic in
// TestAssociateMatchesReference, step by step: the counts seqlockTraffic
// restates, the remote GETs and bytes got in blocks, and the round trips,
// every one of them a train and never more than the reference's.
func compareSeqlockTraffic(t *testing.T, config string, got, want assocOutcome, blocks []string) {
	t.Helper()
	if !reflect.DeepEqual(got.Traffic, seqlockTraffic[config]) {
		t.Errorf("remote traffic differs from the seqlock tier's:\n got %v\nwant %v", got.Traffic, seqlockTraffic[config])
	}
	if !reflect.DeepEqual(got.Blocks, blocks) {
		t.Errorf("remote GETs and bytes got differ:\n got %v\nwant %v", got.Blocks, blocks)
	}
	for k, n := range got.Trips {
		if n != got.Trains[k] || n > want.Trips[k] {
			t.Errorf("step %d: %d round trips, want its %d trains and at most the reference's %d", k, n, got.Trains[k], want.Trips[k])
		}
	}
}

// TestFollowerThatCannotServeFallsBack: a follower copy whose head no longer
// reads as one is dropped from the directory and the primary is read in its
// place, in the same association; a follower that is merely busy (its word
// write-marked by a fan-out) is read around but kept.
func TestFollowerThatCannotServeFallsBack(t *testing.T) {
	for _, busy := range []bool{false, true} {
		t.Run(fmt.Sprintf("busy=%v", busy), func(t *testing.T) {
			_, e := newReplicaEngine(t, 2)
			_, _, age, _ := seedPersonSchema(t, e)
			seed := e.StartLocal(1, ReadWrite)
			const app = 1 // placed on rank 1
			dp, err := seed.CreateVertex(app)
			if err != nil {
				t.Fatal(err)
			}
			h, _ := seed.AssociateVertex(dp)
			if err := h.AddProperty(age, lpg.EncodeUint64(41)); err != nil {
				t.Fatal(err)
			}
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}
			if n := e.ReplicateFromRank(0, 1, 2); n != 1 {
				t.Fatalf("seeded %d follower copies, want 1", n)
			}
			ent, _ := e.repl[0].lookup(dp)
			if busy {
				w := e.lockWordOf(ent.head)
				if !locks.AcquireMirrorTrain(0, []locks.Word{w}, []uint64{locks.Version(w.Stamp(0))})[0] {
					t.Fatal("could not mark the follower word")
				}
			} else {
				e.Store().WriteBlock(0, ent.head, make([]byte, 64))
			}

			served := e.ReplicaReads()
			tx := e.StartLocal(0, ReadOnly)
			h, err = tx.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if p, ok := h.Property(age); !ok || lpg.DecodeUint64(p) != 41 {
				t.Fatalf("age = %v, %v; want the primary's 41", p, ok)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if e.ReplicaReads() != served {
				t.Error("the follower copy served the read")
			}
			if _, kept := e.repl[0].lookup(dp); kept != busy {
				t.Errorf("directory entry kept = %v, want %v", kept, busy)
			}
		})
	}
}

// TestWriteHeldStampCachesNothing: on the seqlock tier a guard a writer holds
// cannot validate, so nothing read under it counts or is cached. The head
// round loads the guard in the same train as the head block, so a read
// learns of the writer only after its first GET: the point read declines
// after its one guarded train, and an association after its first, then
// retries on stamp trains alone — one guard load per attempt, no block —
// until its budget runs out.
func TestWriteHeldStampCachesNothing(t *testing.T) {
	const tries = 4
	e := NewEngine(rma.New(2), Config{BlockSize: 64, BlocksPerRank: 1 << 10, LockTries: tries})
	seed := e.StartLocal(1, ReadWrite)
	dp, err := seed.CreateVertex(1) // placed on rank 1
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	w := e.lockWordOf(dp)
	if _, err := locks.AcquireWriteTrain(1, []locks.TrainLock{{Word: w}}, 4); err != nil {
		t.Fatal(err)
	}
	point := measure(e, func() {
		if e.OptimisticPointRead(0, dp, &ReadArena{}, func(*holder.View) {}) {
			t.Error("the point read accepted a write-held holder")
		}
	})
	if want := (traffic{atoms: 2, gets: 1, getTrains: 1, cacheMisses: 1}); point != want {
		t.Errorf("point read of a write-held holder: %+v, want one guarded train %+v", point, want)
	}
	assoc := measure(e, func() {
		tx := e.StartLocal(0, ReadOnly)
		if _, err := tx.AssociateVertex(dp); !errors.Is(err, ErrTxCritical) {
			t.Errorf("AssociateVertex under a writer: err = %v, want a transaction-critical one", err)
		}
		tx.Abort()
	})
	if want := (traffic{atoms: 2 + tries - 1, atomTrains: tries - 1, gets: 1, getTrains: 1, cacheMisses: 1}); assoc != want {
		t.Errorf("association of a write-held holder: %+v, want one guarded train and %d stamp trains %+v", assoc, tries-1, want)
	}
	if n := e.Store().CacheLen(0); n != 0 {
		t.Errorf("%d blocks of a write-held holder cached", n)
	}
}

// TestSeqlockReadRoundTrips pins the round trips of the seqlock tier at two
// ranks, read off the fabric counters. Every read below is a train: a guarded
// GET train counts in GetBatches (its loads and GETs in RemoteAtoms and
// RemoteGets), one that loads alone in AtomicBatches, and no scalar op is
// issued, so the trains are the round trips. Before this protocol the guard
// was stamped in a train of its own ahead of the GETs and post-stamped in
// another behind them: 3 round trips for a one-block holder, k+2 for a
// k-block chain, and 3 per owner rank for a frontier hop. A chain takes one
// round per step of its block table, not one per block, on every mode of
// the chain reader.
func TestSeqlockReadRoundTrips(t *testing.T) {
	log := &windowLog{Transport: rma.New(2)}
	e := NewEngine(log, Config{BlockSize: 64, BlocksPerRank: 1 << 10, LockTries: 16})
	pt := payloadPType(t, e)
	create := func(app uint64, words int) fabric.DPtr {
		t.Helper()
		tx := e.StartLocal(1, ReadWrite)
		dp, err := tx.CreateVertex(app)
		if err != nil {
			t.Fatal(err)
		}
		if words > 0 {
			h, err := tx.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.SetProperty(pt, payloadPattern(0, words)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if dp.Rank() != 1 {
			t.Fatalf("vertex %d placed on rank %d, want the remote rank 1", app, dp.Rank())
		}
		return dp
	}
	blocks := func(dp fabric.DPtr) int {
		head := make([]byte, 64)
		e.Store().ReadBlock(1, dp, head)
		return holder.NumBlocks(head)
	}
	// associate measures one optimistic association from rank 0, up to
	// Commit, and commits.
	associate := func(dp fabric.DPtr) traffic {
		t.Helper()
		tx := e.StartLocal(0, ReadOnly)
		cost := measure(e, func() {
			if _, err := tx.AssociateVertex(dp); err != nil {
				t.Fatal(err)
			}
		})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return cost
	}

	one, chain := create(1, 0), create(3, 8)
	if n := blocks(one); n != 1 {
		t.Fatalf("the small holder has %d blocks, want 1", n)
	}
	if n := blocks(chain); n != 2 {
		t.Fatalf("the payload holder has %d blocks, want 2", n)
	}
	cases := []struct {
		name string
		dp   fabric.DPtr
		want traffic
	}{
		// Load, GET, load: one train (3 before).
		{"cold one-block", one, traffic{atoms: 2, gets: 1, getTrains: 1, cacheMisses: 1}},
		// The head is in the validated cache: a train of one load (1 before).
		{"cached one-block", one, traffic{atoms: 1, atomTrains: 1, cacheHits: 1}},
		// Load, GET, load; then GET, load: two trains (4 before).
		{"cold two-block chain", chain, traffic{atoms: 3, gets: 2, getTrains: 2, cacheMisses: 2}},
	}
	for _, c := range cases {
		if got := associate(c.dp); got != c.want {
			t.Errorf("%s association: %+v, want %+v", c.name, got, c.want)
		}
	}

	// Longer chains: each continuation round reads every block whose table
	// entry lies in the blocks already read. At 64-byte blocks the head
	// names blocks 1–4 and blocks 1–4 name blocks 5–36, so a cold chain of 5
	// blocks costs 2 trains, 6 blocks 3, 37 blocks 3 and 38 blocks 4 (one
	// train per block before), a GET per block and a load per block plus the
	// stamp.
	app := uint64(201)
	longChain := func(k int64) fabric.DPtr {
		t.Helper()
		for words := 1; ; words++ {
			v := &holder.Vertex{AppID: app, Entries: lpg.AppendPropertyEntry(nil, pt, payloadPattern(0, words))}
			if n := holder.VertexBlocks(v, 64); n == int(k) {
				dp := create(app, words)
				app += 2
				if n := blocks(dp); n != int(k) {
					t.Fatalf("the payload holder has %d blocks, want %d", n, k)
				}
				return dp
			} else if n > int(k) {
				t.Fatalf("no payload makes a %d-block holder", k)
			}
		}
	}
	chains := []struct{ blocks, rounds int64 }{{5, 2}, {6, 3}, {37, 3}, {38, 4}}
	for _, c := range chains {
		dp := longChain(c.blocks)
		want := traffic{atoms: c.blocks + 1, gets: c.blocks, getTrains: c.rounds, cacheMisses: c.blocks}
		if got := associate(dp); got != want {
			t.Errorf("cold %d-block chain association: %+v, want %+v", c.blocks, got, want)
		}
	}
	// The same rounds on the chain reader's other mode, a read under lock
	// (the chain mover), from rank 0 with a cold cache. Each round is one
	// GET train, or a scalar GET for the lone head block, so the round trips
	// are the rounds.
	for _, c := range chains {
		dp := longChain(c.blocks)
		var r chainReader
		r.reset(1)
		r.items = append(r.items, chainItem{head: dp})
		trips := log.trips.Load()
		got := measure(e, func() { r.read(e, 0, readUnderLock, false, false) })
		if v := r.items[0].verdict; v != readOK {
			t.Fatalf("%d-block chain under lock: verdict %d", c.blocks, v)
		}
		if n := log.trips.Load() - trips; n != c.rounds || got.gets != c.blocks || got.atoms != 0 {
			t.Errorf("cold %d-block chain under lock: %d round trips, %+v; want %d round trips and %d GETs",
				c.blocks, n, got, c.rounds, c.blocks)
		}
	}

	// A frontier hop reads its frontier in one guarded train per owner rank,
	// a GET and two loads per vertex, the stamp ahead of its head and the
	// post-stamp behind it: no load train goes first (3 trains per owner
	// rank before, then 2).
	const width = 8
	frontier := make([]fabric.DPtr, width)
	for i := range frontier {
		frontier[i] = create(uint64(101+2*i), 0)
	}
	tx := e.StartLocal(0, ReadOnly)
	hop := measure(e, func() {
		if _, _, err := tx.ExpandFrontier(frontier, MaskAll, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if want := (traffic{atoms: 2 * width, gets: width, getTrains: 1, cacheMisses: width}); hop != want {
		t.Errorf("frontier hop over %d remote one-block holders: %+v, want %+v", width, hop, want)
	}

	// A frontier vertex behind a forwarding stub costs the hop its head
	// block in the batch's guarded train, which finds the stub and drops
	// it, before the flush resolves it in a guarded train of its own: the
	// stub again, then the vertex at its new home, here the reader's rank
	// (a stamp train, then the flush's train, before).
	moved := mustMigrate(t, e, 101, 0)
	stub := measure(e, func() {
		tx := e.StartLocal(0, ReadOnly)
		matched, _, err := tx.ExpandFrontier(frontier[:1], MaskAll, nil)
		if err != nil || !slices.Equal(matched, []fabric.DPtr{moved}) {
			t.Fatalf("hop over a stub: matched %v, %v; want [%v]", matched, err, moved)
		}
		tx.Abort()
	})
	if want := (traffic{atoms: 4, gets: 2, getTrains: 2, cacheMisses: 2}); stub != want {
		t.Errorf("frontier hop over a remote forwarding stub: %+v, want %+v", stub, want)
	}
}

// TestReadScratchReleaseDropsEveryPointer: a pooled reader that served a
// batch of 40 chains and then one of a single chain points into neither
// batch's streams once released, although release clears only what the
// last batch left: every batch empties the slices through reuse, which
// clears what the one before held.
func TestReadScratchReleaseDropsEveryPointer(t *testing.T) {
	e := NewEngine(rma.New(2), Config{BlockSize: 64, BlocksPerRank: 1 << 10, LockTries: 64, CacheCapacity: 256})
	pt := payloadPType(t, e)
	var heads []fabric.DPtr
	for app := range uint64(40) {
		heads = append(heads, seedPayloadVertex(t, e, app, pt, 8))
	}
	s := new(readScratch)
	r := &s.chainReader
	for _, batch := range [][]fabric.DPtr{heads, heads[:1]} {
		r.items = reuse(r.items)
		for _, h := range batch {
			r.items = append(r.items, chainItem{head: h})
		}
		r.read(e, 0, readSeqlock, false, false)
		if r.items[0].verdict != readOK || len(batch) > 1 && len(r.fetched) == 0 {
			t.Fatalf("the batch of %d read %v, %d blocks off the wire", len(batch), r.items[0].verdict, len(r.fetched))
		}
	}
	s.release()
	for i, it := range r.items[:cap(r.items)] {
		if it.buf != nil || it.want != nil {
			t.Fatalf("item %d keeps its stream after release", i)
		}
	}
	for i, rd := range r.reads[:cap(r.reads)] {
		if rd.Buf != nil {
			t.Fatalf("read %d keeps its block after release", i)
		}
	}
	for i, f := range r.fetched[:cap(r.fetched)] {
		if f.Buf != nil {
			t.Fatalf("fetched read %d keeps its block after release", i)
		}
	}
	for i, b := range r.bufs[:cap(r.bufs)] {
		if b != nil {
			t.Fatalf("buffer %d kept after release", i)
		}
	}
}
