package core

import (
	"errors"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// ilWorld is the fixture of the interleaving table: two counters, x (app 1,
// on rank 1) and y (app 0, on rank 0), both at 0. T1 runs on rank 0 and T2
// on rank 1, so x is remote to T1.
type ilWorld struct {
	t    *testing.T
	e    *Engine
	n    lpg.PTypeID
	x, y fabric.DPtr
}

func newILWorld(t *testing.T) *ilWorld {
	t.Helper()
	e := NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 16})
	n, err := e.DefinePType("n", metadata.PTypeSpec{Datatype: lpg.TypeUint64, SizeType: lpg.SizeFixed, Limit: 8})
	if err != nil {
		t.Fatal(err)
	}
	w := &ilWorld{t: t, e: e, n: n}
	seed := e.StartLocal(0, ReadWrite)
	w.x, _ = seed.CreateVertex(1)
	w.y, _ = seed.CreateVertex(0)
	for _, dp := range []fabric.DPtr{w.x, w.y} {
		w.set(seed, dp, 0)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	return w
}

// get reads dp's counter in tx.
func (w *ilWorld) get(tx *Tx, dp fabric.DPtr) uint64 {
	w.t.Helper()
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		w.t.Fatal(err)
	}
	v, ok := h.Property(w.n)
	if !ok {
		w.t.Fatalf("%v has no counter", dp)
	}
	return lpg.DecodeUint64(v)
}

// set writes dp's counter in tx.
func (w *ilWorld) set(tx *Tx, dp fabric.DPtr, v uint64) {
	w.t.Helper()
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		w.t.Fatal(err)
	}
	if err := h.SetProperty(w.n, lpg.EncodeUint64(v)); err != nil {
		w.t.Fatal(err)
	}
}

// commits fails the test unless tx's commit succeeds (want) or is refused
// as transaction-critical (!want).
func (w *ilWorld) commits(name string, tx *Tx, want bool) {
	w.t.Helper()
	checkCommit(w.t, name, tx.Commit(), want)
}

func checkCommit(t *testing.T, name string, err error, want bool) {
	t.Helper()
	switch {
	case want && err != nil:
		t.Fatalf("%s's commit: %v, want it to commit", name, err)
	case !want && !errors.Is(err, ErrTxCritical):
		t.Fatalf("%s's commit: %v, want a transaction-critical abort", name, err)
	}
}

// duringCommit commits tx and runs fn inside the commit, right after its
// lock train: where a concurrent committer holds its write set's words and
// has not validated its reads yet. fn runs with the hook removed, so the
// commits it makes are plain.
func duringCommit(tx *Tx, fn func()) error {
	const lockPhase = 1 // prepare[1] is commitRun.lock
	lock := prepare[lockPhase]
	defer func() { prepare[lockPhase] = lock }()
	prepare[lockPhase] = func(r *commitRun) error {
		prepare[lockPhase] = lock
		err := lock(r)
		if err == nil {
			fn()
		}
		return err
	}
	return tx.Commit()
}

// TestInterleavingsSerialize runs two-transaction interleavings, one step at
// a time in one goroutine, and holds each to the serial outcome it accepts:
// which transactions commit, and the counters x and y afterwards.
func TestInterleavingsSerialize(t *testing.T) {
	cases := []struct {
		name   string
		serial string // the serial history the outcome matches
		run    func(w *ilWorld)
		x, y   uint64
	}{{
		name:   "write-skew",
		serial: "T1 alone: T2 read the x T1 overwrote",
		run: func(w *ilWorld) {
			t1, t2 := w.e.StartLocal(0, ReadWrite), w.e.StartLocal(1, ReadWrite)
			s1, s2 := w.get(t1, w.x)+w.get(t1, w.y), w.get(t2, w.x)+w.get(t2, w.y)
			w.set(t1, w.x, s1+1)
			w.set(t2, w.y, s2+1)
			w.commits("T1", t1, true)
			w.commits("T2", t2, false)
		},
		x: 1,
	}, {
		name:   "write-skew-mid-commit",
		serial: "T1 alone: T2 validates while T1 holds x, and T2's abort, which wrote nothing, leaves the y T1 read where it was",
		run: func(w *ilWorld) {
			t1, t2 := w.e.StartLocal(0, ReadWrite), w.e.StartLocal(1, ReadWrite)
			s1, s2 := w.get(t1, w.x)+w.get(t1, w.y), w.get(t2, w.x)+w.get(t2, w.y)
			w.set(t1, w.x, s1+1)
			w.set(t2, w.y, s2+1)
			err := duringCommit(t1, func() { w.commits("T2", t2, false) })
			checkCommit(w.t, "T1", err, true)
		},
		x: 1,
	}, {
		name:   "lost-update",
		serial: "T1 alone: T2 read the x T1 overwrote",
		run: func(w *ilWorld) {
			t1, t2 := w.e.StartLocal(0, ReadWrite), w.e.StartLocal(1, ReadWrite)
			n1, n2 := w.get(t1, w.x), w.get(t2, w.x)
			w.set(t1, w.x, n1+1)
			w.set(t2, w.x, n2+1)
			w.commits("T1", t1, true)
			w.commits("T2", t2, false)
		},
		x: 1,
	}, {
		name:   "read-vertex-rewritten",
		serial: "T2 alone: T1 read the x T2 overwrote",
		run: func(w *ilWorld) {
			t1 := w.e.StartLocal(0, ReadWrite)
			w.set(t1, w.y, w.get(t1, w.x)+1)
			t2 := w.e.StartLocal(1, ReadWrite)
			w.set(t2, w.x, 5)
			w.commits("T2", t2, true)
			w.commits("T1", t1, false)
		},
		x: 5,
	}, {
		name:   "read-vertex-migrates",
		serial: "the move alone: T1 read x at the home it left",
		run: func(w *ilWorld) {
			t1 := w.e.StartLocal(0, ReadWrite)
			w.set(t1, w.y, w.get(t1, w.x)+1)
			w.x = mustMigrate(w.t, w.e, 1, 0)
			w.commits("T1", t1, false)
		},
	}, {
		name:   "written-vertex-migrates",
		serial: "the move alone: T1 would write x at the home it left",
		run: func(w *ilWorld) {
			t1 := w.e.StartLocal(0, ReadWrite)
			w.set(t1, w.x, w.get(t1, w.x)+1)
			w.x = mustMigrate(w.t, w.e, 1, 0)
			w.commits("T1", t1, false)
		},
	}, {
		name:   "stale-translation",
		serial: "T2 then T1: T1's cached translation of x is refused and the index read",
		run: func(w *ilWorld) {
			warm := w.e.StartLocal(0, ReadOnly)
			w.get(warm, w.x)
			if _, err := warm.TranslateVertexID(1); err != nil {
				w.t.Fatal(err)
			}
			w.commits("the warm-up", warm, true)
			t2 := w.e.StartLocal(1, ReadWrite)
			w.set(t2, w.x, 7)
			w.commits("T2", t2, true)
			hits, _ := w.e.TranslationCacheStats()
			t1 := w.e.StartLocal(0, ReadWrite)
			dp, err := t1.TranslateVertexID(1)
			if err != nil || dp != w.x {
				w.t.Fatalf("T1 translated x to %v, %v", dp, err)
			}
			if h, _ := w.e.TranslationCacheStats(); h != hits {
				w.t.Fatal("a stale translation was served as a hit")
			}
			w.set(t1, w.x, w.get(t1, w.x)+1)
			w.commits("T1", t1, true)
		},
		x: 8,
	}, {
		name:   "translation-hit-then-rewritten",
		serial: "T2 alone: T1 read the x T2 overwrote",
		run: func(w *ilWorld) {
			warm := w.e.StartLocal(0, ReadOnly)
			if _, err := warm.TranslateVertexID(1); err != nil {
				w.t.Fatal(err)
			}
			w.commits("the warm-up", warm, true)
			t1 := w.e.StartLocal(0, ReadWrite)
			if _, err := t1.TranslateVertexID(1); err != nil {
				w.t.Fatal(err)
			}
			t2 := w.e.StartLocal(1, ReadWrite)
			w.set(t2, w.x, 7)
			w.commits("T2", t2, true)
			w.set(t1, w.x, w.get(t1, w.x)+1)
			w.commits("T1", t1, false)
		},
		x: 7,
	}, {
		name:   "frontier-over-own-deletion",
		serial: "T1 alone, aborted: its hops see the x it deleted gone",
		run: func(w *ilWorld) {
			t1 := w.e.StartLocal(0, ReadWrite)
			defer t1.Abort()
			if err := t1.DeleteVertex(w.x); err != nil {
				w.t.Fatal(err)
			}
			frontier := []fabric.DPtr{w.y, w.x}
			if _, _, err := t1.ExpandFrontier(frontier, MaskAll, nil); !errors.Is(err, ErrNotFound) {
				w.t.Fatalf("ExpandFrontier over a vertex T1 deleted: %v, want ErrNotFound", err)
			}
			if _, _, err := t1.FilterFrontier(frontier, nil, nil, 1, 0); !errors.Is(err, ErrNotFound) {
				w.t.Fatalf("FilterFrontier with LIMIT 1 over a vertex T1 deleted: %v, want ErrNotFound", err)
			}
		},
	}, {
		name:   "frontier-sees-own-write",
		serial: "T1 alone: its hops see the x it wrote",
		run: func(w *ilWorld) {
			t1 := w.e.StartLocal(0, ReadWrite)
			w.set(t1, w.x, 9)
			nine := constraint.New(w.e.Registry(0))
			nine.AddPropCond(nine.AddSubconstraint(constraint.Subconstraint{}),
				constraint.PropCond{PType: w.n, Datatype: lpg.TypeUint64, Op: constraint.OpEq, Operand: lpg.EncodeUint64(9)})
			frontier := []fabric.DPtr{w.y, w.x}
			for _, limit := range []int{0, 1} {
				if got, _, err := t1.FilterFrontier(frontier, nil, nine, limit, 0); err != nil || !slices.Equal(got, []fabric.DPtr{w.x}) {
					w.t.Fatalf("FilterFrontier (LIMIT %d) for T1's write: %v, %v; want [%v]", limit, got, err, w.x)
				}
			}
			w.commits("T1", t1, true)
		},
		x: 9,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newILWorld(t)
			c.run(w)
			check := w.e.StartLocal(0, ReadOnly)
			if x, y := w.get(check, w.x), w.get(check, w.y); x != c.x || y != c.y {
				t.Fatalf("x, y = %d, %d after the interleaving; %s gives %d, %d", x, y, c.serial, c.x, c.y)
			}
			w.commits("the check", check, true)
		})
	}
}

// TestHeavyEdgeConcurrentIncrementsCommitOnce: two read-write transactions
// each add 1 to one heavy edge's property, interleaved — both read it, both
// write it, then both commit. The edge holder is in both read sets and in
// both lock trains, so exactly one commits, the property ends at 1, and the
// committed write-back bumped the holder's version.
func TestHeavyEdgeConcurrentIncrementsCommitOnce(t *testing.T) {
	w := newILWorld(t)
	seed := w.e.StartLocal(0, ReadWrite)
	uid, err := seed.CreateRichEdge(w.y, w.x, holder.DirOut, nil, []lpg.Property{{PType: w.n, Value: lpg.EncodeUint64(0)}})
	if err != nil {
		t.Fatal(err)
	}
	w.commits("the seed", seed, true)
	look := w.e.StartLocal(0, ReadOnly)
	h, err := look.AssociateVertex(uid.Vertex)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := h.Edges(MaskAll, nil)
	if err != nil || infos.Len() != 1 || !infos.At(0).Heavy {
		t.Fatalf("the seeded edge: %+v, %v", infos, err)
	}
	hp := infos.At(0).Holder
	w.commits("the lookup", look, true)
	before := versionAt(w.e, 0, hp)

	incr := func(tx *Tx) func() {
		eh, err := tx.AssociateEdgeHolder(hp)
		if err != nil {
			t.Fatal(err)
		}
		n := lpg.DecodeUint64(eh.Properties(w.n)[0])
		return func() {
			if err := eh.SetProperty(w.n, lpg.EncodeUint64(n+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	t1, t2 := w.e.StartLocal(0, ReadWrite), w.e.StartLocal(1, ReadWrite)
	write1, write2 := incr(t1), incr(t2)
	write1()
	write2()
	err1, err2 := t1.Commit(), t2.Commit()
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("commits: %v, %v; want exactly one to commit", err1, err2)
	}
	check := w.e.StartLocal(0, ReadOnly)
	eh, err := check.AssociateEdgeHolder(hp)
	if err != nil {
		t.Fatal(err)
	}
	if n := lpg.DecodeUint64(eh.Properties(w.n)[0]); n != 1 {
		t.Fatalf("the edge's property is %d after two increments of which one committed, want 1", n)
	}
	w.commits("the check", check, true)
	if after := versionAt(w.e, 0, hp); after <= before {
		t.Fatalf("the edge holder's version went %d → %d: its write-back was not locked", before, after)
	}
}
