package core

import (
	"errors"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// collectiveFixture is a two-rank engine whose vertices all live on rank 1,
// created by a rank-1 transaction, so rank 0 reads each of them remotely and
// has cached no translation of any.
type collectiveFixture struct {
	e   *Engine
	age lpg.PTypeID
	dps []fabric.DPtr // vertex i has application ID 2i+1 and age i
}

func newCollectiveFixture(t *testing.T, n int) *collectiveFixture {
	t.Helper()
	f := &collectiveFixture{e: NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 1 << 12, LockTries: 64, CacheCapacity: 1 << 12})}
	_, _, f.age, _ = seedPersonSchema(t, f.e)
	tx := f.e.StartLocal(1, ReadWrite)
	for i := range n {
		dp, err := tx.CreateVertex(uint64(2*i + 1))
		if err != nil {
			t.Fatal(err)
		}
		h, err := tx.AssociateVertex(dp)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AddProperty(f.age, lpg.EncodeUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
		f.dps = append(f.dps, dp)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return f
}

// collectively runs one collective read-only transaction on both ranks:
// rank 0 runs read in it, rank 1 runs other (either may be nil) before the
// collective Commit. It returns each rank's Commit error, or the error read
// or other returned instead.
func (f *collectiveFixture) collectively(t *testing.T, read func(tx *Tx) error, other func() error) []error {
	t.Helper()
	return runCollective(t, f.e, func(r rma.Rank) error {
		tx := f.e.StartCollective(r, ReadOnly)
		work := read
		if r != 0 {
			work = func(*Tx) error { return nil }
			if other != nil {
				work = func(*Tx) error { return other() }
			}
		}
		if err := work(tx); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	})
}

// TestCollectiveReadOnlyCommitValidatesPerRank: a collective read-only
// transaction keeps a read set, and each rank's Commit validates its own. A
// local writer that commits to the vertex rank 0 read, between that read and
// the collective Commit, fails rank 0's commit with a transaction-critical
// error; rank 1, which read nothing, commits; and both ranks return.
func TestCollectiveReadOnlyCommitValidatesPerRank(t *testing.T) {
	f := newCollectiveFixture(t, 1)
	read := make(chan struct{})
	errs := f.collectively(t, func(tx *Tx) error {
		defer close(read)
		_, err := tx.AssociateVertex(f.dps[0])
		return err
	}, func() error {
		<-read
		w := f.e.StartLocal(1, ReadWrite)
		h, err := w.AssociateVertex(f.dps[0])
		if err != nil {
			return err
		}
		if err := h.SetProperty(f.age, lpg.EncodeUint64(99)); err != nil {
			return err
		}
		return w.Commit()
	})
	if !errors.Is(errs[0], ErrTxCritical) {
		t.Errorf("rank 0 committed a read a local writer overwrote: %v, want ErrTxCritical", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("rank 1, which read nothing: %v, want nil", errs[1])
	}
}

// TestCollectiveFrontierHopsTakeTheLeanRoute: a collective read-only
// transaction's frontier hops are a local one's. A filter hop with LIMIT 5
// over 520 remote vertices stops early, reading far fewer holders than the
// frontier names, and an expansion hop reads its frontier into the hop's
// arena, materializing no vertex state in the transaction.
func TestCollectiveFrontierHopsTakeTheLeanRoute(t *testing.T) {
	const width, limit = 520, 5
	f := newCollectiveFixture(t, width)
	cons := constraint.New(f.e.Registry(0))
	i := cons.AddSubconstraint(constraint.Subconstraint{})
	cons.AddPropCond(i, constraint.PropCond{PType: f.age, Datatype: lpg.TypeUint64, Op: constraint.OpGe, Operand: lpg.EncodeUint64(0)})

	var matched int
	var read int64
	var states int
	for r, err := range f.collectively(t, func(tx *Tx) error {
		before := f.e.Fabric().TotalSnapshot()
		ids, _, err := tx.FilterFrontier(f.dps, nil, cons, limit, 0)
		after := f.e.Fabric().TotalSnapshot()
		matched, read = len(ids), after.RemoteGets+after.CacheHits-before.RemoteGets-before.CacheHits
		if err != nil {
			return err
		}
		if _, _, err := tx.ExpandFrontier(f.dps, MaskAll, nil); err != nil {
			return err
		}
		states = len(tx.verts)
		return nil
	}, nil) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if matched < limit || read >= width/4 {
		t.Errorf("a collective LIMIT %d hop over %d vertices matched %d and read %d holders, want at least %d matches from fewer than %d reads",
			limit, width, matched, read, limit, width/4)
	}
	if states != 0 {
		t.Errorf("a collective expansion hop materialized %d vertex states, want none", states)
	}
}

// TestCollectiveTranslateHitsTheCache: a collective transaction translates
// through the rank's translation cache as a local one does, so a repeated
// translation of a remote vertex is served by the cache.
func TestCollectiveTranslateHitsTheCache(t *testing.T) {
	f := newCollectiveFixture(t, 1)
	var stats [2][2]int64 // per translation: hits, misses after it
	for k := range stats {
		for r, err := range f.collectively(t, func(tx *Tx) error {
			dp, err := tx.TranslateVertexID(1)
			if err == nil && dp != f.dps[0] {
				err = errors.New("translated to another vertex")
			}
			stats[k][0], stats[k][1] = f.e.TranslationCacheStats()
			return err
		}, nil) {
			if err != nil {
				t.Fatalf("translation %d, rank %d: %v", k, r, err)
			}
		}
	}
	if stats[0] != [2]int64{0, 1} || stats[1] != [2]int64{1, 1} {
		t.Errorf("translation cache (hits, misses) after each of two collective translations: %v, want [[0 1] [1 1]]", stats)
	}
}
