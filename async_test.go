package gdi_test

// Tests for the non-blocking tier: VertexFuture (AssociateVertexAsync) and
// the batch entry point AssociateVertices.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/locks"
)

// asyncDB builds a database over `ranks` processes with one vertex per rank
// (appID i lives on rank i%ranks) and returns the vertex IDs by appID.
func asyncDB(t *testing.T, ranks, nverts int, params gdi.DatabaseParams) (*gdi.Runtime, *gdi.Database, []gdi.VertexID) {
	t.Helper()
	rt := gdi.Init(ranks)
	db := rt.CreateDatabase(params)
	p := db.Process(0)
	tx := p.StartTransaction(gdi.ReadWrite)
	ids := make([]gdi.VertexID, nverts)
	for i := range ids {
		id, err := tx.CreateVertex(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return rt, db, ids
}

func TestAssociateVerticesCrossRankOrder(t *testing.T) {
	const ranks, nverts = 4, 16
	_, db, ids := asyncDB(t, ranks, nverts, gdi.DatabaseParams{})
	p := db.Process(0)
	tx := p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()

	// Shuffle deterministically so consecutive entries hit different ranks.
	batch := make([]gdi.VertexID, 0, nverts)
	apps := make([]uint64, 0, nverts)
	for i := 0; i < nverts; i++ {
		j := (i*7 + 3) % nverts
		batch = append(batch, ids[j])
		apps = append(apps, uint64(j))
	}
	handles, err := tx.AssociateVertices(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != len(batch) {
		t.Fatalf("got %d handles for %d inputs", len(handles), len(batch))
	}
	for i, h := range handles {
		if h == nil {
			t.Fatalf("handle %d is nil", i)
		}
		if h.ID() != batch[i] {
			t.Errorf("handle %d: ID %v, want %v (input order not preserved)", i, h.ID(), batch[i])
		}
		if h.AppID() != apps[i] {
			t.Errorf("handle %d: appID %d, want %d", i, h.AppID(), apps[i])
		}
	}
}

func TestAssociateVerticesSmallBatches(t *testing.T) {
	_, db, ids := asyncDB(t, 2, 4, gdi.DatabaseParams{})
	p := db.Process(0)
	tx := p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()

	// Size 0: no communication, no error.
	handles, err := tx.AssociateVertices(nil)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if len(handles) != 0 {
		t.Fatalf("empty batch returned %d handles", len(handles))
	}
	// Size 1: equivalent to the scalar call.
	handles, err = tx.AssociateVertices(ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 1 || handles[0] == nil || handles[0].AppID() != 0 {
		t.Fatalf("singleton batch: got %+v", handles)
	}
	// Duplicates resolve to the same per-transaction state.
	handles, err = tx.AssociateVertices([]gdi.VertexID{ids[1], ids[1], ids[1]})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if h == nil || h.ID() != ids[1] {
			t.Fatalf("duplicate entry %d resolved to %v", i, h)
		}
	}
}

func TestAssociateVerticesMixedFoundNotFound(t *testing.T) {
	const ranks = 2
	rt, db, ids := asyncDB(t, ranks, 6, gdi.DatabaseParams{})
	_ = rt
	p := db.Process(0)

	// Delete one vertex so its DPtr dangles.
	del := p.StartTransaction(gdi.ReadWrite)
	if err := del.DeleteVertex(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	batch := []gdi.VertexID{ids[0], ids[2], ids[1], ids[2], ids[3]}
	handles, err := tx.AssociateVertices(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, true, false, true} {
		if (handles[i] != nil) != want {
			t.Errorf("entry %d: found=%v, want %v", i, handles[i] != nil, want)
		}
	}
	if handles[0].AppID() != 0 || handles[2].AppID() != 1 || handles[4].AppID() != 3 {
		t.Errorf("surviving handles misaligned: %d %d %d",
			handles[0].AppID(), handles[2].AppID(), handles[4].AppID())
	}

	// A NULL ID is a contract violation, not a missing vertex.
	if _, err := tx.AssociateVertices([]gdi.VertexID{ids[0], 0}); !errors.Is(err, gdi.ErrBadArgument) {
		t.Errorf("NULL in batch: got %v, want ErrBadArgument", err)
	}
}

func TestVertexFutureWaitAndTest(t *testing.T) {
	_, db, ids := asyncDB(t, 2, 4, gdi.DatabaseParams{})
	p := db.Process(0)
	tx := p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()

	futs := make([]*gdi.VertexFuture, len(ids))
	for i, id := range ids {
		futs[i] = tx.AssociateVertexAsync(id)
		if futs[i].Test() {
			t.Errorf("future %d complete before any flush", i)
		}
	}
	// Waiting on the first future flushes the whole queue.
	h, err := futs[0].Wait()
	if err != nil || h.AppID() != 0 {
		t.Fatalf("Wait: %v, %v", h, err)
	}
	for i, f := range futs {
		if !f.Test() {
			t.Errorf("future %d not complete after flush", i)
		}
		if _, err := f.Wait(); err != nil {
			t.Errorf("future %d: %v", i, err)
		}
	}
	// A future for an already-cached vertex completes at creation.
	if f := tx.AssociateVertexAsync(ids[0]); !f.Test() {
		t.Error("future for cached vertex should complete immediately")
	}
}

func TestVertexFutureClosedTransaction(t *testing.T) {
	_, db, ids := asyncDB(t, 2, 2, gdi.DatabaseParams{})
	p := db.Process(0)

	tx := p.StartTransaction(gdi.ReadOnly)
	fut := tx.AssociateVertexAsync(ids[0])
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The unwaited future was cancelled by the close.
	if _, err := fut.Wait(); !errors.Is(err, gdi.ErrTransactionClosed) {
		t.Errorf("Wait after commit: got %v, want ErrTransactionClosed", err)
	}
	// New futures on the closed transaction fail immediately.
	f2 := tx.AssociateVertexAsync(ids[1])
	if !f2.Test() {
		t.Error("future on closed tx should complete immediately")
	}
	if _, err := f2.Wait(); !errors.Is(err, gdi.ErrTransactionClosed) {
		t.Errorf("got %v, want ErrTransactionClosed", err)
	}
	if _, err := tx.AssociateVertices(ids); !errors.Is(err, gdi.ErrTransactionClosed) {
		t.Errorf("batch on closed tx: got %v, want ErrTransactionClosed", err)
	}
}

func TestVertexFutureTransactionCritical(t *testing.T) {
	_, db, ids := asyncDB(t, 2, 4, gdi.DatabaseParams{LockTries: 2})
	label, err := db.DefineLabel("L")
	if err != nil {
		t.Fatal(err)
	}
	p := db.Process(0)

	// Hold ids[1]'s lock word exclusively, as a committing writer holds it
	// between its commit lock train and its release.
	win, target, idx := db.Engine().Store().LockWord(ids[1])
	blocker := locks.Word{Win: win, Target: target, Idx: idx}
	if err := blocker.TryAcquireWrite(0, 2); err != nil {
		t.Fatal(err)
	}

	// A locking transaction now cannot read-lock ids[1]: the whole flush
	// fails transaction-critically.
	tx := p.StartTransaction(gdi.ReadWrite)
	futOK := tx.AssociateVertexAsync(ids[0])
	futBad := tx.AssociateVertexAsync(ids[1])
	if _, err := futBad.Wait(); !errors.Is(err, gdi.ErrTransactionCritical) {
		t.Errorf("contended future: got %v, want ErrTransactionCritical", err)
	}
	if _, err := futOK.Wait(); !errors.Is(err, gdi.ErrTransactionCritical) {
		t.Errorf("flush-mate future: got %v, want ErrTransactionCritical", err)
	}
	// The transaction is sticky-critical from here on.
	if _, err := tx.AssociateVertex(ids[3]); !errors.Is(err, gdi.ErrTransactionCritical) {
		t.Errorf("scalar call after critical: got %v", err)
	}
	tx.Abort()
	blocker.ReleaseWrite(0)

	// With the write lock released, a fresh transaction and batch succeed,
	// proving the failed flush leaked no read locks either.
	retry := p.StartTransaction(gdi.ReadWrite)
	handles, err := retry.AssociateVertices(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if h == nil {
			t.Fatalf("handle %d nil after retry", i)
		}
		if err := h.AddLabel(label); err != nil {
			t.Fatalf("write after batch read: %v", err)
		}
	}
	if err := retry.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAssociateVerticesMultiBlockHolders(t *testing.T) {
	// 64-byte blocks force every holder with a sizable property to span
	// several blocks, exercising the batched continuation rounds.
	const ranks = 4
	rt := gdi.Init(ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{BlockSize: 64, BlocksPerRank: 1 << 12})
	prop, err := db.DefinePType("blob", gdi.PTypeSpec{Datatype: gdi.TypeString})
	if err != nil {
		t.Fatal(err)
	}
	p := db.Process(0)
	setup := p.StartTransaction(gdi.ReadWrite)
	const nverts = 12
	ids := make([]gdi.VertexID, nverts)
	for i := range ids {
		id, err := setup.CreateVertex(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		h, err := setup.AssociateVertex(id)
		if err != nil {
			t.Fatal(err)
		}
		val := strings.Repeat(fmt.Sprintf("v%d-", i), 20+i*5)
		if err := h.AddProperty(prop, gdi.StringValue(val)); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	handles, err := tx.AssociateVertices(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if h == nil {
			t.Fatalf("handle %d nil", i)
		}
		want := strings.Repeat(fmt.Sprintf("v%d-", i), 20+i*5)
		got, ok := h.Property(prop)
		if !ok || gdi.StringOf(got) != want {
			t.Errorf("vertex %d: multi-block property corrupted (ok=%v, %d bytes)", i, ok, len(got))
		}
	}
}
