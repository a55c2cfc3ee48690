package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

func newEngine(t *testing.T, ranks int) *Engine {
	t.Helper()
	return NewEngine(rma.New(ranks), Config{
		BlockSize:     256,
		BlocksPerRank: 4096,
	})
}

// seedPersonSchema registers the schema used across tests.
func seedPersonSchema(t *testing.T, e *Engine) (person, knows lpg.LabelID, age, name lpg.PTypeID) {
	t.Helper()
	var err error
	if person, err = e.DefineLabel("Person"); err != nil {
		t.Fatal(err)
	}
	if knows, err = e.DefineLabel("KNOWS"); err != nil {
		t.Fatal(err)
	}
	if age, err = e.DefinePType("age", metadata.PTypeSpec{Datatype: lpg.TypeUint64, SizeType: lpg.SizeFixed, Limit: 8}); err != nil {
		t.Fatal(err)
	}
	if name, err = e.DefinePType("name", metadata.PTypeSpec{Datatype: lpg.TypeString}); err != nil {
		t.Fatal(err)
	}
	return
}

func TestCreateCommitAndRead(t *testing.T) {
	e := newEngine(t, 2)
	person, _, age, name := seedPersonSchema(t, e)

	tx := e.StartLocal(0, ReadWrite)
	dp, err := tx.CreateVertex(42)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddLabel(person); err != nil {
		t.Fatal(err)
	}
	if err := h.SetProperty(age, lpg.EncodeUint64(33)); err != nil {
		t.Fatal(err)
	}
	if err := h.SetProperty(name, lpg.EncodeString("alice")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A fresh transaction on another rank sees the committed state.
	tx2 := e.StartLocal(1, ReadOnly)
	got, err := tx2.TranslateVertexID(42)
	if err != nil {
		t.Fatal(err)
	}
	if got != dp {
		t.Fatalf("TranslateVertexID = %v, want %v", got, dp)
	}
	h2, err := tx2.AssociateVertex(got)
	if err != nil {
		t.Fatal(err)
	}
	if h2.AppID() != 42 || !h2.HasLabel(person) {
		t.Fatalf("vertex state wrong: appID=%d labels=%v", h2.AppID(), h2.Labels())
	}
	if v, ok := h2.Property(age); !ok || lpg.DecodeUint64(v) != 33 {
		t.Fatalf("age = %v, %v", v, ok)
	}
	if v, ok := h2.Property(name); !ok || lpg.DecodeString(v) != "alice" {
		t.Fatalf("name = %q, %v", v, ok)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortDiscardsEverything(t *testing.T) {
	e := newEngine(t, 1)
	free := e.FreeBlocks(0)
	tx := e.StartLocal(0, ReadWrite)
	if _, err := tx.CreateVertex(7); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if got := e.FreeBlocks(0); got != free {
		t.Fatalf("aborted create leaked blocks: %d -> %d", free, got)
	}
	tx2 := e.StartLocal(0, ReadOnly)
	if _, err := tx2.TranslateVertexID(7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted vertex visible: err = %v", err)
	}
	tx2.Commit()
}

func TestUncommittedInvisible(t *testing.T) {
	e := newEngine(t, 1)
	tx := e.StartLocal(0, ReadWrite)
	if _, err := tx.CreateVertex(1); err != nil {
		t.Fatal(err)
	}
	probe := e.StartLocal(0, ReadOnly)
	if _, err := probe.TranslateVertexID(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted vertex visible: %v", err)
	}
	probe.Commit()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyRejectsMutations(t *testing.T) {
	e := newEngine(t, 1)
	person, _, age, _ := seedPersonSchema(t, e)
	setup := e.StartLocal(0, ReadWrite)
	dp, _ := setup.CreateVertex(1)
	setup.Commit()

	tx := e.StartLocal(0, ReadOnly)
	if _, err := tx.CreateVertex(2); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("CreateVertex in RO tx: %v", err)
	}
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddLabel(person); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("AddLabel in RO tx: %v", err)
	}
	if err := h.SetProperty(age, lpg.EncodeUint64(1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("SetProperty in RO tx: %v", err)
	}
	tx.Commit()
}

// TestRemovePropertiesOnReadOnlyLeavesHandle: RemoveProperties on a read-only
// transaction fails with ErrReadOnly and leaves the handle's properties as
// they were, in order, none lost and none doubled.
func TestRemovePropertiesOnReadOnlyLeavesHandle(t *testing.T) {
	e := newEngine(t, 1)
	_, _, age, name := seedPersonSchema(t, e)
	setup := e.StartLocal(0, ReadWrite)
	dp, _ := setup.CreateVertex(1)
	h, err := setup.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetProperty(age, lpg.EncodeUint64(33)); err != nil {
		t.Fatal(err)
	}
	if err := h.SetProperty(name, lpg.EncodeString("alice")); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := e.StartLocal(0, ReadOnly)
	defer tx.Abort()
	if h, err = tx.AssociateVertex(dp); err != nil {
		t.Fatal(err)
	}
	if n, err := h.RemoveProperties(age); !errors.Is(err, ErrReadOnly) || n != 0 {
		t.Fatalf("RemoveProperties in RO tx = %d, %v; want 0, ErrReadOnly", n, err)
	}
	if got := h.PTypes(); !slices.Equal(got, []lpg.PTypeID{age, name}) {
		t.Fatalf("properties after the refused removal: %v, want [%v %v]", got, age, name)
	}
	if v, ok := h.Property(age); !ok || lpg.DecodeUint64(v) != 33 {
		t.Fatalf("age after the refused removal = %v, %v", v, ok)
	}
}

func TestEdgesLifecycle(t *testing.T) {
	e := newEngine(t, 2)
	_, knows, _, _ := seedPersonSchema(t, e)
	tx := e.StartLocal(0, ReadWrite)
	a, _ := tx.CreateVertex(1)
	b, _ := tx.CreateVertex(2)
	uid, err := tx.CreateEdge(a, b, holder.DirOut, knows)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := e.StartLocal(1, ReadOnly)
	ha, _ := tx2.AssociateVertex(a)
	hb, _ := tx2.AssociateVertex(b)
	if ha.CountEdges(MaskOut) != 1 || ha.CountEdges(MaskIn) != 0 {
		t.Fatalf("origin edge counts: out=%d in=%d", ha.CountEdges(MaskOut), ha.CountEdges(MaskIn))
	}
	if hb.CountEdges(MaskIn) != 1 || hb.CountEdges(MaskOut) != 0 {
		t.Fatalf("target edge counts: in=%d out=%d", hb.CountEdges(MaskIn), hb.CountEdges(MaskOut))
	}
	infos, err := checkEdges(t, ha, MaskAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Neighbor != b || infos[0].Label != knows || infos[0].Dir != holder.DirOut {
		t.Fatalf("edge info = %+v", infos)
	}
	tx2.Commit()

	// Delete the edge from the target side's sibling record.
	tx3 := e.StartLocal(0, ReadWrite)
	if err := tx3.DeleteEdge(uid); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	tx4 := e.StartLocal(0, ReadOnly)
	ha, _ = tx4.AssociateVertex(a)
	hb, _ = tx4.AssociateVertex(b)
	if ha.Degree() != 0 || hb.Degree() != 0 {
		t.Fatalf("degrees after delete: %d, %d", ha.Degree(), hb.Degree())
	}
	tx4.Commit()
}

func TestUndirectedEdgeVisibleBothSides(t *testing.T) {
	e := newEngine(t, 1)
	tx := e.StartLocal(0, ReadWrite)
	a, _ := tx.CreateVertex(1)
	b, _ := tx.CreateVertex(2)
	if _, err := tx.CreateEdge(a, b, holder.DirUndirected, 0); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx2 := e.StartLocal(0, ReadOnly)
	for _, dp := range []rma.DPtr{a, b} {
		h, _ := tx2.AssociateVertex(dp)
		if h.CountEdges(MaskUndirected) != 1 {
			t.Fatalf("vertex %v does not see the undirected edge", dp)
		}
	}
	tx2.Commit()
}

func TestSelfLoop(t *testing.T) {
	e := newEngine(t, 1)
	tx := e.StartLocal(0, ReadWrite)
	a, _ := tx.CreateVertex(1)
	uid, err := tx.CreateEdge(a, a, holder.DirOut, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx2 := e.StartLocal(0, ReadOnly)
	h, _ := tx2.AssociateVertex(a)
	if h.CountEdges(MaskOut) != 1 || h.CountEdges(MaskIn) != 1 {
		t.Fatalf("self-loop counts: out=%d in=%d", h.CountEdges(MaskOut), h.CountEdges(MaskIn))
	}
	tx2.Commit()
	tx3 := e.StartLocal(0, ReadWrite)
	if err := tx3.DeleteEdge(uid); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
	tx4 := e.StartLocal(0, ReadOnly)
	h, _ = tx4.AssociateVertex(a)
	if h.Degree() != 0 {
		t.Fatalf("self-loop not fully removed: degree=%d", h.Degree())
	}
	tx4.Commit()
}

func TestHeavyEdgeRoundTrip(t *testing.T) {
	e := newEngine(t, 2)
	_, knows, _, _ := seedPersonSchema(t, e)
	weight, err := e.DefinePType("weight", metadata.PTypeSpec{Datatype: lpg.TypeFloat64, Entity: lpg.EntityEdge, SizeType: lpg.SizeFixed, Limit: 8})
	if err != nil {
		t.Fatal(err)
	}
	since, err := e.DefinePType("since", metadata.PTypeSpec{Datatype: lpg.TypeUint64, Entity: lpg.EntityEdge, SizeType: lpg.SizeFixed, Limit: 8})
	if err != nil {
		t.Fatal(err)
	}

	tx := e.StartLocal(0, ReadWrite)
	a, _ := tx.CreateVertex(1)
	b, _ := tx.CreateVertex(2)
	_, err = tx.CreateRichEdge(a, b, holder.DirOut,
		[]lpg.LabelID{knows},
		[]lpg.Property{
			{PType: weight, Value: lpg.EncodeFloat64(0.75)},
			{PType: since, Value: lpg.EncodeUint64(2020)},
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := e.StartLocal(1, ReadOnly)
	ha, _ := tx2.AssociateVertex(a)
	infos, err := checkEdges(t, ha, MaskOut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Heavy || infos[0].Neighbor != b || infos[0].Label != knows {
		t.Fatalf("heavy edge info = %+v", infos)
	}
	eh, err := tx2.AssociateEdgeHolder(infos[0].Holder)
	if err != nil {
		t.Fatal(err)
	}
	o, tgt := eh.Vertices()
	if o != a || tgt != b {
		t.Fatalf("edge endpoints = %v, %v", o, tgt)
	}
	if vals := eh.Properties(weight); len(vals) != 1 || lpg.DecodeFloat64(vals[0]) != 0.75 {
		t.Fatalf("weight = %v", vals)
	}
	// The target also resolves the true neighbor through the holder.
	hb, _ := tx2.AssociateVertex(b)
	binfos, _ := checkEdges(t, hb, MaskIn, nil)
	if len(binfos) != 1 || binfos[0].Neighbor != a {
		t.Fatalf("target-side heavy edge = %+v", binfos)
	}
	tx2.Commit()
}

func TestConstraintFilteredEdges(t *testing.T) {
	e := newEngine(t, 1)
	_, knows, _, _ := seedPersonSchema(t, e)
	owns, _ := e.DefineLabel("OWNS")
	tx := e.StartLocal(0, ReadWrite)
	a, _ := tx.CreateVertex(1)
	b, _ := tx.CreateVertex(2)
	c, _ := tx.CreateVertex(3)
	tx.CreateEdge(a, b, holder.DirOut, knows)
	tx.CreateEdge(a, c, holder.DirOut, owns)
	tx.Commit()

	tx2 := e.StartLocal(0, ReadOnly)
	h, _ := tx2.AssociateVertex(a)
	cons := &constraint.Constraint{}
	i := cons.AddSubconstraint(constraint.Subconstraint{})
	cons.AddLabelCond(i, constraint.LabelCond{Label: owns})
	infos, err := checkEdges(t, h, MaskOut, cons)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Neighbor != c {
		t.Fatalf("constrained edges = %+v", infos)
	}
	tx2.Commit()
}

func TestDeleteVertexCleansEverything(t *testing.T) {
	e := newEngine(t, 2)
	person, knows, _, _ := seedPersonSchema(t, e)
	tx := e.StartLocal(0, ReadWrite)
	a, _ := tx.CreateVertex(1)
	b, _ := tx.CreateVertex(2)
	c, _ := tx.CreateVertex(3)
	ha, _ := tx.AssociateVertex(a)
	ha.AddLabel(person)
	tx.CreateEdge(a, b, holder.DirOut, knows)
	tx.CreateEdge(c, a, holder.DirOut, knows)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	freeBefore0, freeBefore1 := e.FreeBlocks(0), e.FreeBlocks(1)

	tx2 := e.StartLocal(1, ReadWrite)
	if err := tx2.DeleteVertex(a); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	tx3 := e.StartLocal(0, ReadOnly)
	if _, err := tx3.TranslateVertexID(1); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted vertex still translatable")
	}
	if _, err := tx3.AssociateVertex(a); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted vertex still associable")
	}
	hb, _ := tx3.AssociateVertex(b)
	hc, _ := tx3.AssociateVertex(c)
	if hb.Degree() != 0 || hc.Degree() != 0 {
		t.Fatalf("neighbors keep dangling records: %d, %d", hb.Degree(), hc.Degree())
	}
	tx3.Commit()
	if got := e.LocalVerticesWithLabel(a.Rank(), person); len(got) != 0 {
		t.Fatalf("label index keeps deleted vertex: %v", got)
	}
	// The vertex's block must be back in the pool (neighbors unchanged size).
	if e.FreeBlocks(0)+e.FreeBlocks(1) <= freeBefore0+freeBefore1-1 {
		t.Fatalf("blocks leaked on delete: before=%d/%d after=%d/%d",
			freeBefore0, freeBefore1, e.FreeBlocks(0), e.FreeBlocks(1))
	}
}

func TestLabelIndexMaintained(t *testing.T) {
	e := newEngine(t, 2)
	person, _, _, _ := seedPersonSchema(t, e)
	car, _ := e.DefineLabel("Car")

	tx := e.StartLocal(0, ReadWrite)
	var dps []rma.DPtr
	for i := uint64(0); i < 10; i++ {
		dp, _ := tx.CreateVertex(i)
		h, _ := tx.AssociateVertex(dp)
		if i%2 == 0 {
			h.AddLabel(person)
		} else {
			h.AddLabel(car)
		}
		dps = append(dps, dp)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	count := func(l lpg.LabelID) int {
		n := 0
		for r := 0; r < 2; r++ {
			n += len(e.LocalVerticesWithLabel(rma.Rank(r), l))
		}
		return n
	}
	if count(person) != 5 || count(car) != 5 {
		t.Fatalf("label postings: person=%d car=%d", count(person), count(car))
	}

	// Relabel one vertex: postings must follow.
	tx2 := e.StartLocal(0, ReadWrite)
	h, _ := tx2.AssociateVertex(dps[0])
	h.RemoveLabel(person)
	h.AddLabel(car)
	tx2.Commit()
	if count(person) != 4 || count(car) != 6 {
		t.Fatalf("after relabel: person=%d car=%d", count(person), count(car))
	}
}

func TestMultiBlockGrowthAndShrink(t *testing.T) {
	e := newEngine(t, 1)
	blob, err := e.DefinePType("blob", metadata.PTypeSpec{Datatype: lpg.TypeBytes})
	if err != nil {
		t.Fatal(err)
	}
	free0 := e.FreeBlocks(0)

	tx := e.StartLocal(0, ReadWrite)
	dp, _ := tx.CreateVertex(9)
	h, _ := tx.AssociateVertex(dp)
	big := make([]byte, 2000) // ~8 blocks of 256B
	for i := range big {
		big[i] = byte(i)
	}
	if err := h.SetProperty(blob, big); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := e.StartLocal(0, ReadOnly)
	h2, _ := tx2.AssociateVertex(dp)
	got, ok := h2.Property(blob)
	if !ok || len(got) != 2000 || got[1999] != big[1999] {
		t.Fatalf("multi-block property corrupted: ok=%v len=%d", ok, len(got))
	}
	tx2.Commit()

	// Shrink back: removing the property must release the extra blocks.
	tx3 := e.StartLocal(0, ReadWrite)
	h3, _ := tx3.AssociateVertex(dp)
	if _, err := h3.RemoveProperties(blob); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.FreeBlocks(0); got != free0-1 { // only the primary remains
		t.Fatalf("shrink did not release blocks: free=%d want %d", got, free0-1)
	}
}

func TestLockConflictFailsTransaction(t *testing.T) {
	// Mutations defer their exclusive locks to the commit lock train
	// (TestDeferredUpgradeConflictSurfacesAtCommit); here the word is held
	// directly, as a committing writer holds it between that train and the
	// release.
	e := newEngine(t, 1)
	tx := e.StartLocal(0, ReadWrite)
	dp, _ := tx.CreateVertex(1)
	tx.Commit()

	// Writer holds the exclusive lock...
	word := e.lockWordOf(dp)
	if err := word.TryAcquireWrite(0, 64); err != nil {
		t.Fatal(err)
	}
	// ...so a reader, still finding it write-held after its retries, must
	// fail with a transaction-critical error.
	r := e.StartLocal(0, ReadWrite)
	if _, err := r.AssociateVertex(dp); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("read under write lock: %v", err)
	}
	if r.Critical() == nil {
		t.Fatal("transaction not marked critical")
	}
	// Every further operation fails fast...
	if _, err := r.TranslateVertexID(1); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("post-critical op: %v", err)
	}
	// ...and commit reports the failure.
	if err := r.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("commit of critical tx: %v", err)
	}
	word.ReleaseWrite(0)
	// After the writer released, readers succeed again.
	r2 := e.StartLocal(0, ReadOnly)
	if _, err := r2.AssociateVertex(dp); err != nil {
		t.Fatal(err)
	}
	r2.Commit()
}

func TestDeferredUpgradeConflictSurfacesAtCommit(t *testing.T) {
	// A mutation only marks the vertex dirty: its exclusive lock is taken by
	// the commit lock train, and no transaction holds a read lock. A
	// concurrent reader therefore associates freely and does not hold the
	// writer back; the conflict surfaces at the reader's commit, whose read
	// set no longer validates once the writer committed.
	e := newEngine(t, 1)
	_, _, age, _ := seedPersonSchema(t, e)
	tx := e.StartLocal(0, ReadWrite)
	dp, _ := tx.CreateVertex(1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	w := e.StartLocal(0, ReadWrite)
	hw, err := w.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.SetProperty(age, lpg.EncodeUint64(30)); err != nil {
		t.Fatal("mutation with a deferred lock failed:", err)
	}
	if hw.st.held {
		t.Fatal("a mutation took its lock before the commit lock train")
	}

	// A reader can still join: the word is free.
	r := e.StartLocal(0, ReadWrite)
	if _, err := r.AssociateVertex(dp); err != nil {
		t.Fatal("reader blocked by a deferred lock:", err)
	}

	// The writer commits past the live reader; the reader's commit fails.
	if err := w.Commit(); err != nil {
		t.Fatalf("commit with a live reader: %v", err)
	}
	if err := r.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("reader's commit after the writer's: %v, want ErrTxCritical", err)
	}

	// With the reader gone, a fresh writer commits and the value lands.
	w2 := e.StartLocal(0, ReadWrite)
	h2, err := w2.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.SetProperty(age, lpg.EncodeUint64(31)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	check := e.StartLocal(0, ReadOnly)
	hc, err := check.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := hc.Property(age); !ok || lpg.DecodeUint64(v) != 31 {
		t.Fatalf("age after retry = %v, %v; want 31", v, ok)
	}
	check.Commit()
}

func TestUpgradeConflictAborts(t *testing.T) {
	e := newEngine(t, 1)
	tx := e.StartLocal(0, ReadWrite)
	dp, _ := tx.CreateVertex(1)
	tx.Commit()

	label, err := e.DefineLabel("L")
	if err != nil {
		t.Fatal(err)
	}
	t1 := e.StartLocal(0, ReadWrite)
	t2 := e.StartLocal(0, ReadWrite)
	h1, _ := t1.AssociateVertex(dp)
	h2, err := t2.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	// Both read the vertex and both write it: the first to commit wins, and
	// the second's read no longer validates.
	if err := h1.AddLabel(label); err != nil {
		t.Fatal(err)
	}
	if err := h2.AddLabel(label); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("second writer of one vertex committed: %v", err)
	}
}

func TestTxUseAfterClose(t *testing.T) {
	e := newEngine(t, 1)
	tx := e.StartLocal(0, ReadWrite)
	dp, _ := tx.CreateVertex(1)
	tx.Commit()
	if _, err := tx.AssociateVertex(dp); !errors.Is(err, ErrTxClosed) {
		t.Fatalf("use after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxClosed) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestPropertyMultiplicityEnforced(t *testing.T) {
	e := newEngine(t, 1)
	nick, _ := e.DefinePType("nick", metadata.PTypeSpec{Datatype: lpg.TypeString, Mult: lpg.MultiMany})
	ssn, _ := e.DefinePType("ssn", metadata.PTypeSpec{Datatype: lpg.TypeString, Mult: lpg.MultiSingle})
	tx := e.StartLocal(0, ReadWrite)
	dp, _ := tx.CreateVertex(1)
	h, _ := tx.AssociateVertex(dp)
	if err := h.AddProperty(nick, lpg.EncodeString("al")); err != nil {
		t.Fatal(err)
	}
	if err := h.AddProperty(nick, lpg.EncodeString("ali")); err != nil {
		t.Fatal(err)
	}
	if err := h.AddProperty(ssn, lpg.EncodeString("1")); err != nil {
		t.Fatal(err)
	}
	if err := h.AddProperty(ssn, lpg.EncodeString("2")); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("second single-valued entry: %v", err)
	}
	if got := h.Properties(nick); len(got) != 2 {
		t.Fatalf("multi property entries = %d", len(got))
	}
	if got := h.PTypes(); len(got) != 2 {
		t.Fatalf("PTypes = %v", got)
	}
	tx.Commit()
}

func TestEntityTypeEnforced(t *testing.T) {
	e := newEngine(t, 1)
	edgeOnly, _ := e.DefinePType("edge_only", metadata.PTypeSpec{Datatype: lpg.TypeUint64, Entity: lpg.EntityEdge, SizeType: lpg.SizeFixed, Limit: 8})
	tx := e.StartLocal(0, ReadWrite)
	dp, _ := tx.CreateVertex(1)
	h, _ := tx.AssociateVertex(dp)
	if err := h.SetProperty(edgeOnly, lpg.EncodeUint64(1)); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("edge-only property on vertex: %v", err)
	}
	tx.Abort()
}

func TestMetadataStalenessAbortsWriters(t *testing.T) {
	e := newEngine(t, 1)
	tx := e.StartLocal(0, ReadWrite)
	dp, err := tx.CreateVertex(5)
	if err != nil {
		t.Fatal(err)
	}
	_ = dp
	// Metadata changes while the transaction is open.
	if _, err := e.DefineLabel("LateLabel"); err != nil {
		t.Fatal(err)
	}
	if !tx.MetadataStale() {
		t.Fatal("staleness not detected")
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("stale write commit: %v", err)
	}
}

func TestCollectiveTransactionAllRanks(t *testing.T) {
	const ranks = 4
	e := newEngine(t, ranks)
	person, _ := e.DefineLabel("Person")

	// Bulk-load 40 labeled vertices from rank 0's spec slice.
	e.fab.Run(func(r rma.Rank) {
		var specs []VertexSpec
		if r == 0 {
			for i := uint64(0); i < 40; i++ {
				specs = append(specs, VertexSpec{AppID: i, Labels: []lpg.LabelID{person}})
			}
		}
		if err := e.BulkLoadVertices(r, specs); err != nil {
			t.Error(err)
		}
	})

	// A collective read transaction scans local shards.
	counts := make([]int, ranks)
	e.fab.Run(func(r rma.Rank) {
		tx := e.StartCollective(r, ReadOnly)
		if !tx.Collective() {
			t.Error("transaction not marked collective")
		}
		local := e.LocalVertices(r)
		for _, dp := range local {
			h, err := tx.AssociateVertex(dp)
			if err != nil {
				t.Error(err)
				break
			}
			if h.HasLabel(person) {
				counts[r]++
			}
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 40 {
		t.Fatalf("collective scan counted %d, want 40", total)
	}
}

func TestBulkLoadEdgesBuildsGraph(t *testing.T) {
	const ranks = 4
	e := newEngine(t, ranks)
	knows, _ := e.DefineLabel("KNOWS")
	const n = 32
	e.fab.Run(func(r rma.Rank) {
		var vs []VertexSpec
		var es []EdgeSpec
		if r == 0 {
			for i := uint64(0); i < n; i++ {
				vs = append(vs, VertexSpec{AppID: i})
			}
			for i := uint64(0); i < n; i++ { // ring + chords
				es = append(es, EdgeSpec{OriginApp: i, TargetApp: (i + 1) % n, Dir: holder.DirOut, Label: knows})
				es = append(es, EdgeSpec{OriginApp: i, TargetApp: (i + 5) % n, Dir: holder.DirOut, Label: knows})
			}
		}
		if err := e.BulkLoadVertices(r, vs); err != nil {
			t.Error(err)
			return
		}
		if err := e.BulkLoadEdges(r, es); err != nil {
			t.Error(err)
		}
	})

	tx := e.StartLocal(0, ReadOnly)
	for i := uint64(0); i < n; i++ {
		dp, err := tx.TranslateVertexID(i)
		if err != nil {
			t.Fatal(err)
		}
		h, err := tx.AssociateVertex(dp)
		if err != nil {
			t.Fatal(err)
		}
		if h.CountEdges(MaskOut) != 2 || h.CountEdges(MaskIn) != 2 {
			t.Fatalf("vertex %d: out=%d in=%d, want 2/2", i, h.CountEdges(MaskOut), h.CountEdges(MaskIn))
		}
	}
	tx.Commit()
}

func TestBulkLoadEdgeUnknownEndpoint(t *testing.T) {
	e := newEngine(t, 1)
	e.fab.Run(func(r rma.Rank) {
		if err := e.BulkLoadVertices(r, []VertexSpec{{AppID: 1}}); err != nil {
			t.Error(err)
		}
	})
	err := fmt.Errorf("placeholder")
	e.fab.Run(func(r rma.Rank) {
		err = e.BulkLoadEdges(r, []EdgeSpec{{OriginApp: 1, TargetApp: 999}})
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("bulk edge to missing vertex: %v", err)
	}
}

func TestConcurrentDisjointTransactions(t *testing.T) {
	const ranks = 8
	e := newEngine(t, ranks)
	e.fab.Run(func(r rma.Rank) {
		for i := 0; i < 20; i++ {
			appID := uint64(r)*1000 + uint64(i)
			tx := e.StartLocal(r, ReadWrite)
			if _, err := tx.CreateVertex(appID); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
		}
	})
	total := 0
	for r := 0; r < ranks; r++ {
		total += e.LocalVertexCount(rma.Rank(r))
	}
	if total != ranks*20 {
		t.Fatalf("created %d vertices, want %d", total, ranks*20)
	}
}

func TestConcurrentContendedWrites(t *testing.T) {
	// All ranks add edges around a small vertex set; some transactions must
	// fail (bounded locks), none may corrupt the graph: every committed edge
	// has its sibling record.
	const ranks = 8
	e := newEngine(t, ranks)
	setup := e.StartLocal(0, ReadWrite)
	var dps [8]rma.DPtr
	for i := range dps {
		dps[i], _ = setup.CreateVertex(uint64(i))
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	e.fab.Run(func(r rma.Rank) {
		for i := 0; i < 30; i++ {
			tx := e.StartLocal(r, ReadWrite)
			a := dps[(int(r)+i)%len(dps)]
			b := dps[(int(r)+i+1)%len(dps)]
			if _, err := tx.CreateEdge(a, b, holder.DirOut, 0); err != nil {
				tx.Abort()
				continue
			}
			if err := tx.Commit(); err != nil && !errors.Is(err, ErrTxCritical) {
				t.Errorf("rank %d: unexpected commit error %v", r, err)
				return
			}
		}
	})
	// Consistency check: total out records == total in records.
	tx := e.StartLocal(0, ReadOnly)
	out, in := 0, 0
	for _, dp := range dps {
		h, err := tx.AssociateVertex(dp)
		if err != nil {
			t.Fatal(err)
		}
		out += h.CountEdges(MaskOut)
		in += h.CountEdges(MaskIn)
	}
	tx.Commit()
	if out != in {
		t.Fatalf("edge records unbalanced: %d out vs %d in", out, in)
	}
	if out == 0 {
		t.Fatal("no edge ever committed under contention")
	}
}
