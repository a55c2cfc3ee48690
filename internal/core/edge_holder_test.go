package core

import (
	"errors"
	"testing"

	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// TestAssociateEdgeHolderV2: heavy-edge holders round-trip end to end at a
// block size small enough for multi-block chains (create, read from another
// rank).
func TestAssociateEdgeHolderV2(t *testing.T) {
	e := NewEngine(rma.New(2), Config{BlockSize: 64, BlocksPerRank: 1 << 12, LockTries: 256})
	_, knows, _, _ := seedPersonSchema(t, e)

	tx := e.StartLocal(0, ReadWrite)
	a, _ := tx.CreateVertex(1)
	b, _ := tx.CreateVertex(2)
	if _, err := tx.CreateRichEdge(a, b, holder.DirOut, []lpg.LabelID{knows}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := e.StartLocal(1, ReadOnly)
	ha, _ := tx2.AssociateVertex(a)
	infos, err := ha.Edges(MaskOut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Heavy {
		t.Fatalf("heavy edge infos = %+v", infos)
	}
	eh, err := tx2.AssociateEdgeHolder(infos[0].Holder)
	if err != nil {
		t.Fatal(err)
	}
	if o, tgt := eh.Vertices(); o != a || tgt != b {
		t.Fatalf("edge endpoints = %v, %v", o, tgt)
	}
	if ls := eh.Labels(); len(ls) != 1 || ls[0] != knows {
		t.Fatalf("heavy edge labels = %v", ls)
	}
	tx2.Commit()
}

// TestDeleteVertexV2 exercises the delete path, which must materialize the
// lazy edge views of every neighbor.
func TestDeleteVertexV2(t *testing.T) {
	e := NewEngine(rma.New(2), Config{BlockSize: 64, BlocksPerRank: 1 << 12, LockTries: 256})
	_, knows, _, _ := seedPersonSchema(t, e)
	tx := e.StartLocal(0, ReadWrite)
	a, _ := tx.CreateVertex(1)
	b, _ := tx.CreateVertex(2)
	c, _ := tx.CreateVertex(3)
	tx.CreateEdge(a, b, holder.DirOut, knows)
	tx.CreateEdge(c, a, holder.DirOut, knows)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.StartLocal(1, ReadWrite)
	if err := tx2.DeleteVertex(a); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3 := e.StartLocal(0, ReadOnly)
	if _, err := tx3.AssociateVertex(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted vertex still associable: %v", err)
	}
	hb, _ := tx3.AssociateVertex(b)
	hc, _ := tx3.AssociateVertex(c)
	if hb.Degree() != 0 || hc.Degree() != 0 {
		t.Fatalf("dangling records after delete: %d, %d", hb.Degree(), hc.Degree())
	}
	tx3.Commit()
}
