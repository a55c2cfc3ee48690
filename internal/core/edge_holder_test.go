package core

import (
	"encoding/binary"
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
	if infos.Len() != 1 || !infos.At(0).Heavy {
		t.Fatalf("heavy edge infos = %+v", infos)
	}
	eh, err := tx2.AssociateEdgeHolder(infos.At(0).Holder)
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

// TestAssociateEdgeHolderRejectsReusedBlock: a heavy-edge holder's primary
// block that now holds other bytes — a block count with a garbage table
// entry naming a rank that does not exist, or an absurd block count — must
// read as ErrNotFound. Read-only (lock-free) transactions reach this fetch
// too, so nothing in the block can be trusted: it used to panic on the
// out-of-range rank and to die sizing a buffer on the block count.
func TestAssociateEdgeHolderRejectsReusedBlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		nb   uint32
	}{{"garbage-table-entry", 3}, {"absurd-block-count", 0xfffffff0}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(rma.New(2), Config{BlockSize: 64, BlocksPerRank: 1 << 12, LockTries: 256})
			_, knows, _, _ := seedPersonSchema(t, e)
			tx := e.StartLocal(0, ReadWrite)
			a, _ := tx.CreateVertex(1)
			b, _ := tx.CreateVertex(2)
			uid, err := tx.CreateRichEdge(a, b, holder.DirOut, []lpg.LabelID{knows}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			probe := e.StartLocal(0, ReadOnly)
			ha, err := probe.AssociateVertex(uid.Vertex)
			if err != nil {
				t.Fatal(err)
			}
			infos, err := ha.Edges(MaskOut, nil)
			if err != nil || infos.Len() != 1 {
				t.Fatalf("heavy edge infos = %+v, %v", infos, err)
			}
			probe.Abort()

			garbage := make([]byte, 64)
			binary.LittleEndian.PutUint32(garbage[0:], tc.nb)
			binary.LittleEndian.PutUint32(garbage[12:], 1) // the edge-holder flag bit
			binary.LittleEndian.PutUint64(garbage[holder.TableEntryOffset(0):], uint64(rma.MakeDPtr(255, 5)))
			e.Store().WriteBlock(0, infos.At(0).Holder, garbage)

			ro := e.StartLocal(1, ReadOnly)
			defer ro.Abort()
			if _, err := ro.AssociateEdgeHolder(infos.At(0).Holder); !errors.Is(err, ErrNotFound) {
				t.Fatalf("AssociateEdgeHolder over a reused block: err = %v, want ErrNotFound", err)
			}
		})
	}
}
