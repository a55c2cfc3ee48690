package gdi_test

import (
	"errors"
	"sync/atomic"
	"testing"

	gdi "github.com/gdi-go/gdi"
)

func newDB(t *testing.T, ranks int) (*gdi.Runtime, *gdi.Database) {
	t.Helper()
	rt := gdi.Init(ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{BlockSize: 256, BlocksPerRank: 4096})
	return rt, db
}

func TestPublicQuickstartFlow(t *testing.T) {
	rt, db := newDB(t, 4)
	defer rt.Finalize()
	person, err := db.DefineLabel("Person")
	if err != nil {
		t.Fatal(err)
	}
	age, err := db.DefinePType("age", gdi.PTypeSpec{Datatype: gdi.TypeUint64, SizeType: gdi.SizeFixed, Limit: 8})
	if err != nil {
		t.Fatal(err)
	}

	var created atomic.Int64
	rt.Run(db, func(p *gdi.Process) {
		tx := p.StartTransaction(gdi.ReadWrite)
		id, err := tx.CreateVertex(uint64(p.Rank()))
		if err != nil {
			t.Error(err)
			return
		}
		h, err := tx.AssociateVertex(id)
		if err != nil {
			t.Error(err)
			return
		}
		if err := h.AddLabel(person); err != nil {
			t.Error(err)
			return
		}
		if err := h.SetProperty(age, gdi.Uint64Value(uint64(20+p.Rank()))); err != nil {
			t.Error(err)
			return
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		created.Add(1)
	})
	if created.Load() != 4 {
		t.Fatalf("created = %d, want 4", created.Load())
	}
	if db.TotalVertices() != 4 {
		t.Fatalf("TotalVertices = %d, want 4", db.TotalVertices())
	}

	// Cross-process read.
	p := db.Process(0)
	tx := p.StartTransaction(gdi.ReadOnly)
	id, err := tx.TranslateVertexID(3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tx.AssociateVertex(id)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := h.Property(age)
	if !ok || gdi.Uint64Of(v) != 23 {
		t.Fatalf("age of vertex 3 = %v, %v", v, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicEdgeTraversal(t *testing.T) {
	rt, db := newDB(t, 2)
	defer rt.Finalize()
	knows, _ := db.DefineLabel("KNOWS")

	p := db.Process(0)
	tx := p.StartTransaction(gdi.ReadWrite)
	a, _ := tx.CreateVertex(1)
	b, _ := tx.CreateVertex(2)
	c, _ := tx.CreateVertex(3)
	if _, err := tx.CreateEdge(a, b, gdi.DirOut, knows); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateEdge(a, c, gdi.DirUndirected, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := p.StartTransaction(gdi.ReadOnly)
	h, _ := tx2.AssociateVertex(a)
	cons := db.NewConstraint()
	i := cons.AddSubconstraint(gdi.Subconstraint{})
	cons.AddLabelCond(i, gdi.LabelCond{Label: knows})
	edges, err := h.Edges(gdi.MaskAll, cons)
	if err != nil {
		t.Fatal(err)
	}
	if edges.Len() != 1 || edges.At(0).Neighbor != b {
		t.Fatalf("constrained edges = %+v", edges)
	}
	all, _ := h.Neighbors(gdi.MaskAll, nil)
	if len(all) != 2 {
		t.Fatalf("neighbors = %v", all)
	}
	tx2.Commit()
}

func TestPublicCollectiveCount(t *testing.T) {
	// The Listing 3 pattern: collective transaction + local index scan +
	// global reduction.
	rt, db := newDB(t, 4)
	defer rt.Finalize()
	person, _ := db.DefineLabel("Person")
	adult, _ := db.DefinePType("adult", gdi.PTypeSpec{Datatype: gdi.TypeBool, SizeType: gdi.SizeFixed, Limit: 1})

	rt.Run(db, func(p *gdi.Process) {
		var specs []gdi.VertexSpec
		if p.Rank() == 0 {
			for i := uint64(0); i < 100; i++ {
				specs = append(specs, gdi.VertexSpec{
					AppID:  i,
					Labels: []gdi.LabelID{person},
					Props:  []gdi.Property{{PType: adult, Value: gdi.BoolValue(i%3 == 0)}},
				})
			}
		}
		if err := p.BulkLoadVertices(specs); err != nil {
			t.Error(err)
		}
	})

	var total atomic.Int64
	rt.Run(db, func(p *gdi.Process) {
		tx := p.StartCollectiveTransaction(gdi.ReadOnly)
		local := int64(0)
		for _, id := range p.LocalVerticesWithLabel(person) {
			h, err := tx.AssociateVertex(id)
			if err != nil {
				t.Error(err)
				return
			}
			if v, ok := h.Property(adult); ok && gdi.BoolOf(v) {
				local++
			}
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		if p.Rank() == 0 {
			total.Store(p.AllreduceInt64(local))
		} else {
			p.AllreduceInt64(local)
		}
	})
	if total.Load() != 34 { // i % 3 == 0 for i in [0, 100): 34 values
		t.Fatalf("collective count = %d, want 34", total.Load())
	}
}

func TestPublicErrors(t *testing.T) {
	rt, db := newDB(t, 1)
	defer rt.Finalize()
	p := db.Process(0)
	tx := p.StartTransaction(gdi.ReadOnly)
	if _, err := tx.CreateVertex(1); !errors.Is(err, gdi.ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}
	if _, err := tx.TranslateVertexID(404); !errors.Is(err, gdi.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	tx.Commit()
	if err := tx.Commit(); !errors.Is(err, gdi.ErrTransactionClosed) {
		t.Fatalf("want ErrTransactionClosed, got %v", err)
	}
}

func TestPublicLabelLookupByName(t *testing.T) {
	rt, db := newDB(t, 2)
	defer rt.Finalize()
	want, _ := db.DefineLabel("City")
	rt.Run(db, func(p *gdi.Process) {
		got, ok := p.LabelByName("City")
		if !ok || got != want {
			t.Errorf("rank %d: LabelByName = (%v, %v)", p.Rank(), got, ok)
		}
		if _, ok := p.LabelByName("Ghost"); ok {
			t.Errorf("rank %d: ghost label resolved", p.Rank())
		}
	})
}

func TestPublicSPMDLabelCreation(t *testing.T) {
	rt, db := newDB(t, 4)
	defer rt.Finalize()
	rt.Run(db, func(p *gdi.Process) {
		id, err := p.CreateLabel("Collective")
		if err != nil {
			t.Errorf("rank %d: %v", p.Rank(), err)
			return
		}
		if id == 0 {
			t.Errorf("rank %d: zero label ID", p.Rank())
		}
	})
	// All replicas agree afterwards.
	a, _ := db.Process(0).LabelByName("Collective")
	b, _ := db.Process(3).LabelByName("Collective")
	if a != b {
		t.Fatalf("replica disagreement: %v vs %v", a, b)
	}
}

func TestAllgatherVertexIDs(t *testing.T) {
	rt, db := newDB(t, 3)
	defer rt.Finalize()
	rt.Run(db, func(p *gdi.Process) {
		tx := p.StartTransaction(gdi.ReadWrite)
		tx.CreateVertex(uint64(p.Rank()))
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		p.Barrier()
		all := p.AllgatherVertexIDs(p.LocalVertices())
		if len(all) != 3 {
			t.Errorf("rank %d: gathered %d ids, want 3", p.Rank(), len(all))
		}
	})
}
