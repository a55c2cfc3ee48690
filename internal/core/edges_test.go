package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// TestEdgesLazyMatchesMaterialized is the golden test of Edges' two walks.
// The hub has out, in and undirected runs under two labels, a live heavy
// edge, a heavy edge whose holder this transaction deleted, a neighbour
// that migrated after its edge was made, and a run longer than the buffer
// Edges decodes a light run into. Edges on the freshly read state —
// the cursor over the fetched stream — must equal Edges on the same state
// once ensureWrite has materialized its records, for every direction mask
// with and without a label constraint; every UID it returns must make
// DeleteEdge remove exactly that record; and over a corrupt edge region it
// must fail with ErrNotFound and no slice.
func TestEdgesLazyMatchesMaterialized(t *testing.T) {
	e := newMigrationEngine(t, 3) // 64-byte blocks: the hub is a chain
	_, knows, _, _ := seedPersonSchema(t, e)
	owns, err := e.DefineLabel("OWNS")
	if err != nil {
		t.Fatal(err)
	}

	setup := e.StartLocal(0, ReadWrite)
	vertex := func(app uint64) rma.DPtr {
		dp, err := setup.CreateVertex(app)
		if err != nil {
			t.Fatal(err)
		}
		return dp
	}
	edge := func(from, to rma.DPtr, dir holder.Direction, label lpg.LabelID) {
		if _, err := setup.CreateEdge(from, to, dir, label); err != nil {
			t.Fatal(err)
		}
	}
	rich := func(from, to rma.DPtr, label lpg.LabelID) {
		if _, err := setup.CreateRichEdge(from, to, holder.DirOut, []lpg.LabelID{label}, nil); err != nil {
			t.Fatal(err)
		}
	}
	hub := vertex(100)
	nb := make([]rma.DPtr, 8)
	for i := range nb {
		nb[i] = vertex(101 + uint64(i))
	}
	const migrantApp = 120
	migrant, doomed := vertex(migrantApp), vertex(121)
	for _, x := range nb[:4] {
		edge(hub, x, holder.DirOut, knows)
	}
	edge(hub, nb[4], holder.DirOut, owns)
	edge(hub, migrant, holder.DirOut, knows)
	for _, x := range nb[5:] {
		edge(x, hub, holder.DirOut, knows)
	}
	rich(hub, nb[0], owns)
	rich(doomed, hub, knows)
	edge(hub, nb[1], holder.DirUndirected, 0)
	edge(hub, nb[2], holder.DirOut, owns)
	const long = 150
	for i := range long {
		edge(vertex(200+uint64(i)), hub, holder.DirOut, owns)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	const degree = 13 + long
	moved := mustMigrate(t, e, migrantApp, (migrant.Rank()+1)%3)

	labelled := func(l lpg.LabelID) *constraint.Constraint {
		c := &constraint.Constraint{}
		c.AddLabelCond(c.AddSubconstraint(constraint.Subconstraint{}), constraint.LabelCond{Label: l})
		return c
	}
	conses := []*constraint.Constraint{nil, labelled(knows), labelled(owns)}

	tx := e.StartLocal(0, ReadWrite)
	defer tx.Abort()
	// Delete the doomed edge's holder and leave the hub's record of it.
	dh, err := tx.AssociateVertex(doomed)
	if err != nil {
		t.Fatal(err)
	}
	doomedEdges, err := checkEdges(t, dh, MaskAll, nil)
	if err != nil || len(doomedEdges) != 1 || !doomedEdges[0].Heavy {
		t.Fatalf("the doomed vertex has edges %+v, %v; want its one heavy edge", doomedEdges, err)
	}
	if err := tx.dropEdgeHolder(doomedEdges[0].Holder); err != nil {
		t.Fatal(err)
	}
	h, err := tx.AssociateVertex(hub)
	if err != nil {
		t.Fatal(err)
	}
	if h.st.v != nil || h.Degree() != degree {
		t.Fatalf("hub read with clean=%v and degree %d, want a clean state of degree %d", h.st.v == nil, h.Degree(), degree)
	}
	lazy := make(map[string][]EdgeInfo)
	for mask := DirMask(0); mask <= MaskAll; mask++ {
		for ci, cons := range conses {
			infos, err := checkEdges(t, h, mask, cons)
			if err != nil {
				t.Fatal(err)
			}
			lazy[fmt.Sprint(mask, ci)] = infos
		}
	}
	if h.st.v != nil {
		t.Fatal("a read-only Edges materialized the records")
	}
	all := lazy[fmt.Sprint(MaskAll, 0)]
	if len(all) != degree-1 {
		t.Fatalf("Edges(MaskAll) = %d edges, want %d: every record but the deleted heavy edge", len(all), degree-1)
	}
	if !slices.ContainsFunc(all, func(i EdgeInfo) bool { return i.Neighbor == migrant }) || migrant == moved {
		t.Fatalf("no edge names the migrant by its first DPtr %v (now %v)", migrant, moved)
	}

	if err := tx.ensureWrite(h.st); err != nil {
		t.Fatal(err)
	}
	if h.st.v == nil {
		t.Fatal("ensureWrite left the records encoded")
	}
	for mask := DirMask(0); mask <= MaskAll; mask++ {
		for ci, cons := range conses {
			got, err := checkEdges(t, h, mask, cons)
			if err != nil {
				t.Fatal(err)
			}
			if want := lazy[fmt.Sprint(mask, ci)]; !slices.Equal(got, want) {
				t.Fatalf("mask %b, constraint %d: materialized %+v, lazy %+v", mask, ci, got, want)
			}
		}
	}
	tx.Abort()

	// Every UID names the record DeleteEdge removes.
	for _, info := range all {
		tx := e.StartLocal(0, ReadWrite)
		h, err := tx.AssociateVertex(hub)
		if err == nil {
			err = h.st.fold()
		}
		if err != nil {
			t.Fatal(err)
		}
		before := slices.Clone(h.st.v.Edges)
		if err := tx.DeleteEdge(info.UID); err != nil {
			t.Fatalf("DeleteEdge(%v): %v", info.UID, err)
		}
		i := int(info.UID.Index)
		if rec := before[i]; rec.Dir != info.Dir || rec.Heavy != info.Heavy || rec.Heavy && rec.Neighbor != info.Holder || !rec.Heavy && rec.Neighbor != info.Neighbor {
			t.Fatalf("UID %d names record %+v, Edges reported %+v", i, rec, info)
		}
		if want := slices.Delete(before, i, i+1); !slices.Equal(h.st.v.Edges, want) {
			t.Fatalf("DeleteEdge(%d) left %+v, want %+v", i, h.st.v.Edges, want)
		}
		tx.Abort()
	}

	// One edge count too many in the header: the walk runs off the end of
	// the region. Read on the hub's own rank, from the pool, not a cache.
	primary := make([]byte, 64)
	e.Store().ReadBlock(hub.Rank(), hub, primary)
	binary.LittleEndian.PutUint32(primary[4:], degree+1)
	e.Store().WriteBlock(hub.Rank(), hub, primary)
	ro := e.StartLocal(hub.Rank(), ReadOnly)
	defer ro.Abort()
	h, err = ro.AssociateVertex(hub)
	if err != nil {
		t.Fatal(err)
	}
	if infos, err := checkEdges(t, h, MaskAll, nil); !errors.Is(err, ErrNotFound) || len(infos) != 0 {
		t.Fatalf("Edges over a corrupt edge region = %d edges, %v; want none and ErrNotFound", len(infos), err)
	}
	if err := h.ForEachEdge(MaskAll, func(rma.DPtr, holder.Direction) {}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ForEachEdge over a corrupt edge region: %v, want ErrNotFound", err)
	}
}
