package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// TestAccessorsFromViewMatchMaterialized is the golden test of the read
// accessors' two forms. A freshly associated state is clean — no decoded
// vertex, every read served from the fetched stream — and every accessor
// (AppID, Homes, Labels, HasLabel, Properties, Property, PTypes, Matches,
// Degree, CountEdges, Edges) must answer on it what it answers once the
// state is materialized: by materialize in a read-only transaction, by
// ensureWrite in a read-write one, where the answers must also equal the
// read-only transaction's. The vertices, read from every rank at 64-byte blocks:
// a hub whose holder is a chain, with two labels, a multi-valued property
// and light and heavy edges in every direction; a vertex without labels,
// properties or edges; a vertex migrated twice, named by its first DPtr; and
// a vertex whose follower copy serves one rank's optimistic reads. The hub's
// heavy record sits between light runs, so a run-at-a-time Edges meets every
// kind of run, and every mask is asked with and without a constraint. A
// holder with a corrupt entry region fails either association with
// ErrNotFound; one whose edge region has a corrupt tail associates, serves
// its labels, and fails every edge walk and materialization with
// ErrNotFound.
func TestAccessorsFromViewMatchMaterialized(t *testing.T) {
	const ranks = 3
	e := NewEngine(rma.New(ranks), Config{BlockSize: 64, BlocksPerRank: 1 << 12, LockTries: 256})
	person, knows, age, name := seedPersonSchema(t, e)
	tag, err := e.DefineLabel("Tag")
	if err != nil {
		t.Fatal(err)
	}
	nick, err := e.DefinePType("nick", metadata.PTypeSpec{Datatype: lpg.TypeString, Mult: lpg.MultiMany})
	if err != nil {
		t.Fatal(err)
	}
	const hubApp, plainApp, migrantApp, followedApp, corruptApp, tornApp = 0, 1, 2, 4, 5, 6
	dps := map[uint64]fabric.DPtr{}
	setup := e.StartLocal(0, ReadWrite)
	vertex := func(app uint64, labels []lpg.LabelID, props ...lpg.Property) fabric.DPtr {
		dp, err := setup.CreateVertex(app)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := setup.AssociateVertex(dp)
		for _, l := range labels {
			if err := h.AddLabel(l); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range props {
			if err := h.AddProperty(p.PType, p.Value); err != nil {
				t.Fatal(err)
			}
		}
		dps[app] = dp
		return dp
	}
	edge := func(from, to fabric.DPtr, dir holder.Direction, label lpg.LabelID) {
		if _, err := setup.CreateEdge(from, to, dir, label); err != nil {
			t.Fatal(err)
		}
	}
	hub := vertex(hubApp, []lpg.LabelID{person, tag},
		lpg.Property{PType: age, Value: lpg.EncodeUint64(41)},
		lpg.Property{PType: nick, Value: []byte("first")},
		lpg.Property{PType: name, Value: []byte(strings.Repeat("the hub ", 12))},
		lpg.Property{PType: nick, Value: []byte("second")},
		lpg.Property{PType: nick, Value: []byte("")})
	vertex(plainApp, nil)
	migrant := vertex(migrantApp, []lpg.LabelID{person}, lpg.Property{PType: age, Value: lpg.EncodeUint64(25)})
	followed := vertex(followedApp, []lpg.LabelID{tag}, lpg.Property{PType: nick, Value: []byte("copied")})
	vertex(corruptApp, []lpg.LabelID{person})
	torn := vertex(tornApp, []lpg.LabelID{tag})
	leaves := make([]fabric.DPtr, 6)
	for i := range leaves {
		leaves[i] = vertex(uint64(10+i), nil)
	}
	for _, l := range leaves[:3] {
		edge(hub, l, holder.DirOut, knows)
	}
	edge(leaves[3], hub, holder.DirOut, knows)
	edge(hub, leaves[4], holder.DirUndirected, 0)
	edge(migrant, hub, holder.DirOut, 0)
	edge(followed, leaves[0], holder.DirOut, knows)
	if _, err := setup.CreateRichEdge(hub, leaves[5], holder.DirOut, []lpg.LabelID{tag}, nil); err != nil {
		t.Fatal(err)
	}
	edge(hub, leaves[1], holder.DirOut, knows)
	edge(hub, leaves[2], holder.DirOut, knows)
	for _, l := range leaves[:4] {
		edge(torn, l, holder.DirOut, knows)
	}
	edge(leaves[4], torn, holder.DirOut, 0)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	mustMigrate(t, e, migrantApp, (migrant.Rank()+1)%ranks)
	mustMigrate(t, e, migrantApp, (migrant.Rank()+2)%ranks)
	follower := (followed.Rank() + 1) % ranks
	if n := e.replicateAll(follower, []uint64{followedApp}, 2); n != 1 {
		t.Fatalf("seeded %d follower copies, want 1", n)
	}
	head := make([]byte, 64)
	e.Store().ReadBlock(0, hub, head)
	if holder.NumBlocks(head) < 3 {
		t.Fatalf("the hub's holder has %d blocks, want a chain", holder.NumBlocks(head))
	}

	labelled := func(l lpg.LabelID, absent bool) *constraint.Constraint {
		c := constraint.New(e.Registry(0))
		c.AddLabelCond(c.AddSubconstraint(constraint.Subconstraint{}), constraint.LabelCond{Label: l, Absent: absent})
		return c
	}
	prop := func(pt lpg.PTypeID, dt lpg.Datatype, op constraint.Op, operand []byte) *constraint.Constraint {
		c := constraint.New(e.Registry(0))
		c.AddPropCond(c.AddSubconstraint(constraint.Subconstraint{}), constraint.PropCond{PType: pt, Datatype: dt, Op: op, Operand: operand})
		return c
	}
	conses := []*constraint.Constraint{nil, labelled(person, false), labelled(tag, true),
		prop(age, lpg.TypeUint64, constraint.OpGe, lpg.EncodeUint64(30)),
		prop(name, lpg.TypeString, constraint.OpPrefix, []byte("the")),
		prop(nick, lpg.TypeString, constraint.OpEq, []byte("second"))}
	render := func(h *VertexHandle) string {
		var b strings.Builder
		fmt.Fprintln(&b, h.AppID(), h.Homes(), h.Labels(), h.HasLabel(person), h.HasLabel(tag), h.HasLabel(knows), h.PTypes())
		for _, pt := range []lpg.PTypeID{age, name, nick} {
			p, ok := h.Property(pt)
			fmt.Fprintln(&b, h.Properties(pt), p, ok)
		}
		for _, c := range conses {
			fmt.Fprint(&b, h.Matches(c), " ")
		}
		fmt.Fprintln(&b, h.Degree())
		for mask := DirMask(0); mask <= MaskAll; mask++ {
			for _, c := range conses[:3] {
				edges, err := checkEdges(t, h, mask, c)
				fmt.Fprintln(&b, mask, h.CountEdges(mask), edges, err)
			}
		}
		return b.String()
	}

	served := e.ReplicaReads()
	for _, dp := range []fabric.DPtr{hub, dps[plainApp], migrant, followed} {
		for r := range ranks {
			origin := fabric.Rank(r)
			name := fmt.Sprintf("vertex %v from rank %d", dp, r)
			ro := e.StartLocal(origin, ReadOnly)
			h, err := ro.AssociateVertex(dp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if h.st.v != nil {
				t.Fatalf("%s: a fresh association decoded the vertex", name)
			}
			clean := render(h)
			if err := h.st.materialize(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := render(h); got != clean {
				t.Errorf("%s: materialized accessors differ from the view's:\n got %s\nwant %s", name, got, clean)
			}
			if err := ro.Commit(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			rw := e.StartLocal(origin, ReadWrite)
			h, err = rw.AssociateVertex(dp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := render(h); got != clean {
				t.Errorf("%s: a read-write transaction's accessors differ from a read-only one's:\n got %s\nwant %s", name, got, clean)
			}
			if err := rw.ensureWrite(h.st); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := render(h); got != clean {
				t.Errorf("%s: accessors after ensureWrite differ from the view's:\n got %s\nwant %s", name, got, clean)
			}
			rw.Abort()
		}
	}
	if e.ReplicaReads() == served {
		t.Error("no follower copy served a read")
	}

	// A malformed label payload in the entry region: the head's first entry
	// is the label, at the start of the region.
	corrupt := dps[corruptApp]
	e.Store().ReadBlock(corrupt.Rank(), corrupt, head)
	if holder.NumBlocks(head) != 1 || head[holder.HeaderSize] != byte(lpg.IDLabel) {
		t.Fatal("the corrupt vertex's entry region does not start with its label")
	}
	head[holder.HeaderSize+2] = 0x80 // a uvarint that never ends
	e.Store().WriteBlock(corrupt.Rank(), corrupt, head)
	for r := range ranks {
		for _, mode := range []Mode{ReadOnly, ReadWrite} {
			tx := e.StartLocal(fabric.Rank(r), mode)
			if _, err := tx.AssociateVertex(corrupt); !errors.Is(err, ErrNotFound) {
				t.Errorf("rank %d, mode %d: associating a corrupt entry region: err = %v, want ErrNotFound", r, mode, err)
			}
			tx.Abort()
		}
	}

	// A corrupt tail: the edge region ends the stream's content, so its last
	// nonzero byte is the last run's, and 0xff from there on is a varint
	// that overflows or runs off the stream.
	stream, blocks := e.readChain(torn.Rank(), torn, nil)
	end := len(stream) - 1
	for stream[end] == 0 {
		end--
	}
	for i := end; i < min(end+11, len(stream)); i++ {
		stream[i] = 0xff
	}
	for i, dp := range blocks {
		e.Store().WriteBlock(torn.Rank(), dp, stream[i*64:(i+1)*64])
	}
	for r := range ranks {
		for _, mode := range []Mode{ReadOnly, ReadWrite} {
			name := fmt.Sprintf("torn vertex from rank %d, mode %d", r, mode)
			tx := e.StartLocal(fabric.Rank(r), mode)
			h, err := tx.AssociateVertex(torn)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !h.HasLabel(tag) {
				t.Errorf("%s: the label ahead of the damage is lost", name)
			}
			for mask := MaskOut; mask <= MaskAll; mask++ {
				for _, c := range conses[:3] {
					if edges, err := checkEdges(t, h, mask, c); !errors.Is(err, ErrNotFound) {
						t.Errorf("%s: Edges(%d) = %v, %v; want ErrNotFound", name, mask, edges, err)
					}
				}
				if err := h.ForEachEdge(mask, func(fabric.DPtr, holder.Direction) {}); !errors.Is(err, ErrNotFound) {
					t.Errorf("%s: ForEachEdge(%d) = %v, want ErrNotFound", name, mask, err)
				}
			}
			if err := h.st.materialize(); !errors.Is(err, ErrNotFound) {
				t.Errorf("%s: materializing a corrupt tail: %v, want ErrNotFound", name, err)
			}
			tx.Abort()
		}
	}
}
