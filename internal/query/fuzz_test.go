package query

import (
	"reflect"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// limitFuzzVerts is the vertex count of FuzzLimitHopMatchesNaive's fixture:
// vertex i has application ID i, so it lives on rank i%4, is a Person, and is
// aged i*7%90; unless i%3 is 1 it has a nick of i%4 bytes, empty when i%4 is
// 0. A bulk load gives it out-edges to vertices i+1, i+3, …, i+17 (mod n),
// stored as one ascending run, and then a transaction appends out-edges to
// vertices i+1, 5i+3 and 7i+2 (mod n) behind it, in that order: those below
// the run's last neighbor, or below the append before them, start runs of
// their own. The in-records on the targets mix the same way.
const limitFuzzVerts = 24

// FuzzLimitHopMatchesNaive holds the filter hop to its handle-walk
// reference over a 4-rank fixture. The input picks an age threshold and a
// projection (byte 0: the threshold is byte%91, and byte/91 projects
// nothing, the age, or the nick), a limit in 0..n+1 and the route (byte 1:
// its top bit picks the harvest), whether a vertex migrates first, so that
// its old rank's forwarding word is no longer 0 and a frontier or an edge
// may name its stub, and whether the transaction rewrites a vertex's age
// and nick first, so that the hop must see its own write (byte 2, which
// also picks the vertex).
//
// On the list route every further byte picks a DPtr for the frontier, the
// exclude set, or both, duplicates allowed, and FilterFrontier filters them.
// On the harvest route byte 3 picks a direction mask and a frontier of 1 to
// 3 vertices, which the next bytes name; every byte after those picks a
// DPtr for the exclude set. FilterNeighbors then harvests the frontier's
// neighbors under the mask into the hop's bitmap and filters them, and
// naiveHop does the same in two steps: the harvest, then the filter.
//
// The limit smallest of the IDs the compiled hop returns must be the limit
// smallest of the naive filter's (all of them at limit 0); every ID it
// returns must be one of the naive filter's, none twice; under a projection
// the value it returns with each ID, and whether there is one, must be what
// AssociateVertex(id).Property gives in the same transaction; and the
// transaction must commit.
func FuzzLimitHopMatchesNaive(f *testing.F) {
	f.Add([]byte{30, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{30, 3, 0x11, 1, 5, 9, 13, 0x44, 0xc5, 17, 21, 24, 2, 2, 0x82})
	f.Add([]byte{0, 25, 0x23, 0, 4, 8, 12, 16, 20, 0x40, 0x84, 1, 24})
	f.Add([]byte{45, 0, 0x0a, 3, 3, 7, 0x47, 11, 15, 19, 23, 0x8b})
	// The rewritten vertex 2 matches, above the matching vertex 5 and below
	// vertex 3: the hop must not stop at it.
	f.Add([]byte{30, 1, 0x0a, 0, 4, 5, 2, 3})
	// The harvest route: one, two and three frontier vertices under each
	// mask, with and without a migration, a rewrite and an exclude set.
	f.Add([]byte{30, 0x85, 0, 0x03, 0})
	f.Add([]byte{30, 0x83, 0x11, 0x05, 1, 5, 0, 2})
	f.Add([]byte{0, 0x99, 0x23, 0x0a, 0, 4, 8, 0x40, 1, 24})
	f.Add([]byte{45, 0x80, 0x0a, 0x07, 3, 7, 11, 19})
	f.Add([]byte{30, 0x81, 0x0a, 0x02, 1, 2})
	// Projected: the age, then the nick, which vertices 1, 4, 7, … lack and
	// 0, 12 and 24 hold empty, on both routes, with and without a limit, a
	// migration and a rewrite.
	f.Add([]byte{91 + 30, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{182 + 0, 0, 0x0a, 0, 1, 4, 8, 12, 16, 20, 2, 3})
	f.Add([]byte{182 + 30, 3, 0x11, 1, 5, 9, 13, 0x44, 0xc5, 17, 21, 24, 2, 2, 0x82})
	f.Add([]byte{91 + 0, 0x99, 0x23, 0x0a, 0, 4, 8, 0x40, 1, 24})
	f.Add([]byte{182 + 45, 0x83, 0x0b, 0x05, 1, 5, 0, 2})
	f.Add([]byte{182 + 0, 0x80, 0x02, 0x03, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		over, limit, flags := uint64(data[0]%91), int(data[1]&0x7f)%(limitFuzzVerts+2), data[2]
		harvest := data[1]&0x80 != 0
		if harvest && len(data) < 4 {
			return
		}
		g, dps, nick := newLimitFuzzGraph(t)
		project := []lpg.PTypeID{0, g.age, nick}[data[0]/91]
		victim := int(flags>>2) % limitFuzzVerts
		target := dps[victim]
		if flags&1 != 0 {
			// Move the victim one rank up: its old DPtr becomes a stub, and
			// its new one is dps[limitFuzzVerts].
			dest := fabric.Rank((victim + 1) % 4)
			if n, err := g.e.MigrateVertices(dest, []core.MigrationMove{{App: uint64(victim), Old: dps[victim], Dest: dest}}); err != nil || n != 1 {
				t.Fatalf("migration of vertex %d: moved %d, %v", victim, n, err)
			}
			look := g.e.StartLocal(0, core.ReadOnly)
			cur, err := look.TranslateVertexID(uint64(victim))
			look.Abort()
			if err != nil || cur.Rank() != dest {
				t.Fatalf("vertex %d after migration: %v, %v", victim, cur, err)
			}
			dps, target = append(dps, cur), cur
		}
		mode := core.ReadOnly
		if flags&2 != 0 {
			mode = core.ReadWrite
		}
		tx := g.e.StartLocal(0, mode)
		defer tx.Abort()
		if mode == core.ReadWrite {
			h, err := tx.AssociateVertex(target)
			if err == nil {
				err = h.SetProperty(g.age, lpg.EncodeUint64(89-over))
			}
			if err == nil {
				err = h.SetProperty(nick, []byte("own"))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		pick := func(b byte) fabric.DPtr { return dps[int(b&0x3f)%len(dps)] }
		var frontier, exclude []fabric.DPtr
		cons := g.ageOver(over)
		var got, want []fabric.DPtr
		var vals []core.Projected
		var kept []*core.VertexHandle
		var err error
		if harvest {
			mask := core.DirMask(data[3] & 3)
			if mask == 0 {
				mask = core.MaskAll
			}
			n := min(1+int(data[3]>>2)%3, len(data)-4)
			for _, b := range data[4 : 4+n] {
				frontier = append(frontier, pick(b))
			}
			for _, b := range data[4+n:] {
				exclude = append(exclude, pick(b))
			}
			if got, vals, err = tx.FilterNeighbors(frontier, nil, mask, exclude, cons, limit, project); err != nil {
				t.Fatalf("compiled round: %v", err)
			}
			_, next, err := naiveHop(tx, frontier, nil, mask, nil)
			if err != nil {
				t.Fatalf("naive harvest: %v", err)
			}
			if kept, _, err = naiveHop(tx, next, exclude, 0, cons); err != nil {
				t.Fatalf("naive filter: %v", err)
			}
		} else {
			for _, b := range data[3:] {
				if b&0x80 == 0 {
					frontier = append(frontier, pick(b))
				}
				if b&0xc0 != 0 {
					exclude = append(exclude, pick(b))
				}
			}
			if got, vals, err = tx.FilterFrontier(frontier, exclude, cons, limit, project); err != nil {
				t.Fatalf("compiled filter: %v", err)
			}
			if kept, _, err = naiveHop(tx, frontier, exclude, 0, cons); err != nil {
				t.Fatalf("naive filter: %v", err)
			}
		}
		want = ids(kept)
		if project == 0 && vals != nil {
			t.Fatalf("the hop projected nothing and returned %d values", len(vals))
		}
		if project != 0 && len(vals) != len(got) {
			t.Fatalf("the hop returned %d values for %d IDs", len(vals), len(got))
		}
		for k, id := range got {
			if project == 0 {
				break
			}
			h, err := tx.AssociateVertex(id)
			if err != nil {
				t.Fatal(err)
			}
			if val, ok := h.Property(project); !reflect.DeepEqual(vals[k], core.Projected{Value: val, OK: ok}) {
				t.Fatalf("the hop projected %+v on %v, its handle %q, %v", vals[k], id, val, ok)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Fatalf("compiled filter returned %v: an ID twice", got)
		}
		for _, id := range got {
			if _, ok := slices.BinarySearch(want, id); !ok {
				t.Fatalf("compiled filter returned %v, which holds %v; the naive filter %v", got, id, want)
			}
		}
		keep := len(want)
		if limit > 0 {
			keep = min(limit, keep)
		}
		if len(got) < keep || !slices.Equal(got[:keep], want[:keep]) {
			t.Fatalf("frontier %v (harvested: %v) less %v, age ≥ %d, LIMIT %d: compiled %v, naive %v", frontier, harvest, exclude, over, limit, got, want)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	})
}

// newLimitFuzzGraph builds FuzzLimitHopMatchesNaive's fixture and returns
// its vertices by application ID, and the nick's p-type.
func newLimitFuzzGraph(t *testing.T) (*testGraph, []fabric.DPtr, lpg.PTypeID) {
	t.Helper()
	e := core.NewEngine(rma.New(4), core.Config{
		BlockSize:     256,
		BlocksPerRank: 1 << 8,
		LockTries:     256,
		CacheCapacity: 1 << 6,
	})
	g := &testGraph{e: e}
	var err error
	if g.person, err = e.DefineLabel("Person"); err != nil {
		t.Fatal(err)
	}
	if g.age, err = e.DefinePType("age", metadata.PTypeSpec{Datatype: lpg.TypeUint64}); err != nil {
		t.Fatal(err)
	}
	nick, err := e.DefinePType("nick", metadata.PTypeSpec{Datatype: lpg.TypeBytes})
	if err != nil {
		t.Fatal(err)
	}
	tx := e.StartLocal(0, core.ReadWrite)
	dps := make([]fabric.DPtr, limitFuzzVerts)
	for i := range dps {
		if dps[i], err = tx.CreateVertex(uint64(i)); err != nil {
			t.Fatal(err)
		}
		h, err := tx.AssociateVertex(dps[i])
		if err == nil {
			err = h.AddLabel(g.person)
		}
		if err == nil {
			err = h.AddProperty(g.age, lpg.EncodeUint64(uint64(i*7%90)))
		}
		if err == nil && i%3 != 1 {
			err = h.AddProperty(nick, []byte("abc")[:i%4])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Fabric().Run(func(r fabric.Rank) {
		var specs []core.EdgeSpec
		for i := range limitFuzzVerts {
			for k := 1; r == 0 && k < 18; k += 2 {
				specs = append(specs, core.EdgeSpec{OriginApp: uint64(i), TargetApp: uint64((i + k) % limitFuzzVerts), Dir: holder.DirOut, Label: g.person})
			}
		}
		if err := e.BulkLoadEdges(r, specs); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	tx = e.StartLocal(0, core.ReadWrite)
	for i, dp := range dps {
		for _, j := range []int{i + 1, 5*i + 3, 7*i + 2} {
			if _, err := tx.CreateEdge(dp, dps[j%len(dps)], holder.DirOut, g.person); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return g, dps, nick
}
