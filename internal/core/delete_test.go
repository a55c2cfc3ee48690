package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/rma"
)

// referenceDeleteVertex is the DeleteVertex the one-flush neighbourhood
// association replaced: one blocking AssociateVertex per neighbour, in edge
// order — a light edge's neighbour, or the far endpoint of a heavy edge,
// whose record of the edge holder goes with the holder. It is the oracle the
// batched walk is checked against.
func referenceDeleteVertex(tx *Tx, dp fabric.DPtr) error {
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		return err
	}
	st := h.st
	if err := st.fold(); err != nil {
		return err
	}
	if err := tx.ensureWrite(st); err != nil {
		return err
	}
	for _, rec := range st.v.Edges {
		nb := rec.Neighbor
		if rec.Heavy {
			es, err := tx.fetchEdgeState(rec.Neighbor)
			if err != nil {
				return err
			}
			if es.deleted {
				continue
			}
			if nb = es.e.Target; st.isIdentity(nb) {
				nb = es.e.Origin
			}
			if err := tx.dropEdgeHolder(rec.Neighbor); err != nil {
				return err
			}
		}
		if st.isIdentity(nb) {
			continue // self-loop: both records live here
		}
		nh, err := tx.AssociateVertex(nb)
		if err != nil {
			return err
		}
		if err := nh.st.fold(); err != nil {
			return err
		}
		if err := tx.ensureWrite(nh.st); err != nil {
			return err
		}
		if rec.Heavy {
			nh.st.v.Edges = removeFirstMatch(nh.st.v.Edges, matchHeavySibling(rec.Neighbor))
		} else {
			nh.st.v.Edges = removeSiblings(nh.st.v.Edges, st)
		}
	}
	st.v.Edges = nil
	st.deleted = true
	return nil
}

// deleteFixture is the neighbourhood the delete golden cases start from. The
// victim lives on rank 1 and every mutation runs on rank 0, so almost every
// association is remote. In edge order, the victim's records name:
//   - light neighbours on all four ranks;
//   - a multi-edge: two records to one vertex, plus an undirected edge it
//     created;
//   - a directed and an undirected self-loop;
//   - a heavy edge;
//   - a neighbour that migrated after the edge was made, so the record names
//     its forwarding stub;
//   - two replicated neighbours;
//   - dangling: a live vertex whose own record was stripped, so deleting it
//     leaves the victim's record behind;
//   - gone (when built with gone): a deleted vertex whose record was
//     stripped first, so the victim's record names a freed block;
//   - two more light neighbours.
type deleteFixture struct {
	victim, dangling fabric.DPtr
}

func buildDeleteFixture(t *testing.T, e *Engine, gone bool) deleteFixture {
	t.Helper()
	const ranks = 4
	run := func(fn func(tx *Tx) error) {
		t.Helper()
		tx := e.StartLocal(0, ReadWrite)
		if err := fn(tx); err != nil {
			tx.Abort()
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// vertex k on rank r has application ID r + k·ranks.
	dps := make(map[uint64]fabric.DPtr)
	vertex := func(r, k int) uint64 { return uint64(r + k*ranks) }
	run(func(tx *Tx) error {
		for r := 0; r < ranks; r++ {
			for k := 0; k < 4; k++ {
				dp, err := tx.CreateVertex(vertex(r, k))
				if err != nil {
					return err
				}
				dps[vertex(r, k)] = dp
			}
		}
		return nil
	})
	v := func(r, k int) fabric.DPtr { return dps[vertex(r, k)] }
	victim := v(1, 0)
	light := func(o, t fabric.DPtr, dir holder.Direction) func(*Tx) error {
		return func(tx *Tx) error { _, err := tx.CreateEdge(o, t, dir, 0); return err }
	}
	// strip drops dp's own records, leaving one-sided records at its
	// neighbours.
	strip := func(dp fabric.DPtr) func(*Tx) error {
		return func(tx *Tx) error {
			h, err := tx.AssociateVertex(dp)
			if err != nil {
				return err
			}
			if err := h.st.fold(); err != nil {
				return err
			}
			if err := tx.ensureWrite(h.st); err != nil {
				return err
			}
			h.st.v.Edges = nil
			return nil
		}
	}
	for r := 0; r < ranks; r++ {
		run(light(victim, v(r, 1), holder.DirOut))
	}
	multi := v(2, 2)
	run(light(victim, multi, holder.DirOut))
	run(light(victim, multi, holder.DirOut))
	run(light(multi, victim, holder.DirUndirected))
	run(light(victim, victim, holder.DirOut))
	run(light(victim, victim, holder.DirUndirected))
	run(func(tx *Tx) error {
		_, err := tx.CreateRichEdge(victim, v(3, 2), holder.DirOut, nil, nil)
		return err
	})
	migrant := vertex(2, 3)
	run(light(dps[migrant], victim, holder.DirOut))
	replicated := []uint64{vertex(2, 1), vertex(0, 2)}
	run(light(victim, dps[replicated[0]], holder.DirOut))
	run(light(dps[replicated[1]], victim, holder.DirUndirected))
	dangling := v(3, 3)
	run(light(victim, dangling, holder.DirOut))
	run(strip(dangling))
	if gone {
		g := v(0, 3)
		run(light(victim, g, holder.DirOut))
		run(strip(g))
		run(func(tx *Tx) error { return tx.DeleteVertex(g) })
	}
	run(light(v(1, 1), victim, holder.DirOut))
	run(light(victim, v(0, 1), holder.DirUndirected))
	mustMigrate(t, e, migrant, 3)
	if e.replicateAll(3, replicated[:1], 2) != 1 || e.replicateAll(1, replicated[1:], 2) != 1 {
		t.Fatal("seeded no follower copy")
	}
	return deleteFixture{victim: victim, dangling: dangling}
}

// TestDeleteVertexMatchesReference is the golden test of the one-flush
// delete: on twin engines with the same history, deleting through
// DeleteVertex and through referenceDeleteVertex must return the same error
// and leave every window of every rank — block payloads, free lists, lock
// words, the internal index — byte-identical. The cases are: a clean delete
// that commits; a neighbour already deleted by the same transaction, which
// must fail with the same ErrNotFound before a later gone neighbour; and a
// neighbour whose holder is gone.
func TestDeleteVertexMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name         string
		gone         bool
		delDangling  bool // delete the dangling neighbour first
		wantNotFound bool
	}{
		{"commit", false, false, false},
		{"deleted-in-tx", true, true, true},
		{"gone", true, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(del func(*Tx, fabric.DPtr) error) (*windowLog, string) {
				log := &windowLog{Transport: rma.New(4)}
				e := NewEngine(log, Config{BlockSize: 64, BlocksPerRank: 1 << 10, LockTries: 64})
				fx := buildDeleteFixture(t, e, tc.gone)
				tx := e.StartLocal(0, ReadWrite)
				if tc.delDangling {
					if err := del(tx, fx.dangling); err != nil {
						t.Fatal(err)
					}
				}
				err := del(tx, fx.victim)
				if errors.Is(err, ErrNotFound) != tc.wantNotFound {
					t.Fatalf("delete returned %v, want ErrNotFound: %v", err, tc.wantNotFound)
				}
				if cerr := tx.Commit(); cerr != nil {
					t.Fatal(cerr)
				}
				return log, fmt.Sprint(err)
			}
			got, gotErr := run((*Tx).DeleteVertex)
			want, wantErr := run(referenceDeleteVertex)
			if gotErr != wantErr {
				t.Fatalf("DeleteVertex returned %q, the reference %q", gotErr, wantErr)
			}
			gotBytes, gotWords := got.dump()
			wantBytes, wantWords := want.dump()
			if !reflect.DeepEqual(gotBytes, wantBytes) {
				t.Error("byte windows (block payloads) differ from the reference delete's")
			}
			if !reflect.DeepEqual(gotWords, wantWords) {
				t.Error("word windows (free lists, lock words, index) differ from the reference delete's")
			}
		})
	}
}

// localApp returns the first application ID placed on rank 0 whose internal
// index entry also lives on rank 0, so creating and deleting it costs no
// remote traffic of its own.
func localApp(e *Engine) uint64 {
	for app := uint64(0); ; app += uint64(e.fab.Size()) {
		if e.OwnerOf(app) == 0 && e.index.HomeRank(app) == 0 {
			return app
		}
	}
}

// TestDeleteVertexAssociatesNeighbourhoodOnce is DeleteVertex's traffic
// contract. Rank 0 deletes a local vertex whose neighbours sit on three
// remote ranks. The delete reads the whole neighbourhood in one guarded GET
// train per owner rank, which loads each guard ahead of its block and
// behind it, and issues no atomic train at all. The commit's lock and
// release trains are seeded with the version the read saw, so each takes
// one round per rank, and since every vertex it read it also wrote, the
// lock train vouches for the whole read set: no validation load train. None
// of it depends on the degree.
func TestDeleteVertexAssociatesNeighbourhoodOnce(t *testing.T) {
	const remotes = 3
	cost := func(deg int) (del, commit traffic) {
		e := NewEngine(rma.New(1+remotes), Config{BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 64})
		app := localApp(e)
		setup := e.StartLocal(0, ReadWrite)
		victim, err := setup.CreateVertex(app)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < deg; i++ {
			nb, err := setup.CreateVertex(app + 1 + uint64(i%remotes)) // ranks 1, 2, 3
			if err != nil {
				t.Fatal(err)
			}
			if _, err := setup.CreateEdge(victim, nb, holder.DirOut, 0); err != nil {
				t.Fatal(err)
			}
			app += uint64(1 + remotes)
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		tx := e.StartLocal(0, ReadWrite)
		del = measure(e, func() {
			if err := tx.DeleteVertex(victim); err != nil {
				t.Fatal(err)
			}
		})
		commit = measure(e, func() {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		return del, commit
	}
	d8, c8 := cost(8)
	d64, c64 := cost(64)
	for _, c := range []struct {
		deg         int
		del, commit traffic
	}{{8, d8, c8}, {64, d64, c64}} {
		want := traffic{atoms: 2 * int64(c.deg), gets: int64(c.deg), getTrains: remotes, cacheMisses: int64(c.deg)}
		if c.del != want {
			t.Errorf("degree %d: DeleteVertex %+v, want %+v (one guarded GET round, no atomic train)", c.deg, c.del, want)
		}
		if c.commit.atoms != 2*int64(c.deg) || c.commit.atomTrains != 2*remotes {
			t.Errorf("degree %d: commit issued %d remote atomics in %d trains, want %d in %d (one seeded lock and one seeded release round per rank)",
				c.deg, c.commit.atoms, c.commit.atomTrains, 2*c.deg, 2*remotes)
		}
	}
	if d8.atomTrains != d64.atomTrains || d8.getTrains != d64.getTrains || c8.atomTrains != c64.atomTrains || c8.putTrains != c64.putTrains {
		t.Errorf("trains grow with the degree: delete %+v / %+v, commit %+v / %+v", d8, d64, c8, c64)
	}
}

// TestCreateEdgeAssociatesEndpointsOnce: two cold endpoints on one remote
// rank share one guarded GET train, which loads each guard ahead of its
// block and behind it, and no atomic train. The commit locks and releases
// both in one seeded round each; a rich edge's new holder, on the same
// rank, rides both trains.
func TestCreateEdgeAssociatesEndpointsOnce(t *testing.T) {
	for _, rich := range []bool{false, true} {
		t.Run(fmt.Sprintf("rich=%v", rich), func(t *testing.T) {
			e := NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 64})
			setup := e.StartLocal(1, ReadWrite)
			o, err := setup.CreateVertex(1)
			if err != nil {
				t.Fatal(err)
			}
			d, err := setup.CreateVertex(3)
			if err != nil {
				t.Fatal(err)
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}
			want := traffic{atoms: 4, gets: 2, getTrains: 1, cacheMisses: 2}
			if rich {
				// The edge holder's block comes off the origin rank's pool.
				var hp fabric.DPtr
				alloc := measure(e, func() { hp, err = e.store.AcquireBlock(0, o.Rank()) })
				if err != nil {
					t.Fatal(err)
				}
				e.store.ReleaseBlock(0, hp)
				want.atoms += alloc.atoms
			}
			tx := e.StartLocal(0, ReadWrite)
			create := measure(e, func() {
				if rich {
					_, err = tx.CreateRichEdge(o, d, holder.DirOut, nil, nil)
				} else {
					_, err = tx.CreateEdge(o, d, holder.DirOut, 0)
				}
				if err != nil {
					t.Fatal(err)
				}
			})
			if create != want {
				t.Errorf("creating the edge: %+v, want %+v", create, want)
			}
			commit := measure(e, func() {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			})
			words := int64(2)
			if rich {
				words++
			}
			if commit.atoms != 2*words || commit.atomTrains != 2 {
				t.Errorf("commit issued %d remote atomics in %d trains, want %d in 2", commit.atoms, commit.atomTrains, 2*words)
			}
		})
	}
}

// TestReadWriteCommitOfReadsValidatesInOneTrain: a read-write transaction
// that only reads two remote vertices holds no lock; its commit validates
// both reads in one load train and releases nothing.
func TestReadWriteCommitOfReadsValidatesInOneTrain(t *testing.T) {
	e := NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 64})
	setup := e.StartLocal(1, ReadWrite)
	var dps []fabric.DPtr
	for _, app := range []uint64{1, 3} {
		dp, err := setup.CreateVertex(app)
		if err != nil {
			t.Fatal(err)
		}
		dps = append(dps, dp)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := e.StartLocal(0, ReadWrite)
	if _, err := tx.AssociateVertices(dps); err != nil {
		t.Fatal(err)
	}
	commit := measure(e, func() {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if want := (traffic{atoms: 2, atomTrains: 1}); commit != want {
		t.Errorf("commit: %+v, want %+v", commit, want)
	}
}

// TestDeleteVertexDropsHeavySibling: deleting one endpoint of a heavy edge
// removes the edge holder and the surviving endpoint's record of it, on
// either rank, so the survivor's degree and edges no longer name a holder
// that is gone (and whose block a later holder may reuse).
func TestDeleteVertexDropsHeavySibling(t *testing.T) {
	for _, doomedFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("delete-origin=%v", doomedFirst), func(t *testing.T) {
			e := NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 64})
			setup := e.StartLocal(0, ReadWrite)
			a, err := setup.CreateVertex(0) // rank 0
			if err != nil {
				t.Fatal(err)
			}
			b, err := setup.CreateVertex(1) // rank 1
			if err != nil {
				t.Fatal(err)
			}
			if _, err := setup.CreateRichEdge(a, b, holder.DirOut, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}
			doomed, survivor := a, b
			if !doomedFirst {
				doomed, survivor = b, a
			}
			del := e.StartLocal(0, ReadWrite)
			if err := del.DeleteVertex(doomed); err != nil {
				t.Fatal(err)
			}
			if err := del.Commit(); err != nil {
				t.Fatal(err)
			}
			tx := e.StartLocal(1, ReadOnly)
			defer tx.Abort()
			h, err := tx.AssociateVertex(survivor)
			if err != nil {
				t.Fatal(err)
			}
			if d := h.Degree(); d != 0 {
				t.Errorf("the survivor's degree is %d, want 0", d)
			}
			if infos, err := h.Edges(MaskAll, nil); err != nil || infos.Len() != 0 {
				t.Errorf("the survivor's edges: %+v, %v; want none", infos, err)
			}
		})
	}
}

// TestRefusedDeleteEdgeLeavesStateClean: a DeleteEdge refused in a read-only
// transaction, or for an index past the vertex's degree, decodes nothing —
// the state stays clean and a later Edges walks its view — and a refused
// delete in a read-write transaction marks nothing for write-back.
func TestRefusedDeleteEdgeLeavesStateClean(t *testing.T) {
	e := NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 64})
	setup := e.StartLocal(0, ReadWrite)
	a, err := setup.CreateVertex(0)
	if err != nil {
		t.Fatal(err)
	}
	var nbrs []fabric.DPtr
	for app := uint64(1); app <= 8; app++ {
		b, err := setup.CreateVertex(app)
		if err == nil {
			_, err = setup.CreateEdge(a, b, holder.DirOut, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		nbrs = append(nbrs, b)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		mode  Mode
		index uint32
		want  error
	}{
		{"read-only", ReadOnly, 0, ErrReadOnly},
		{"past the degree", ReadWrite, uint32(len(nbrs)), ErrNotFound},
	} {
		t.Run(c.name, func(t *testing.T) {
			tx := e.StartLocal(0, c.mode)
			defer tx.Abort()
			if err := tx.DeleteEdge(holder.EdgeUID{Vertex: a, Index: c.index}); !errors.Is(err, c.want) {
				t.Fatalf("DeleteEdge: %v, want %v", err, c.want)
			}
			h, err := tx.AssociateVertex(a)
			if err != nil {
				t.Fatal(err)
			}
			if h.st.v != nil || h.st.dirty {
				t.Fatalf("the refused delete left the state decoded=%v dirty=%v, want it clean", h.st.v != nil, h.st.dirty)
			}
			l, err := h.Edges(MaskAll, nil)
			if err != nil || !reflect.DeepEqual(l.Neighbors(), nbrs) {
				t.Fatalf("Edges after the refused delete: %v, %v; want %v", l.Neighbors(), err, nbrs)
			}
			if h.st.v != nil {
				t.Fatal("Edges decoded the records instead of walking the view")
			}
		})
	}
}
