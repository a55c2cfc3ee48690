package analytics

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/fabric/tcp"
	"github.com/gdi-go/gdi/internal/rma"
)

// kernelCSR opens the collective read-only transaction a dense kernel opens
// and returns the CSR the kernel would iterate, together with a fresh build
// in the same transaction. Collective.
func kernelCSR(p *gdi.Process, g *Graph) (used, fresh *csr, err error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	used, err = g.csrOf(p, tx)
	fresh, ferr := buildCSR(p, tx)
	if err == nil {
		err = ferr
	}
	return used, fresh, err
}

// retainedBytes is what a cached CSR keeps live: its arrays, the mirror
// plan's included.
func retainedBytes(c *csr) int {
	pl := &c.plan
	n := 8*cap(c.ids) + 8*cap(c.app) + 4*cap(c.counts) + 4*cap(c.allOff) + 4*cap(c.outEnd) + 8*cap(c.allTgt) +
		4*cap(pl.ghostOff) + 4*cap(pl.slotOff) + 4*cap(pl.slotOutEnd) + 4*cap(pl.slots)
	for _, ms := range pl.mirrors {
		n += 4 * cap(ms)
	}
	return n
}

// reuseChecker holds the CSR each rank's kernels used last.
type reuseChecker struct {
	t    *testing.T
	rt   *gdi.Runtime
	g    *Graph
	last []*csr
}

// check runs the CSR step of a dense kernel on every rank. The CSR it hands
// out must equal a fresh build field for field, and with reuse it must be
// the very snapshot the previous call used.
func (r *reuseChecker) check(what string, reuse bool) {
	r.t.Helper()
	var mu sync.Mutex
	r.rt.Run(r.g.DB, func(p *gdi.Process) {
		used, fresh, err := kernelCSR(p, r.g)
		mu.Lock()
		defer mu.Unlock()
		me := p.Rank()
		switch {
		case err != nil:
			r.t.Errorf("%s: rank %d: %v", what, me, err)
		case reuse && used != r.last[me]:
			r.t.Errorf("%s: rank %d rebuilt its CSR, want the previous snapshot", what, me)
		case !reflect.DeepEqual(used, fresh):
			r.t.Errorf("%s: rank %d's kernel CSR differs from a fresh build (reused: %v)", what, me, used == r.last[me])
		}
		r.last[me] = used
	})
}

// commitOn runs body in one read-write transaction on rank r and commits it.
func commitOn(g *Graph, r gdi.Rank, body func(tx *gdi.Transaction) error) error {
	tx := g.DB.Process(r).StartTransaction(gdi.ReadWrite)
	if err := body(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// addEdge commits one undirected edge between two application IDs on rank 0.
func addEdge(g *Graph, a, b uint64) error {
	return commitOn(g, 0, func(tx *gdi.Transaction) error {
		va, err := tx.TranslateVertexID(a)
		if err != nil {
			return err
		}
		vb, err := tx.TranslateVertexID(b)
		if err != nil {
			return err
		}
		_, err = tx.CreateEdge(va, vb, gdi.DirUndirected, 0)
		return err
	})
}

// TestCSRReuseMatchesFreshBuild is the invariant behind the CSR cache: after
// each kind of store mutation, the CSR the next dense kernel iterates equals
// a fresh build; with no mutation it is the same snapshot. The mutations are
// a create, deletes of an isolated and of a connected vertex, an edge add
// and delete, a property-only commit, the migration of a connected vertex, a
// Rebalance round, a further bulk load, a commit that lands while the CSR is
// being built, and a failover (KillRank, then PromoteDead).
func TestCSRReuseMatchesFreshBuild(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			rt, g := testGraphWith(t, ranks, smallCfg, gdi.DatabaseParams{RebalanceHeatTracking: true})
			r := &reuseChecker{t: t, rt: rt, g: g, last: make([]*csr, ranks)}
			r.check("first build", false)
			r.check("no mutation", true)
			r.check("no mutation, again", true)
			mutate := func(what string, body func(tx *gdi.Transaction) error) {
				t.Helper()
				if err := commitOn(g, 0, body); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				r.check(what, false)
			}

			const isolated = uint64(1) << 40
			mutate("create a vertex", func(tx *gdi.Transaction) error {
				_, err := tx.CreateVertex(isolated)
				return err
			})
			mutate("delete an isolated vertex", func(tx *gdi.Transaction) error {
				v, err := tx.TranslateVertexID(isolated)
				if err != nil {
					return err
				}
				return tx.DeleteVertex(v)
			})
			mutate("delete a connected vertex", func(tx *gdi.Transaction) error {
				for app := uint64(0); ; app++ {
					v, err := tx.TranslateVertexID(app)
					if err != nil {
						return err
					}
					h, err := tx.AssociateVertex(v)
					if err != nil {
						return err
					}
					if h.Degree() > 0 {
						return tx.DeleteVertex(v)
					}
				}
			})
			var uid gdi.EdgeUID
			mutate("add an edge", func(tx *gdi.Transaction) error {
				a, err := tx.TranslateVertexID(100)
				if err != nil {
					return err
				}
				b, err := tx.TranslateVertexID(101)
				if err != nil {
					return err
				}
				uid, err = tx.CreateEdge(a, b, gdi.DirOut, 0)
				return err
			})
			mutate("delete an edge", func(tx *gdi.Transaction) error { return tx.DeleteEdge(uid) })
			mutate("property-only commit", func(tx *gdi.Transaction) error {
				v, err := tx.TranslateVertexID(102)
				if err != nil {
					return err
				}
				h, err := tx.AssociateVertex(v)
				if err != nil {
					return err
				}
				return h.SetProperty(g.Schema.AgeProp, gdi.Uint64Value(77))
			})

			if ranks > 1 {
				// Connected vertices: their neighbors' edge records keep naming
				// their old homes, which the alias round resolves.
				hot := connectedApps(t, g, 0, 3)
				migrateApp(t, g, hot[0], 1)
				r.check("migrate a connected vertex", false)
				rebalanceTo(t, rt, g, gdi.Rank(ranks-1), hot[1:])
				r.check("Rebalance", false)
			}

			rt.Run(g.DB, func(p *gdi.Process) {
				var vs []gdi.VertexSpec
				var es []gdi.EdgeSpec
				if p.Rank() == 0 {
					for k := uint64(0); k < 8; k++ {
						vs = append(vs, gdi.VertexSpec{AppID: 1<<41 + k})
						es = append(es, gdi.EdgeSpec{OriginApp: 1<<41 + k, TargetApp: 110 + k, Dir: gdi.DirOut})
					}
				}
				if err := p.BulkLoadVertices(vs); err != nil {
					t.Error(err)
					return
				}
				if err := p.BulkLoadEdges(es); err != nil {
					t.Error(err)
				}
			})
			r.check("further bulk load", false)

			// A commit that lands after the build read the shard but before the
			// snapshot is cached: the cache must keep the epoch sampled before
			// the build, so the next kernel rebuilds.
			if err := addEdge(g, 103, 104); err != nil {
				t.Fatal(err)
			}
			rt.Run(g.DB, func(p *gdi.Process) {
				tx := p.StartCollectiveTransaction(gdi.ReadOnly)
				defer tx.Commit()
				_, err := g.reuseOrBuild(p, tx, func(p *gdi.Process, tx *gdi.Transaction) (*csr, error) {
					c, err := buildCSR(p, tx)
					if p.Rank() == 0 {
						if cerr := addEdge(g, 105, 106); cerr != nil {
							t.Error(cerr)
						}
					}
					p.Barrier()
					return c, err
				})
				if err != nil {
					t.Error(err)
				}
			})
			r.check("commit landing mid-build", false)
			r.check("no mutation after the rebuild", true)
		})
	}
	for _, ranks := range []int{2, 4} {
		t.Run(fmt.Sprintf("promote/ranks=%d", ranks), func(t *testing.T) {
			testPromotedCSRMatchesFreshBuild(t, ranks)
		})
	}
}

// connectedApps returns the first k application IDs of vertices with an
// edge that live on rank owner.
func connectedApps(t *testing.T, g *Graph, owner gdi.Rank, k int) []uint64 {
	t.Helper()
	tx := g.DB.Process(owner).StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	var apps []uint64
	for app := uint64(0); len(apps) < k; app++ {
		if app > 1<<12 {
			t.Fatalf("found %d of %d connected vertices on rank %d", len(apps), k, owner)
		}
		v, err := tx.TranslateVertexID(app)
		if err != nil || v.Rank() != owner {
			continue // deleted, or elsewhere
		}
		h, err := tx.AssociateVertex(v)
		if err != nil {
			t.Fatal(err)
		}
		if h.Degree() > 0 {
			apps = append(apps, app)
		}
	}
	return apps
}

// rebalanceTo makes rank reader the dominant accessor of apps with repeated
// reads and runs one Rebalance round, which must move at least one vertex.
func rebalanceTo(t *testing.T, rt *gdi.Runtime, g *Graph, reader gdi.Rank, apps []uint64) {
	t.Helper()
	// Each CSR build so far read every vertex once on its owner, which
	// counts as heat there; 64 reads from reader outnumber those.
	for round := 0; round < 64; round++ {
		tx := g.DB.Process(reader).StartTransaction(gdi.ReadOnly)
		for _, app := range apps {
			v, err := tx.TranslateVertexID(app)
			if err == nil {
				_, err = tx.AssociateVertex(v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var moved atomic.Int64
	rt.Run(g.DB, func(p *gdi.Process) {
		s, err := p.Rebalance()
		if err != nil {
			t.Error(err)
		}
		moved.Add(int64(s.Migrated))
	})
	if moved.Load() == 0 {
		t.Fatalf("Rebalance moved none of %v to rank %d", apps, reader)
	}
}

// testPromotedCSRMatchesFreshBuild kills the last rank after replicating
// every vertex and promotes its followers on the survivors. The dead rank's
// vertices are isolated: a survivor's edge to one would still name the dead
// home, and kernels on the dead rank's goroutine may touch only its own
// memory.
func testPromotedCSRMatchesFreshBuild(t *testing.T, ranks int) {
	const nVerts = 48
	doomed := gdi.Rank(ranks - 1)
	var live []uint64
	for app := uint64(0); app < nVerts; app++ {
		if app%uint64(ranks) != uint64(doomed) {
			live = append(live, app)
		}
	}
	var edges []gdi.EdgeSpec
	for i, a := range live {
		edges = append(edges, gdi.EdgeSpec{OriginApp: a, TargetApp: live[(i+1)%len(live)], Dir: gdi.DirOut})
	}
	rt, g := customGraph(t, ranks, nVerts, edges)
	rt.Run(g.DB, func(p *gdi.Process) { p.Replicate(2) })
	r := &reuseChecker{t: t, rt: rt, g: g, last: make([]*csr, ranks)}
	r.check("first build", false)
	r.check("no mutation", true)

	rt.Transport().(*rma.Fabric).KillRank(doomed)
	won := 0
	for s := gdi.Rank(0); s < doomed; s++ {
		won += g.DB.Process(s).PromoteDead()
	}
	if won != nVerts/ranks {
		t.Fatalf("promoted %d vertices, want %d", won, nVerts/ranks)
	}
	r.check("PromoteDead after KillRank", false)
	r.check("no mutation after failover", true)
}

// TestDenseKernelReusesCSR pins the cache on the simulator's deterministic
// counters. At two ranks, one PageRank iteration that builds its CSR puts 8
// PUT trains (the index exchange's query and reply rounds, the mirror plan's
// transpose round, then the iteration's round, each one train per rank pair;
// the alias round puts nothing while no vertex has moved); reusing it puts 2.
// The shard is local, so neither issues a remote GET.
func TestDenseKernelReusesCSR(t *testing.T) {
	rt, g := testGraph(t, 2, smallCfg)
	fab := g.DB.Engine().Fabric()
	pageRank := func() fabric.Snapshot {
		before := fab.TotalSnapshot()
		rt.Run(g.DB, func(p *gdi.Process) {
			if _, _, err := PageRank(p, g, 1, 0.85); err != nil {
				t.Error(err)
			}
		})
		after := fab.TotalSnapshot()
		after.PutBatches -= before.PutBatches
		after.RemoteGets -= before.RemoteGets
		return after
	}
	for _, run := range []struct {
		what   string
		trains int64
	}{{"build", 8}, {"reuse", 2}, {"reuse again", 2}} {
		s := pageRank()
		if s.PutBatches != run.trains || s.RemoteGets != 0 {
			t.Errorf("%s: PageRank put %d trains and got %d remote blocks, want %d and 0",
				run.what, s.PutBatches, s.RemoteGets, run.trains)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for r, b := range g.built {
		t.Logf("rank %d retains %d B for %d vertices, %d edge records and %d slots", r, retainedBytes(b.c), b.c.nv(), len(b.c.allTgt), len(b.c.plan.slots))
	}
}

// TestValuePropagationPutsOneValuePerMirror pins the mirror plan on the
// simulator's deterministic counters: one PageRank, WCC or CDLP iteration on
// a reused CSR puts one PUT train per rank pair, and per rank 8 B for each
// pair (local vertex, other rank holding one of its neighbors), however many
// edge records join them. Each train also puts its 4-byte slot header, and
// each drained slot is cleared with a 4-byte local put.
func TestValuePropagationPutsOneValuePerMirror(t *testing.T) {
	for _, ranks := range []int{2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			rt, g := testGraph(t, ranks, smallCfg)
			fab := g.DB.Engine().Fabric()
			run := func(kernel func(p *gdi.Process) error) []fabric.Snapshot {
				delta := make([]fabric.Snapshot, ranks)
				for r := range delta {
					delta[r] = fab.CounterSnapshot(gdi.Rank(r))
				}
				rt.Run(g.DB, func(p *gdi.Process) {
					if err := kernel(p); err != nil {
						t.Error(err)
					}
				})
				for r := range delta {
					after := fab.CounterSnapshot(gdi.Rank(r))
					delta[r] = fabric.Snapshot{PutBatches: after.PutBatches - delta[r].PutBatches, BytesPut: after.BytesPut - delta[r].BytesPut}
				}
				return delta
			}
			run(func(p *gdi.Process) error { _, _, err := PageRank(p, g, 1, 0.85); return err })
			built := make([]*csr, ranks)
			pairs := make([]int64, ranks)
			for r, b := range g.built {
				built[r] = b.c
				for i := int32(0); int(i) < b.c.nv(); i++ {
					seen := make(map[int32]bool)
					for _, tg := range b.c.all(i) {
						if tg.rank != b.c.me && !seen[tg.rank] {
							seen[tg.rank] = true
							pairs[r]++
						}
					}
				}
			}
			for _, k := range []struct {
				name   string
				kernel func(p *gdi.Process) error
			}{
				{"PageRank", func(p *gdi.Process) error { _, _, err := PageRank(p, g, 1, 0.85); return err }},
				{"WCC", func(p *gdi.Process) error { _, _, err := WCC(p, g, 1); return err }},
				{"CDLP", func(p *gdi.Process) error { _, err := CDLP(p, g, 1); return err }},
			} {
				delta := run(k.kernel)
				for r, d := range delta {
					if g.built[r].c != built[r] {
						t.Fatalf("%s: rank %d rebuilt its CSR", k.name, r)
					}
					others := int64(ranks - 1)
					if want := 8*pairs[r] + 8*others; d.PutBatches != others || d.BytesPut != want {
						t.Errorf("%s: rank %d put %d trains and %d B, want %d and %d (8 B × %d mirror pairs + framing)",
							k.name, r, d.PutBatches, d.BytesPut, others, want, pairs[r])
					}
				}
			}
			t.Logf("mirror pairs per rank %v; edge records on rank 0: %d", pairs, len(built[0].allTgt))
		})
	}
}

// TestCSRRebuildsAfterRemoteCommit runs two engines, one per loopback TCP
// transport, as two processes would. A commit that rank 1's engine issues
// into rank-0 holders moves rank 1's store epoch only; the collective vote
// must still rebuild the CSR on both ranks, equal to a fresh build.
func TestCSRRebuildsAfterRemoteCommit(t *testing.T) {
	ts, err := tcp.NewLoopbackCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, tr := range ts {
		wg.Add(1)
		go func(tr *tcp.Transport) {
			defer wg.Done()
			defer tr.Close()
			rt := gdi.InitWithTransport(tr)
			db := rt.CreateDatabase(gdi.DatabaseParams{BlocksPerRank: 1 << 12})
			g := &Graph{DB: db}
			rt.Run(db, func(p *gdi.Process) { remoteCommitScript(t, p, g) })
		}(tr)
	}
	wg.Wait()
}

// remoteCommitScript is one process's side of TestCSRRebuildsAfterRemoteCommit.
func remoteCommitScript(t *testing.T, p *gdi.Process, g *Graph) {
	const nVerts = 16
	me := p.Rank()
	var vs []gdi.VertexSpec
	var es []gdi.EdgeSpec
	if me == 0 {
		for app := uint64(0); app < nVerts; app++ {
			vs = append(vs, gdi.VertexSpec{AppID: app})
			es = append(es, gdi.EdgeSpec{OriginApp: app, TargetApp: (app + 1) % nVerts, Dir: gdi.DirOut})
		}
	}
	if err := p.BulkLoadVertices(vs); err != nil {
		t.Error(err)
		return
	}
	if err := p.BulkLoadEdges(es); err != nil {
		t.Error(err)
		return
	}
	first, _, err := kernelCSR(p, g)
	if err != nil {
		t.Error(err)
		return
	}
	if again, _, _ := kernelCSR(p, g); again != first {
		t.Errorf("rank %d rebuilt its CSR with no mutation", me)
	}

	eng := p.Database().Engine()
	before := eng.StoreEpoch(me)
	p.Barrier()
	if me == 1 {
		// Apps 0 and 2 both live on rank 0.
		tx := p.StartTransaction(gdi.ReadWrite)
		a, err := tx.TranslateVertexID(0)
		var b gdi.VertexID
		if err == nil {
			b, err = tx.TranslateVertexID(2)
		}
		if err == nil {
			_, err = tx.CreateEdge(a, b, gdi.DirOut, 0)
		}
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err != nil {
			t.Error(err)
		}
	}
	p.Barrier()
	if moved := eng.StoreEpoch(me) != before; moved != (me == 1) {
		t.Errorf("rank %d: store epoch moved = %v after rank 1's commit", me, moved)
	}
	used, fresh, err := kernelCSR(p, g)
	switch {
	case err != nil:
		t.Error(err)
	case used == first:
		t.Errorf("rank %d reused its CSR after rank 1's commit", me)
	case !reflect.DeepEqual(used, fresh):
		t.Errorf("rank %d's rebuilt CSR differs from a fresh build", me)
	case me == 0 && len(used.allTgt) != len(first.allTgt)+2:
		t.Errorf("rank 0 holds %d edge records, want %d", len(used.allTgt), len(first.allTgt)+2)
	}
}
