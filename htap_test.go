package gdi_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/kron"
)

// The HTAP coherence tier: snapshot analytics (internal/analytics HTAP
// sessions over internal/snapshot cuts) running concurrently with live OLTP
// writers and optimistic readers. The load-bearing invariants:
//
//   - cut stability: PageRank over a pinned cut is bit-identical to the
//     quiesced result from before the writes started, no matter how many
//     commits land mid-iteration;
//   - refresh equivalence: a refreshed session is bit-identical to one
//     freshly opened at the same point (the golden test);
//   - arena hygiene: dropping a session mid-run returns every retired block
//     version, leaving the arena at zero bytes;
//   - conservation: every committed create survives to the quiesced end
//     state (TestHTAPCoherenceStress, run under -race in CI).

// htapGraph loads a deterministic Kronecker graph into a database with the
// snapshot subsystem enabled.
func htapGraph(t *testing.T, ranks int, cfg kron.Config) (*gdi.Runtime, *gdi.Database, *analytics.Graph) {
	t.Helper()
	cfg = cfg.WithDefaults()
	rt := gdi.Init(ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:     512,
		BlocksPerRank: 1 << 16,
		HTAPSnapshots: true,
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var loadErr error
	var mu sync.Mutex
	rt.Run(db, func(p *gdi.Process) {
		n := p.Size()
		if err := p.BulkLoadVertices(kron.VerticesFor(cfg, sch, int(p.Rank()), n)); err == nil {
			err = p.BulkLoadEdges(kron.EdgesFor(cfg, sch, int(p.Rank()), n))
		} else {
			mu.Lock()
			loadErr = err
			mu.Unlock()
		}
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return rt, db, &analytics.Graph{DB: db, Schema: sch}
}

// quiescedPageRank runs dense PageRank on the idle database and merges the
// per-rank shard maps.
func quiescedPageRank(t *testing.T, rt *gdi.Runtime, db *gdi.Database, g *analytics.Graph, iters int) map[uint64]float64 {
	t.Helper()
	out := make(map[uint64]float64)
	var mu sync.Mutex
	rt.Run(db, func(p *gdi.Process) {
		pr, _, err := analytics.PageRank(p, g, iters, 0.85)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		for k, v := range pr {
			out[k] = v
		}
		mu.Unlock()
	})
	return out
}

// samePageRank requires exact (bit-identical) equality of two merged
// PageRank maps.
func samePageRank(t *testing.T, what string, got, want map[uint64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vertices, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		v, ok := got[k]
		if !ok {
			t.Fatalf("%s: vertex %d missing", what, k)
		}
		if v != w {
			t.Fatalf("%s: vertex %d = %v, want %v (not bit-identical)", what, k, v, w)
		}
	}
}

// htapWriter commits ops local read-write transactions from the given rank:
// even rounds create a fresh vertex plus an edge to an existing one, odd
// rounds add an edge between two existing vertices. Transient transaction
// aborts are retried by moving on, exactly like an OLTP driver; created
// counts only committed creates.
func htapWriter(db *gdi.Database, rank gdi.Rank, seed int64, ops int, base uint64, existing uint64, report func(error)) (commits, created int64) {
	rng := rand.New(rand.NewSource(seed))
	p := db.Process(rank)
	for i := 0; i < ops; i++ {
		tx := p.StartTransaction(gdi.ReadWrite)
		oldApp := uint64(rng.Intn(int(existing)))
		old, err := tx.TranslateVertexID(oldApp)
		if err != nil {
			tx.Abort()
			if errors.Is(err, gdi.ErrTransactionCritical) || errors.Is(err, gdi.ErrNotFound) {
				continue
			}
			report(err)
			return
		}
		madeVertex := false
		if i%2 == 0 {
			nv, err := tx.CreateVertex(base + uint64(i))
			if err != nil {
				tx.Abort()
				if errors.Is(err, gdi.ErrTransactionCritical) {
					continue
				}
				report(err)
				return
			}
			_, err = tx.CreateEdge(nv, old, gdi.DirOut, 0)
			if err != nil {
				tx.Abort()
				if errors.Is(err, gdi.ErrTransactionCritical) {
					continue
				}
				report(err)
				return
			}
			madeVertex = true
		} else {
			otherApp := uint64(rng.Intn(int(existing)))
			other, err := tx.TranslateVertexID(otherApp)
			if err != nil {
				tx.Abort()
				if errors.Is(err, gdi.ErrTransactionCritical) || errors.Is(err, gdi.ErrNotFound) {
					continue
				}
				report(err)
				return
			}
			if _, err := tx.CreateEdge(old, other, gdi.DirUndirected, 0); err != nil {
				tx.Abort()
				if errors.Is(err, gdi.ErrTransactionCritical) {
					continue
				}
				report(err)
				return
			}
		}
		if err := tx.Commit(); err != nil {
			if errors.Is(err, gdi.ErrTransactionCritical) {
				continue
			}
			report(err)
			return
		}
		commits++
		if madeVertex {
			created++
		}
	}
	return commits, created
}

func TestHTAPOpenRequiresKnob(t *testing.T) {
	rt := gdi.Init(2)
	defer rt.Finalize()
	db := rt.CreateDatabase(gdi.DatabaseParams{BlockSize: 256, BlocksPerRank: 1 << 12})
	g := &analytics.Graph{DB: db}
	rt.Run(db, func(p *gdi.Process) {
		if _, err := analytics.OpenHTAP(p, g); err == nil {
			t.Error("OpenHTAP succeeded without HTAPSnapshots")
		}
	})
}

// TestHTAPCutStableUnderWrites pins a cut, lets writers commit hundreds of
// transactions while PageRank iterates over it, and requires the result to be
// bit-identical to the quiesced pre-write answer. After the writers drain, a
// Refresh must land the session on the post-write state, again bit-identical
// to a quiesced rerun.
func TestHTAPCutStableUnderWrites(t *testing.T) {
	const (
		ranks   = 4
		scale   = 8
		writers = 3
		ops     = 120
		iters   = 20
	)
	cfg := kron.Config{Scale: scale, EdgeFactor: 8, Seed: 7}
	rt, db, g := htapGraph(t, ranks, cfg)
	defer rt.Finalize()
	nVerts := uint64(1) << scale

	before := quiescedPageRank(t, rt, db, g, iters)

	var (
		mu       sync.Mutex
		firstErr error
		duringPR = make(map[uint64]float64)
		afterPR  = make(map[uint64]float64)
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := make(chan struct{})
	writersDone := make(chan struct{})
	var wwg sync.WaitGroup
	totalCommits, totalCreated := int64(0), int64(0)
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			<-start
			c, n := htapWriter(db, gdi.Rank(w%ranks), int64(w)*977+13, ops,
				uint64(1)<<33+uint64(w)<<20, nVerts, report)
			mu.Lock()
			totalCommits += c
			totalCreated += n
			mu.Unlock()
		}(w)
	}
	go func() {
		wwg.Wait()
		close(writersDone)
	}()

	snap := db.Engine().Snapshots()
	rt.Run(db, func(p *gdi.Process) {
		s, err := analytics.OpenHTAP(p, g)
		if err != nil {
			report(err)
			return
		}
		p.Barrier()
		if p.Rank() == 0 {
			close(start)
		}
		pr, _, err := s.PageRank(iters, 0.85)
		if err != nil {
			report(err)
			return
		}
		mu.Lock()
		for k, v := range pr {
			duringPR[k] = v
		}
		mu.Unlock()
		<-writersDone
		p.Barrier()
		if p.Rank() == 0 && snap.ArenaBytes() == 0 {
			report(errors.New("no block version was retired while the cut was pinned"))
		}
		if err := s.Refresh(); err != nil {
			report(err)
			return
		}
		pr2, _, err := s.PageRank(iters, 0.85)
		if err != nil {
			report(err)
			return
		}
		mu.Lock()
		for k, v := range pr2 {
			afterPR[k] = v
		}
		mu.Unlock()
		s.Close()
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if totalCommits == 0 {
		t.Fatal("no writer transaction ever committed")
	}
	samePageRank(t, "PageRank over the pinned cut", duringPR, before)

	after := quiescedPageRank(t, rt, db, g, iters)
	if len(after) != len(before)+int(totalCreated) {
		t.Fatalf("post-write graph has %d vertices, want %d + %d created", len(after), len(before), totalCreated)
	}
	samePageRank(t, "PageRank after Refresh", afterPR, after)
	if got := snap.ArenaBytes(); got != 0 {
		t.Fatalf("arena holds %d bytes after the session closed", got)
	}
	if snap.RetiredBlocks() == 0 {
		t.Fatal("writers never retired a block version")
	}
	t.Logf("commits: %d (created %d); retired versions: %d; cuts: %d",
		totalCommits, totalCreated, snap.RetiredBlocks(), snap.CutsAcquired())
}

// TestHTAPRefreshMatchesFreshOpen is the golden equivalence test of
// Refresh: after a commit batch (a create, adjacency rewrites and a delete),
// a live migration and a bulk edge load, a refreshed session must produce
// exactly the CSR a freshly opened session builds — held to bit-identical
// PageRank output, which must also equal the live kernel's on the quiesced
// database.
func TestHTAPRefreshMatchesFreshOpen(t *testing.T) {
	const (
		ranks   = 4
		newApp  = uint64(1) << 40
		deleted = uint64(9)
		moved   = uint64(5)
	)
	cfg := kron.Config{Scale: 7, EdgeFactor: 8, Seed: 11}
	rt, db, g := htapGraph(t, ranks, cfg)
	defer rt.Finalize()

	var (
		mu        sync.Mutex
		firstErr  error
		refreshPR = make(map[uint64]float64)
		freshPR   = make(map[uint64]float64)
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	eng := db.Engine()
	rt.Run(db, func(p *gdi.Process) {
		s, err := analytics.OpenHTAP(p, g)
		if err != nil {
			report(err)
			return
		}
		p.Barrier()
		if p.Rank() == 0 {
			// One writer, quiesced around the barriers: a create, adjacency
			// rewrites and a delete.
			tx := p.StartTransaction(gdi.ReadWrite)
			a, err := tx.CreateVertex(newApp)
			if err == nil {
				var old gdi.VertexID
				if old, err = tx.TranslateVertexID(3); err == nil {
					_, err = tx.CreateEdge(a, old, gdi.DirOut, 0)
				}
				var o2 gdi.VertexID
				if err == nil {
					if o2, err = tx.TranslateVertexID(moved); err == nil {
						_, err = tx.CreateEdge(old, o2, gdi.DirUndirected, 0)
					}
				}
				if err == nil { // a heavy edge into the vertex that migrates
					_, err = tx.CreateRichEdge(old, o2, gdi.DirUndirected, nil, nil)
				}
				var victim gdi.VertexID
				if err == nil {
					if victim, err = tx.TranslateVertexID(deleted); err == nil {
						err = tx.DeleteVertex(victim)
					}
				}
			}
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Abort()
			}
			if err != nil {
				report(err)
			}
		}
		p.Barrier()
		// A live migration moves a primary to the next rank; edge records
		// elsewhere still name its former home.
		look := p.StartTransaction(gdi.ReadOnly)
		old, err := look.TranslateVertexID(moved)
		look.Abort()
		if err != nil {
			report(err)
			return
		}
		if dest := (old.Rank() + 1) % gdi.Rank(p.Size()); p.Rank() == dest {
			n, err := eng.MigrateVertices(dest, []core.MigrationMove{{App: moved, Old: old, Dest: dest}})
			if err == nil && n != 1 {
				err = fmt.Errorf("migration of vertex %d moved %d vertices", moved, n)
			}
			if err != nil {
				report(err)
			}
		}
		p.Barrier()
		// A bulk edge merge rewrites adjacency, the migrated vertex's and the
		// created one's included.
		var specs []gdi.EdgeSpec
		if p.Rank() == 0 {
			specs = []gdi.EdgeSpec{
				{OriginApp: moved, TargetApp: newApp, Dir: gdi.DirOut},
				{OriginApp: 7, TargetApp: moved, Dir: gdi.DirUndirected},
				{OriginApp: newApp, TargetApp: 11, Dir: gdi.DirOut},
			}
		}
		if err := p.BulkLoadEdges(specs); err != nil {
			report(err)
			return
		}
		if err := s.Refresh(); err != nil {
			report(err)
			return
		}
		pr, _, err := s.PageRank(15, 0.85)
		if err != nil {
			report(err)
			return
		}
		s2, err := analytics.OpenHTAP(p, g)
		if err != nil {
			report(err)
			return
		}
		pr2, _, err := s2.PageRank(15, 0.85)
		if err != nil {
			report(err)
			return
		}
		mu.Lock()
		for k, v := range pr {
			refreshPR[k] = v
		}
		for k, v := range pr2 {
			freshPR[k] = v
		}
		mu.Unlock()
		s2.Close()
		s.Close()
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if _, ok := refreshPR[newApp]; !ok {
		t.Fatal("the refreshed session misses the vertex created before Refresh")
	}
	if _, ok := refreshPR[deleted]; ok {
		t.Fatal("the refreshed session still has the vertex deleted before Refresh")
	}
	samePageRank(t, "refreshed session vs freshly opened one", refreshPR, freshPR)
	samePageRank(t, "refreshed session vs live kernel", refreshPR, quiescedPageRank(t, rt, db, g, 15))
	if got := db.Engine().Snapshots().ArenaBytes(); got != 0 {
		t.Fatalf("arena holds %d bytes after both sessions closed", got)
	}
}

// TestHTAPKernelsMatchLiveKernels holds the session's WCC, CDLP and LCC to
// the live kernels on a quiesced database, bit for bit: over the opening cut,
// and again after Refresh over a batch of commits. The session and
// the live kernels share the kernel bodies; only the CSR's source differs.
func TestHTAPKernelsMatchLiveKernels(t *testing.T) {
	const ranks = 4
	cfg := kron.Config{Scale: 7, EdgeFactor: 8, Seed: 13}
	rt, db, g := htapGraph(t, ranks, cfg)
	defer rt.Finalize()

	type results struct {
		wcc, cdlp map[uint64]uint64
		wccIts    int
		lcc       float64
	}
	newResults := func() *results {
		return &results{wcc: make(map[uint64]uint64), cdlp: make(map[uint64]uint64)}
	}
	var (
		mu       sync.Mutex
		firstErr error
		session  = [2]*results{newResults(), newResults()} // opening cut, after Refresh
		live     = [2]*results{newResults(), newResults()}
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	merge := func(dst *results, wcc, cdlp map[uint64]uint64, its int, lcc float64) {
		mu.Lock()
		defer mu.Unlock()
		for k, v := range wcc {
			dst.wcc[k] = v
		}
		for k, v := range cdlp {
			dst.cdlp[k] = v
		}
		dst.wccIts, dst.lcc = its, lcc
	}
	rt.Run(db, func(p *gdi.Process) {
		s, err := analytics.OpenHTAP(p, g)
		if err != nil {
			report(err)
			return
		}
		defer s.Close()
		for round := range session {
			if round == 1 {
				p.Barrier()
				if p.Rank() == 0 {
					if c, _ := htapWriter(db, 0, 29, 24, uint64(1)<<36, 1<<7, report); c == 0 {
						report(errors.New("no writer commit landed"))
					}
				}
				p.Barrier()
				if err := s.Refresh(); err != nil {
					report(err)
					return
				}
			}
			wcc, its := s.WCC(100)
			merge(session[round], wcc, s.CDLP(5), its, s.LCC())

			wcc, its, err := analytics.WCC(p, g, 100)
			var cdlp map[uint64]uint64
			if err == nil {
				cdlp, err = analytics.CDLP(p, g, 5)
			}
			var lcc float64
			if err == nil {
				lcc, err = analytics.LCC(p, g)
			}
			if err != nil {
				report(err)
				return
			}
			merge(live[round], wcc, cdlp, its, lcc)
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	for round, name := range []string{"opening cut", "after Refresh"} {
		got, want := session[round], live[round]
		if len(got.wcc) != len(want.wcc) || len(got.cdlp) != len(want.cdlp) {
			t.Fatalf("%s: session covers %d/%d vertices, live kernels %d/%d",
				name, len(got.wcc), len(got.cdlp), len(want.wcc), len(want.cdlp))
		}
		for k, w := range want.wcc {
			if got.wcc[k] != w {
				t.Fatalf("%s: WCC[%d] = %d over the cut, %d live", name, k, got.wcc[k], w)
			}
		}
		for k, w := range want.cdlp {
			if got.cdlp[k] != w {
				t.Fatalf("%s: CDLP[%d] = %d over the cut, %d live", name, k, got.cdlp[k], w)
			}
		}
		if got.wccIts != want.wccIts {
			t.Fatalf("%s: WCC converged in %d iterations over the cut, %d live", name, got.wccIts, want.wccIts)
		}
		if math.Float64bits(got.lcc) != math.Float64bits(want.lcc) {
			t.Fatalf("%s: LCC %v over the cut, %v live (not bit-identical)", name, got.lcc, want.lcc)
		}
	}
	if len(session[1].wcc) == len(session[0].wcc) {
		t.Fatal("the write batch created no vertex; Refresh tested nothing")
	}
}

// TestHTAPArenaLeakOnDrop abandons an analytics run mid-iteration via the
// non-collective Drop and requires every retired block version to be
// released: the arena must return to exactly zero bytes (the leak fix this
// PR ships a regression test for).
func TestHTAPArenaLeakOnDrop(t *testing.T) {
	const ranks = 4
	cfg := kron.Config{Scale: 7, EdgeFactor: 8, Seed: 3}
	rt, db, g := htapGraph(t, ranks, cfg)
	defer rt.Finalize()

	var (
		mu       sync.Mutex
		firstErr error
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	snap := db.Engine().Snapshots()
	rt.Run(db, func(p *gdi.Process) {
		s, err := analytics.OpenHTAP(p, g)
		if err != nil {
			report(err)
			return
		}
		p.Barrier()
		// Every rank rewrites a few of its vertices while the cut is pinned,
		// forcing retirement of the overwritten block versions.
		c, _ := htapWriter(db, p.Rank(), int64(p.Rank())*31+7, 20,
			uint64(1)<<34+uint64(p.Rank())<<20, 1<<7, report)
		if c == 0 {
			report(fmt.Errorf("rank %d: no writer commit landed", p.Rank()))
		}
		// Check before the barrier: once any rank passes it, it may Drop the
		// shared cut and legitimately empty the arena.
		if snap.ArenaBytes() == 0 {
			report(fmt.Errorf("rank %d: writes under a pinned cut retired nothing", p.Rank()))
		}
		p.Barrier()
		// Abandon the run mid-iteration: no collective Close, just Drop from
		// every rank (idempotent on the shared cut).
		s.Drop()
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if got := snap.ArenaBytes(); got != 0 {
		t.Fatalf("arena leaked %d bytes after Drop", got)
	}
	if snap.RetiredBlocks() == 0 {
		t.Fatal("stress produced no retired versions; the leak check tested nothing")
	}
}

// TestHTAPReplicatedCommitsUnderPinnedCut is the replication/snapshot
// interplay test: fixed-size property rewrites on k=3 replicated vertices
// commit while an HTAP cut is pinned. The commit path then does three things
// at once — retires the primary's overwritten block versions into the cut,
// fans the new content to the follower chains through the same write-back
// train, and bumps the mirror words — and the invariants are:
//
//   - every block version the pinned cut retired is released with it, so
//     the arena drains to exactly zero when the session closes. Only the
//     primaries' blocks are retired: a cut reads primaries alone, so it
//     stamps its ranks' follower chains as unreachable when it is pinned,
//     and the fan-out's writes to them retire nothing;
//   - follower chains are invisible to analytics (they live in the replica
//     directory, not the local vertex index), so PageRank over the pinned
//     cut stays bit-identical to the pre-write answer and a post-Refresh
//     rank equals a quiesced rerun;
//   - the fan-out keeps every follower in lockstep across the pinned cut:
//     zero drops, and once the writers drain a replica-served optimistic
//     read returns exactly the last committed value.
func TestHTAPReplicatedCommitsUnderPinnedCut(t *testing.T) {
	const (
		ranks        = 4
		scale        = 7
		keysPerRank  = 32
		writeOps     = 96
		readOps      = 64
		payloadBytes = 32
		replicaK     = 3
		iters        = 15
	)
	cfg := kron.Config{Scale: scale, EdgeFactor: 8, Seed: 31}
	rt, db, g := htapGraph(t, ranks, cfg)
	defer rt.Finalize()

	payload, err := db.DefinePType("replpayload", gdi.PTypeSpec{Datatype: gdi.TypeBytes})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu       sync.Mutex
		firstErr error
		duringPR = make(map[uint64]float64)
		afterPR  = make(map[uint64]float64)
		lasts    = make([]map[uint64]byte, ranks)
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// writeVal commits one fixed-size payload write, retried past transient
	// aborts; false means it never committed (and wrote nothing).
	writeVal := func(p *gdi.Process, app uint64, v byte) bool {
		for try := 0; try < 8; try++ {
			tx := p.StartTransaction(gdi.ReadWrite)
			dp, err := tx.TranslateVertexID(app)
			if err != nil {
				tx.Abort()
				if errors.Is(err, gdi.ErrTransactionCritical) {
					continue
				}
				report(err)
				return false
			}
			h, err := tx.AssociateVertex(dp)
			if err != nil {
				tx.Abort()
				continue
			}
			wp := make([]byte, payloadBytes)
			wp[0] = v
			if err := h.SetProperty(payload, wp); err != nil {
				tx.Abort()
				report(err)
				return false
			}
			if err := tx.Commit(); err == nil {
				return true
			}
		}
		return false
	}
	// readVal runs one optimistic read of the payload byte; false means the
	// read did not validate (fine while writers race, an error once drained).
	readVal := func(p *gdi.Process, app uint64) (byte, bool) {
		tx := p.StartTransaction(gdi.ReadOnly)
		dp, err := tx.TranslateVertexID(app)
		if err != nil {
			tx.Abort()
			return 0, false
		}
		h, err := tx.AssociateVertex(dp)
		if err != nil {
			tx.Abort()
			return 0, false
		}
		val, ok := h.Property(payload)
		if !ok || len(val) != payloadBytes {
			tx.Abort()
			return 0, false
		}
		v := val[0]
		if err := tx.Commit(); err != nil {
			return 0, false
		}
		return v, true
	}

	// Seed the payload at its fixed size on every key we will rewrite: shape
	// changes are free before any follower chain exists, and from here on
	// every write keeps the holder shape constant.
	rt.Run(db, func(p *gdi.Process) {
		me, n := int(p.Rank()), p.Size()
		for j := 0; j < keysPerRank; j++ {
			if !writeVal(p, uint64(me+j*n), 0) {
				report(fmt.Errorf("rank %d: seeding key %d never committed", me, j))
			}
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	before := quiescedPageRank(t, rt, db, g, iters)

	var seeded int64
	rt.Run(db, func(p *gdi.Process) {
		n := int64(p.Replicate(replicaK))
		mu.Lock()
		seeded += n
		mu.Unlock()
	})
	if seeded == 0 {
		t.Fatal("Replicate seeded no follower chains")
	}

	snap := db.Engine().Snapshots()
	retiredBefore := snap.RetiredBlocks()

	rt.Run(db, func(p *gdi.Process) {
		me, n := int(p.Rank()), p.Size()
		s, err := analytics.OpenHTAP(p, g)
		if err != nil {
			report(err)
			return
		}
		p.Barrier()
		// Replicated rewrites while the cut is pinned.
		last := make(map[uint64]byte, keysPerRank)
		for i := 0; i < writeOps; i++ {
			app := uint64(me + (i%keysPerRank)*n)
			v := byte(i + 1)
			if writeVal(p, app, v) {
				last[app] = v
			}
		}
		mu.Lock()
		lasts[me] = last
		mu.Unlock()
		// Optimistic reads of the previous rank's keys: its follower chains
		// live here, so these are replica-served, each validated against the
		// primary's version word. Racing its writer may abort them; at least
		// one must land.
		prev := (me + n - 1) % n
		okReads := 0
		for i := 0; i < readOps; i++ {
			if _, ok := readVal(p, uint64(prev+(i%keysPerRank)*n)); ok {
				okReads++
			}
		}
		if okReads == 0 {
			report(fmt.Errorf("rank %d: no optimistic read validated", me))
		}
		// The pinned cut must not have seen any of it.
		pr, _, err := s.PageRank(iters, 0.85)
		if err != nil {
			report(err)
			return
		}
		mu.Lock()
		for k, v := range pr {
			duringPR[k] = v
		}
		mu.Unlock()
		p.Barrier()
		if p.Rank() == 0 && snap.ArenaBytes() == 0 {
			report(errors.New("replicated writes under the pinned cut retired nothing"))
		}
		if err := s.Refresh(); err != nil {
			report(err)
			return
		}
		pr2, _, err := s.PageRank(iters, 0.85)
		if err != nil {
			report(err)
			return
		}
		mu.Lock()
		for k, v := range pr2 {
			afterPR[k] = v
		}
		mu.Unlock()
		s.Close()
		p.Barrier()
		// Writers drained: a replica-served read of the previous rank's keys
		// must return exactly its last committed value — the fan-out kept
		// the followers in lockstep across the pinned cut.
		mu.Lock()
		want := lasts[prev]
		mu.Unlock()
		for app, wantV := range want {
			got, ok := readVal(p, app)
			if !ok {
				report(fmt.Errorf("rank %d: quiesced read of key %d did not validate", me, app))
				continue
			}
			if got != wantV {
				report(fmt.Errorf("rank %d: key %d = %d, want last committed %d", me, app, got, wantV))
			}
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	samePageRank(t, "PageRank over the cut pinned across replicated commits", duringPR, before)
	after := quiescedPageRank(t, rt, db, g, iters)
	samePageRank(t, "PageRank after Refresh", afterPR, after)
	if snap.RetiredBlocks() == retiredBefore {
		t.Fatal("no block version was retired by the replicated writes")
	}
	if got := snap.ArenaBytes(); got != 0 {
		t.Fatalf("arena holds %d bytes after the session closed (follower fan-out must not retire)", got)
	}
	st := db.ReplicaStats()
	if st.Reads == 0 {
		t.Fatal("no read was served by a follower chain")
	}
	if st.Drops != 0 {
		t.Fatalf("fixed-size fan-out dropped %d follower groups under the pinned cut", st.Drops)
	}
	t.Logf("seeded: %d chains; replica reads: %d; retired: %d; reseeds: %d",
		seeded, st.Reads, snap.RetiredBlocks()-retiredBefore, st.Reseeds)
}

// TestHTAPCoherenceStress is the full HTAP tier, run under -race in CI:
// OLTP writers and optimistic readers race against an analytics session that
// keeps refreshing and re-ranking. Afterwards the database must be conserved
// (every committed create present) and a final refreshed PageRank must be
// bit-identical to a quiesced rerun.
func TestHTAPCoherenceStress(t *testing.T) {
	const (
		ranks     = 4
		scale     = 7
		writers   = 2
		readers   = 2
		writerOps = 100
		readerOps = 150
		rounds    = 3
	)
	cfg := kron.Config{Scale: scale, EdgeFactor: 8, Seed: 23}
	rt, db, g := htapGraph(t, ranks, cfg)
	defer rt.Finalize()
	nVerts := uint64(1) << scale
	initial := db.TotalVertices()

	var (
		mu        sync.Mutex
		firstErr  error
		finalPR   = make(map[uint64]float64)
		commits   int64
		created   int64
		validated int64
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := make(chan struct{})
	oltpDone := make(chan struct{})
	var owg sync.WaitGroup
	for w := 0; w < writers; w++ {
		owg.Add(1)
		go func(w int) {
			defer owg.Done()
			<-start
			c, n := htapWriter(db, gdi.Rank(w%ranks), int64(w)*557+3, writerOps,
				uint64(1)<<35+uint64(w)<<20, nVerts, report)
			mu.Lock()
			commits += c
			created += n
			mu.Unlock()
		}(w)
	}
	for r := 0; r < readers; r++ {
		owg.Add(1)
		go func(r int) {
			defer owg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(r)*101 + 17))
			p := db.Process(gdi.Rank((r + 1) % ranks))
			ok := int64(0)
			for i := 0; i < readerOps; i++ {
				tx := p.StartTransaction(gdi.ReadOnly)
				id, err := tx.TranslateVertexID(uint64(rng.Intn(int(nVerts))))
				if err != nil {
					tx.Abort()
					if errors.Is(err, gdi.ErrTransactionCritical) || errors.Is(err, gdi.ErrNotFound) {
						continue
					}
					report(err)
					return
				}
				h, err := tx.AssociateVertex(id)
				if err != nil {
					tx.Abort()
					if errors.Is(err, gdi.ErrTransactionCritical) || errors.Is(err, gdi.ErrNotFound) {
						continue
					}
					report(err)
					return
				}
				if _, err := h.Neighbors(gdi.MaskAll, nil); err != nil {
					tx.Abort()
					if errors.Is(err, gdi.ErrTransactionCritical) || errors.Is(err, gdi.ErrNotFound) {
						continue
					}
					report(err)
					return
				}
				if err := tx.Commit(); err != nil {
					continue // optimistic validation raced a writer; discarded
				}
				ok++
			}
			mu.Lock()
			validated += ok
			mu.Unlock()
		}(r)
	}
	go func() {
		owg.Wait()
		close(oltpDone)
	}()

	rt.Run(db, func(p *gdi.Process) {
		s, err := analytics.OpenHTAP(p, g)
		if err != nil {
			report(err)
			return
		}
		p.Barrier()
		if p.Rank() == 0 {
			close(start)
		}
		for round := 0; round < rounds; round++ {
			if _, _, err := s.PageRank(5, 0.85); err != nil {
				report(err)
				return
			}
			if err := s.Refresh(); err != nil {
				report(err)
				return
			}
		}
		<-oltpDone
		p.Barrier()
		if err := s.Refresh(); err != nil { // quiesced: final cut is the end state
			report(err)
			return
		}
		pr, _, err := s.PageRank(15, 0.85)
		if err != nil {
			report(err)
			return
		}
		mu.Lock()
		for k, v := range pr {
			finalPR[k] = v
		}
		mu.Unlock()
		s.Close()
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if commits == 0 {
		t.Fatal("no writer transaction ever committed")
	}
	if validated == 0 {
		t.Fatal("no optimistic reader ever validated")
	}
	if got := db.TotalVertices(); int64(got) != int64(initial)+created {
		t.Fatalf("conservation: %d vertices, want %d initial + %d created", got, initial, created)
	}
	want := quiescedPageRank(t, rt, db, g, 15)
	samePageRank(t, "final refreshed PageRank vs quiesced rerun", finalPR, want)
	snap := db.Engine().Snapshots()
	if got := snap.ArenaBytes(); got != 0 {
		t.Fatalf("arena holds %d bytes after the stress run", got)
	}
	t.Logf("commits: %d (created %d); reads validated: %d; cuts: %d; retired: %d",
		commits, created, validated, snap.CutsAcquired(), snap.RetiredBlocks())
}
