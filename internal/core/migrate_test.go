package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// newMigrationEngine builds an engine shaped for migration tests: small
// blocks so payload vertices span several of them, generous lock budgets.
func newMigrationEngine(t *testing.T, ranks int) *Engine {
	t.Helper()
	return NewEngine(rma.New(ranks), Config{
		BlockSize:             64,
		BlocksPerRank:         1 << 12,
		LockTries:             256,
		RebalanceHeatTracking: true,
	})
}

// moveOf resolves appID's current placement and plans a move to dest.
func moveOf(t *testing.T, e *Engine, appID uint64, dest rma.Rank) MigrationMove {
	t.Helper()
	val, ok := e.index.Lookup(0, appID)
	if !ok {
		t.Fatalf("vertex %d not in the index", appID)
	}
	return MigrationMove{App: appID, Old: rma.DPtr(val), Dest: dest}
}

func mustMigrate(t *testing.T, e *Engine, appID uint64, dest rma.Rank) rma.DPtr {
	t.Helper()
	n, err := e.MigrateVertices(dest, []MigrationMove{moveOf(t, e, appID, dest)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("migrated %d vertices, want 1", n)
	}
	val, ok := e.index.Lookup(0, appID)
	if !ok {
		t.Fatalf("vertex %d vanished from the index after migration", appID)
	}
	dp := rma.DPtr(val)
	if dp.Rank() != dest {
		t.Fatalf("vertex %d landed on rank %d, want %d", appID, dp.Rank(), dest)
	}
	return dp
}

func readPayload(t *testing.T, e *Engine, r rma.Rank, dp rma.DPtr, pt lpg.PTypeID) []byte {
	t.Helper()
	tx := e.StartLocal(r, ReadOnly)
	defer tx.Abort()
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := h.Property(pt)
	if !ok {
		t.Fatal("payload missing")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMigrateVertexBasic drives one live migration end to end: the DHT entry
// swings to the new rank, the explicit indexes move, the payload is
// bit-identical at the new placement, and a stale DPtr still resolves by
// chasing the forwarding stub.
func TestMigrateVertexBasic(t *testing.T) {
	e := newMigrationEngine(t, 2)
	pt := payloadPType(t, e)
	old := seedPayloadVertex(t, e, 1, pt, 16) // 128 B payload: multi-block at 64 B
	if old.Rank() != 1 {
		t.Fatalf("vertex 1 seeded on rank %d, want 1", old.Rank())
	}
	pre := readPayload(t, e, 0, old, pt)

	newDp := mustMigrate(t, e, 1, 0)
	if newDp == old {
		t.Fatal("migration did not change the primary")
	}
	if e.Migrations() != 1 {
		t.Fatalf("Migrations = %d, want 1", e.Migrations())
	}
	if e.LocalVertexCount(0) != 1 || e.LocalVertexCount(1) != 0 {
		t.Fatalf("local index shards = %d/%d, want 1/0", e.LocalVertexCount(0), e.LocalVertexCount(1))
	}

	// Fresh placement, bit-identical content.
	if got := readPayload(t, e, 1, newDp, pt); !bytes.Equal(got, pre) {
		t.Fatalf("payload changed across migration:\n got %v\nwant %v", got, pre)
	}
	// The stale DPtr chases the stub to the same state.
	fwdBefore := e.ForwardedReads()
	tx := e.StartLocal(1, ReadOnly)
	h, err := tx.AssociateVertex(old)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != newDp {
		t.Fatalf("stale DPtr resolved to %v, want %v", h.ID(), newDp)
	}
	if v, _ := h.Property(pt); !bytes.Equal(v, pre) {
		t.Fatal("stale-DPtr read returned different bytes")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.ForwardedReads() <= fwdBefore {
		t.Fatal("stub chase not counted in ForwardedReads")
	}
}

// TestMigrateBackReusesHomeBlock is the ABA case: migrating home again must
// reuse the original primary block, restoring the vertex's first DPtr.
func TestMigrateBackReusesHomeBlock(t *testing.T) {
	e := newMigrationEngine(t, 2)
	pt := payloadPType(t, e)
	old := seedPayloadVertex(t, e, 1, pt, 16)
	pre := readPayload(t, e, 0, old, pt)

	away := mustMigrate(t, e, 1, 0)
	back := mustMigrate(t, e, 1, 1)
	if back != old {
		t.Fatalf("migrate-back landed at %v, want the original home %v", back, old)
	}
	if got := readPayload(t, e, 0, back, pt); !bytes.Equal(got, pre) {
		t.Fatal("payload changed across the round trip")
	}
	// The rank-0 home now forwards; the vertex remembers it for reuse.
	tx := e.StartLocal(0, ReadOnly)
	h, err := tx.AssociateVertex(away)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != old {
		t.Fatalf("stale rank-0 DPtr resolved to %v, want %v", h.ID(), old)
	}
	tx.Abort()
}

// TestMigrateVertexWithEdges checks that traversals and deletions keep
// working when edge records carry pre-migration identities.
func TestMigrateVertexWithEdges(t *testing.T) {
	e := newMigrationEngine(t, 2)
	pt := payloadPType(t, e)
	a := seedPayloadVertex(t, e, 0, pt, 4)
	b := seedPayloadVertex(t, e, 1, pt, 4)

	setup := e.StartLocal(0, ReadWrite)
	if _, err := setup.CreateEdge(a, b, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	newB := mustMigrate(t, e, 1, 0)

	// Traversal from a reaches b through the stale record + stub chase.
	tx := e.StartLocal(1, ReadOnly)
	ha, err := tx.AssociateVertex(a)
	if err != nil {
		t.Fatal(err)
	}
	nbrs, err := ha.Neighbors(MaskAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 1 {
		t.Fatalf("a has %d neighbors, want 1", len(nbrs))
	}
	hb, err := tx.AssociateVertex(nbrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if hb.ID() != newB || hb.AppID() != 1 {
		t.Fatalf("neighbor resolved to %v (app %d), want %v (app 1)", hb.ID(), hb.AppID(), newB)
	}
	tx.Abort()

	// Deleting the migrated vertex removes the stale sibling record at a.
	del := e.StartLocal(0, ReadWrite)
	if err := del.DeleteVertex(newB); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	check := e.StartLocal(0, ReadOnly)
	ha2, err := check.AssociateVertex(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := ha2.Degree(); d != 0 {
		t.Fatalf("a still has %d edge records after deleting its migrated neighbor", d)
	}
	check.Abort()
	if _, err := check2Lookup(e, 1); err == nil {
		t.Fatal("deleted migrated vertex still resolves")
	}
}

func check2Lookup(e *Engine, appID uint64) (rma.DPtr, error) {
	tx := e.StartLocal(0, ReadOnly)
	defer tx.Abort()
	return tx.TranslateVertexID(appID)
}

// TestMigrateDeletedVertexFreesStubs: deleting a migrated vertex retires its
// forwarding stubs — the pool returns to its pre-create level and the stale
// DPtr reports not-found instead of resurrecting anything, with or without
// HTAP snapshots.
func TestMigrateDeletedVertexFreesStubs(t *testing.T) {
	for _, ce := range commitEngines(2, Config{
		BlockSize: 64, BlocksPerRank: 1 << 12, LockTries: 256, RebalanceHeatTracking: true,
	}) {
		t.Run(ce.name, func(t *testing.T) {
			e := ce.e
			pt := payloadPType(t, e)
			free0, free1 := e.FreeBlocks(0), e.FreeBlocks(1)
			old := seedPayloadVertex(t, e, 1, pt, 16)
			newDp := mustMigrate(t, e, 1, 0)

			del := e.StartLocal(0, ReadWrite)
			if err := del.DeleteVertex(newDp); err != nil {
				t.Fatal(err)
			}
			if err := del.Commit(); err != nil {
				t.Fatal(err)
			}
			if got0, got1 := e.FreeBlocks(0), e.FreeBlocks(1); got0 != free0 || got1 != free1 {
				t.Fatalf("pool leaked: free blocks %d/%d, want %d/%d", got0, got1, free0, free1)
			}
			probe := e.StartLocal(0, ReadOnly)
			if _, err := probe.AssociateVertex(old); !errors.Is(err, ErrNotFound) {
				t.Fatalf("stale DPtr of deleted vertex: err = %v, want ErrNotFound", err)
			}
			probe.Abort()
		})
	}
}

// TestMigrateSkipsContendedVertex: a vertex whose word a committer holds is
// skipped, not migrated and not an error. A reader holds no lock, so it
// does not pin the vertex: the move goes ahead, and the reader's commit
// fails, since the version it read moved.
func TestMigrateSkipsContendedVertex(t *testing.T) {
	e := newMigrationEngine(t, 2)
	pt := payloadPType(t, e)
	dp := seedPayloadVertex(t, e, 1, pt, 4)

	reader := e.StartLocal(0, ReadWrite)
	if _, err := reader.AssociateVertex(dp); err != nil {
		t.Fatal(err)
	}
	moved := mustMigrate(t, e, 1, 0)
	if err := reader.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("commit of a read the move invalidated: %v, want ErrTxCritical", err)
	}

	word := e.lockWordOf(moved)
	if err := word.TryAcquireWrite(1, 64); err != nil {
		t.Fatal(err)
	}
	n, err := e.MigrateVertices(1, []MigrationMove{moveOf(t, e, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("migrated %d vertices under a held write lock, want 0", n)
	}
	if e.MigrationSkips() == 0 {
		t.Fatal("skip not counted")
	}
	word.ReleaseWrite(1)
	// With the lock gone the same move succeeds.
	mustMigrate(t, e, 1, 1)
}

// TestMigrateStalePlanSkips: a plan whose Old pointer no longer matches the
// placement (the vertex moved first) is skipped cleanly.
func TestMigrateStalePlanSkips(t *testing.T) {
	e := newMigrationEngine(t, 3)
	pt := payloadPType(t, e)
	seedPayloadVertex(t, e, 1, pt, 4)
	stale := moveOf(t, e, 1, 2) // captured before the move below
	mustMigrate(t, e, 1, 0)

	n, err := e.MigrateVertices(2, []MigrationMove{stale})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("stale plan migrated a vertex")
	}
	// Placement unchanged by the stale apply.
	val, _ := e.index.Lookup(0, 1)
	if rma.DPtr(val).Rank() != 0 {
		t.Fatalf("vertex ended on rank %d, want 0", rma.DPtr(val).Rank())
	}
}

// TestRebalanceMovesHotVerticesToAccessor: the collective folds heat, plans
// greedily, and migrates each hot vertex onto its dominant accessor. Rank 3's
// read round over its two hot vertices costs remote operations before the
// round and none after it, read by the vertices' new DPtrs.
func TestRebalanceMovesHotVerticesToAccessor(t *testing.T) {
	const ranks = 4
	e := NewEngine(rma.New(ranks), Config{
		BlockSize: 64, BlocksPerRank: 1 << 12, LockTries: 256,
		RebalanceHeatTracking: true,
	})
	pt := payloadPType(t, e)
	// Vertices 0..7 land round-robin (OwnerOf = app % ranks).
	var dps []rma.DPtr
	for app := uint64(0); app < 8; app++ {
		dps = append(dps, seedPayloadVertex(t, e, app, pt, 4))
	}
	// readHot is rank 3's read round over hot, committed; it returns the
	// remote GETs and atomics the round issued.
	readHot := func(hot []rma.DPtr) int64 {
		t.Helper()
		before := e.fab.TotalSnapshot()
		tx := e.StartLocal(3, ReadOnly)
		for _, dp := range hot {
			if _, err := tx.AssociateVertex(dp); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		after := e.fab.TotalSnapshot()
		return after.RemoteGets - before.RemoteGets + after.RemoteAtoms - before.RemoteAtoms
	}
	// Rank 3 hammers vertices 0 and 1 (owned by ranks 0 and 1); everything
	// else sees one cold read from its owner.
	for i := 0; i < 8; i++ {
		if ops := readHot(dps[:2]); ops == 0 {
			t.Fatalf("read round %d of two vertices on ranks 0 and 1 issued no remote operation", i)
		}
	}
	var firstErr error
	stats := make([]RebalanceStats, ranks)
	e.fab.Run(func(r rma.Rank) {
		s, err := e.Rebalance(r)
		stats[r] = s
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if stats[0].Planned == 0 {
		t.Fatal("rebalance planned nothing")
	}
	moved := make([]rma.DPtr, 2)
	for app := uint64(0); app < 2; app++ {
		val, ok := e.index.Lookup(0, app)
		if !ok {
			t.Fatalf("vertex %d vanished", app)
		}
		if got := rma.DPtr(val).Rank(); got != 3 {
			t.Fatalf("hot vertex %d on rank %d after rebalance, want 3", app, got)
		}
		moved[app] = rma.DPtr(val)
	}
	// Heat reset: a second round with no new traffic plans nothing.
	e.fab.Run(func(r rma.Rank) {
		s, err := e.Rebalance(r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if r == 0 && s.Planned != 0 {
			t.Errorf("second round planned %d moves from stale heat", s.Planned)
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if ops := readHot(moved); ops != 0 {
		t.Fatalf("read round of the two migrated vertices issued %d remote operations, want 0", ops)
	}
}

// TestStaleAndFreshDPtrInOneBatch: one association batch naming the same
// migrated vertex under both its stale and current DPtr (stale first, so the
// chase re-queues at a primary whose direct fetch resolves later in the same
// generation) must converge on one shared state, read once into the read
// set, and leave the lock word clean after commit.
func TestStaleAndFreshDPtrInOneBatch(t *testing.T) {
	e := newMigrationEngine(t, 2)
	pt := payloadPType(t, e)
	old := seedPayloadVertex(t, e, 1, pt, 16)
	fresh := mustMigrate(t, e, 1, 0)

	tx := e.StartLocal(1, ReadWrite)
	hs, err := tx.AssociateVertices([]rma.DPtr{old, fresh})
	if err != nil {
		t.Fatal(err)
	}
	if hs[0] == nil || hs[1] == nil {
		t.Fatal("batch dropped a handle")
	}
	if hs[0].ID() != fresh || hs[1].ID() != fresh {
		t.Fatalf("handles resolved to %v/%v, want both %v", hs[0].ID(), hs[1].ID(), fresh)
	}
	if hs[0].st != hs[1].st {
		t.Fatal("stale and fresh DPtr forked the per-transaction state")
	}
	if len(tx.optReads) != 1 || tx.optReads[0].dp != fresh {
		t.Fatalf("read set %v, want the current primary %v once", tx.optReads, fresh)
	}
	win, target, idx := e.Store().LockWord(fresh)
	before := win.Load(1, target, idx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := win.Load(1, target, idx); after != before || locks.Readers(after) != 0 || locks.WriteHeld(after) {
		t.Fatalf("lock word %#x after commit, %#x before: want it free and unchanged", after, before)
	}
	// The vertex is still writable (no leaked lock blocks the lock train).
	w := e.StartLocal(0, ReadWrite)
	wh, err := w.AssociateVertex(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.SetProperty(pt, payloadPattern(1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("vertex permanently locked after the mixed batch: %v", err)
	}
}

// TestMigrationPlanRoundTrip pins the wire format.
func TestMigrationPlanRoundTrip(t *testing.T) {
	plans := [][]MigrationMove{
		nil,
		{{App: 1, Old: rma.MakeDPtr(1, 17), Dest: 0}},
		{{App: 0, Old: rma.MakeDPtr(0, 1), Dest: 3}, {App: ^uint64(0), Old: rma.MakeDPtr(65535, 1<<48-1), Dest: 65535}},
	}
	for _, p := range plans {
		buf := EncodeMigrationPlan(p)
		got, err := DecodeMigrationPlan(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(p) {
			t.Fatalf("decoded %d moves, want %d", len(got), len(p))
		}
		for i := range p {
			if got[i] != p[i] {
				t.Fatalf("move %d: got %+v, want %+v", i, got[i], p[i])
			}
		}
		if again := EncodeMigrationPlan(got); !bytes.Equal(again, buf) {
			t.Fatal("re-encode not canonical")
		}
	}
	for _, bad := range [][]byte{nil, []byte("GDM"), []byte("XXXX\x01\x00\x00\x00\x00"), append(EncodeMigrationPlan(plans[1]), 0)} {
		if _, err := DecodeMigrationPlan(bad); err == nil {
			t.Fatalf("decode accepted %v", bad)
		}
	}
}

// TestRebalanceIgnoresStaleOwnerHeat is the regression test for the
// heat-attribution skew: heat recorded while a vertex lived on rank A must
// not survive its migration away — before owner-tagged heat cells, the stale
// samples dominated the plan and dragged the vertex straight back to the
// rank it had just vacated.
func TestRebalanceIgnoresStaleOwnerHeat(t *testing.T) {
	e := newMigrationEngine(t, 3)
	pt := payloadPType(t, e)
	old := seedPayloadVertex(t, e, 1, pt, 4)
	owner := old.Rank()

	// The owner rank hammers its own vertex: heat lands on the owner's
	// shard, tagged with the current placement.
	for i := 0; i < 8; i++ {
		readPayload(t, e, owner, old, pt)
	}
	if got := e.HeatOf(owner, 1); got != 8 {
		t.Fatalf("owner heat = %d, want 8", got)
	}

	// The vertex moves to a different rank (an operator migration, not a
	// Rebalance round — so no heat reset happens).
	dest := rma.Rank((int(owner) + 1) % 3)
	mustMigrate(t, e, 1, dest)

	gather := func() [][]HeatSample {
		tops := make([][]HeatSample, 3)
		for r := range tops {
			tops[r] = e.topHeat(rma.Rank(r), 100)
		}
		return tops
	}

	// The stale owner-era heat must not produce a move: every sample was
	// recorded against the vacated placement. The old code planned
	// App 1 → owner here, bouncing the vertex back.
	for _, mv := range e.planRebalance(gather()) {
		if mv.App == 1 {
			t.Fatalf("stale heat produced move %+v back toward the vacated rank", mv)
		}
	}

	// Fresh traffic against the new placement still drives planning: an
	// accessor rank distinct from the new owner reads the vertex more than
	// anyone else, and the plan moves the vertex to it.
	acc := rma.Rank((int(dest) + 1) % 3)
	val, ok := e.index.Lookup(0, 1)
	if !ok {
		t.Fatal("vertex 1 missing from the index")
	}
	for i := 0; i < 12; i++ {
		readPayload(t, e, acc, rma.DPtr(val), pt)
	}
	var planned *MigrationMove
	for _, mv := range e.planRebalance(gather()) {
		if mv.App == 1 {
			planned = &mv
			break
		}
	}
	if planned == nil || planned.Dest != acc {
		t.Fatalf("fresh post-move heat planned %+v, want a move of App 1 to rank %d", planned, acc)
	}

	// An access chasing the forwarding stub is attributed to the post-chase
	// owner, so it counts as current-era heat, not stale heat.
	readPayload(t, e, acc, old, pt)
	tops := gather()
	for _, s := range tops[acc] {
		if s.App == 1 && s.Owner != dest {
			t.Fatalf("stub-chased access recorded owner %d, want post-chase owner %d", s.Owner, dest)
		}
	}
}

// TestMigrateAroundDeadRank: a migration never touches a dead rank's blocks.
// A vertex whose primary is on a dead rank is skipped before the lock train,
// so its lock word stays free; a former home on a dead rank is pruned from
// the vertex's homes and gets no stub, and the move completes. In both cases
// a later read-write transaction on the vertex commits.
func TestMigrateAroundDeadRank(t *testing.T) {
	for _, tc := range []struct {
		name string
		// kill sets the vertex up, kills a rank and returns the rank a later
		// transaction runs on.
		kill  func(t *testing.T, f *rma.Fabric, e *Engine) rma.Rank
		moved int
	}{
		{"dead-primary", func(t *testing.T, f *rma.Fabric, e *Engine) rma.Rank {
			f.KillRank(1)
			return 1 // a dead rank still reaches its own memory
		}, 0},
		{"dead-home", func(t *testing.T, f *rma.Fabric, e *Engine) rma.Rank {
			mustMigrate(t, e, 1, 0) // the vertex's home on rank 1 is a stub now
			f.KillRank(1)
			return 0
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := rma.New(3)
			e := NewEngine(f, Config{BlockSize: 64, BlocksPerRank: 1 << 12, LockTries: 256})
			pt := payloadPType(t, e)
			seedPayloadVertex(t, e, 1, pt, 16) // several 64 B blocks on rank 1
			writer := tc.kill(t, f, e)
			skips := e.MigrationSkips()

			var n int
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("migration panicked: %v", r)
					}
				}()
				n, err = e.MigrateVertices(2, []MigrationMove{moveOf(t, e, 1, 2)})
			}()
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.moved {
				t.Fatalf("migrated %d vertices, want %d", n, tc.moved)
			}
			if got := e.MigrationSkips() - skips; got != int64(1-tc.moved) {
				t.Fatalf("MigrationSkips moved by %d, want %d", got, 1-tc.moved)
			}
			writeSeq(t, e, writer, 1, 7, pt, 16)
			if seq := readSeq(t, e, writer, 1, pt); seq != 7 {
				t.Fatalf("read %d after the write, want 7", seq)
			}
		})
	}
}
