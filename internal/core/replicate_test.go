package core

import (
	"errors"
	"testing"

	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// newReplicaEngine builds an engine over a killable simulator fabric and
// returns both.
func newReplicaEngine(t *testing.T, ranks int) (*rma.Fabric, *Engine) {
	t.Helper()
	f := rma.New(ranks)
	e := NewEngine(f, Config{
		BlockSize:     64,
		BlocksPerRank: 1 << 12,
		LockTries:     256,
	})
	return f, e
}

// otherRank picks a rank different from dp's owner.
func otherRank(dp rma.DPtr, ranks int) rma.Rank {
	return rma.Rank((int(dp.Rank()) + 1) % ranks)
}

// readSeq performs one optimistic read of app from rank r and returns the
// decoded sequence word, failing the test on a torn payload or a validation
// abort.
func readSeq(t *testing.T, e *Engine, r rma.Rank, app uint64, pt lpg.PTypeID) uint64 {
	t.Helper()
	tx := e.StartLocal(r, ReadOnly)
	dp, err := tx.TranslateVertexID(app)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := h.Property(pt)
	if !ok {
		t.Fatal("payload missing")
	}
	seq, torn := decodePattern(p)
	if torn {
		t.Fatalf("torn payload on rank %d", r)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return seq
}

// writeSeq commits one same-size payload rewrite of app from rank r.
func writeSeq(t *testing.T, e *Engine, r rma.Rank, app, seq uint64, pt lpg.PTypeID, words int) {
	t.Helper()
	tx := e.StartLocal(r, ReadWrite)
	dp, err := tx.TranslateVertexID(app)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetProperty(pt, payloadPattern(seq, words)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicateSeedsFollowerAndServesReads: seeding installs one follower
// copy, and an optimistic read from the follower rank is served locally —
// the replica-read counter moves — while still validating at commit. Warm,
// that read → commit issues no remote GET: only the validation load reaches
// the primary.
func TestReplicateSeedsFollowerAndServesReads(t *testing.T) {
	_, e := newReplicaEngine(t, 2)
	pt := payloadPType(t, e)
	dp := seedPayloadVertex(t, e, 1, pt, 8)
	fr := otherRank(dp, 2)

	if n := e.ReplicateFromRank(fr, dp.Rank(), 2); n != 1 {
		t.Fatalf("ReplicateFromRank seeded %d copies, want 1", n)
	}
	if got := e.ReplicaCount(fr); got != 1 {
		t.Fatalf("ReplicaCount(%d) = %d, want 1", fr, got)
	}
	if got := e.Reseeds(); got != 1 {
		t.Fatalf("Reseeds = %d, want 1", got)
	}

	base := e.ReplicaReads()
	if seq := readSeq(t, e, fr, 1, pt); seq != 0 {
		t.Fatalf("replica read seq = %d, want 0", seq)
	}
	if got := e.ReplicaReads(); got != base+1 {
		t.Fatalf("ReplicaReads = %d after a follower-rank read, want %d", got, base+1)
	}
	// Warm, the read costs the primary one word: commit's validation load.
	// The blocks come from the follower copy, with no GET at all.
	before := e.fab.TotalSnapshot()
	readSeq(t, e, fr, 1, pt)
	after := e.fab.TotalSnapshot()
	if gets, trains := after.RemoteGets-before.RemoteGets, after.GetBatches-before.GetBatches; gets != 0 || trains != 0 {
		t.Errorf("a warm follower-rank read issued %d remote GETs in %d trains, want 0", gets, trains)
	}
	if atoms, puts := after.RemoteAtoms-before.RemoteAtoms, after.RemotePuts-before.RemotePuts; atoms != 1 || puts != 0 {
		t.Errorf("a warm follower-rank read issued %d remote atomics and %d PUTs, want 1 (the validation load) and 0", atoms, puts)
	}
	// Re-seeding the same vertex from the same rank is a no-op.
	if n := e.ReplicateFromRank(fr, dp.Rank(), 2); n != 0 {
		t.Fatalf("duplicate ReplicateFromRank seeded %d copies, want 0", n)
	}
}

// TestReplicatedCommitFansOut: a same-shape rewrite reaches the follower
// inside the commit, so the next replica-served read returns the new value
// and still passes commit-time validation against the primary's word.
func TestReplicatedCommitFansOut(t *testing.T) {
	_, e := newReplicaEngine(t, 2)
	pt := payloadPType(t, e)
	const words = 8
	dp := seedPayloadVertex(t, e, 1, pt, words)
	fr := otherRank(dp, 2)
	if n := e.ReplicateFromRank(fr, dp.Rank(), 2); n != 1 {
		t.Fatalf("seeded %d copies, want 1", n)
	}

	for seq := uint64(1); seq <= 3; seq++ {
		writeSeq(t, e, dp.Rank(), 1, seq, pt, words)
		base := e.ReplicaReads()
		if got := readSeq(t, e, fr, 1, pt); got != seq {
			t.Fatalf("replica read after commit %d returned %d", seq, got)
		}
		if e.ReplicaReads() != base+1 {
			t.Fatal("read after fan-out was not served by the follower copy")
		}
	}
	if got := e.ReplicaCount(fr); got != 1 {
		t.Fatalf("follower dropped across same-shape commits: ReplicaCount = %d", got)
	}
	if got := e.ReplicaDrops(); got != 0 {
		t.Fatalf("ReplicaDrops = %d across same-shape commits, want 0", got)
	}
}

// TestReshapeDropsFollowers: a rewrite that changes the holder's block count
// retires the follower groups instead of resizing them under commit latency;
// reads fall back to the primary and stay correct.
func TestReshapeDropsFollowers(t *testing.T) {
	_, e := newReplicaEngine(t, 2)
	pt := payloadPType(t, e)
	dp := seedPayloadVertex(t, e, 1, pt, 8)
	fr := otherRank(dp, 2)
	if n := e.ReplicateFromRank(fr, dp.Rank(), 2); n != 1 {
		t.Fatalf("seeded %d copies, want 1", n)
	}

	writeSeq(t, e, dp.Rank(), 1, 9, pt, 64) // 8→64 words: more blocks
	if got := e.ReplicaCount(fr); got != 0 {
		t.Fatalf("ReplicaCount = %d after reshape, want 0", got)
	}
	if got := e.ReplicaDrops(); got == 0 {
		t.Fatal("reshape retired no follower groups")
	}
	if got := readSeq(t, e, fr, 1, pt); got != 9 {
		t.Fatalf("post-reshape read = %d, want 9", got)
	}
	// The vertex is replicable again at its new shape.
	if n := e.ReplicateFromRank(fr, dp.Rank(), 2); n != 1 {
		t.Fatalf("re-seed after reshape seeded %d copies, want 1", n)
	}
	if got := readSeq(t, e, fr, 1, pt); got != 9 {
		t.Fatalf("replica read after re-seed = %d, want 9", got)
	}
}

// TestAbortedWriteKeepsLockstep: an abort after the commit lock train
// releases a held write lock without changing content, so the primary's
// version must stay where the follower's is, or every later replica read
// would fail validation. The commit rewrites the replicated vertex in place
// and grows a second one on a rank whose pool is empty, so prepare fails
// after the train has write-locked both.
func TestAbortedWriteKeepsLockstep(t *testing.T) {
	_, e := newReplicaEngine(t, 2)
	pt := payloadPType(t, e)
	const words = 8
	dp := seedPayloadVertex(t, e, 1, pt, words)
	fr := otherRank(dp, 2)
	other := seedPayloadVertex(t, e, 2, pt, words)
	if other.Rank() != fr {
		t.Fatalf("second vertex on rank %d, want the follower rank %d", other.Rank(), fr)
	}
	if n := e.ReplicateFromRank(fr, dp.Rank(), 2); n != 1 {
		t.Fatalf("seeded %d copies, want 1", n)
	}
	for {
		if _, err := e.store.AcquireBlock(fr, fr); err != nil {
			break
		}
	}

	tx := e.StartLocal(dp.Rank(), ReadWrite)
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetProperty(pt, payloadPattern(5, words)); err != nil {
		t.Fatal(err)
	}
	grow, err := tx.AssociateVertex(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := grow.SetProperty(pt, payloadPattern(5, 8*words)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("commit into an empty pool: %v, want ErrNoMemory", err)
	}

	base := e.ReplicaReads()
	if got := readSeq(t, e, fr, 1, pt); got != 0 {
		t.Fatalf("read after abort = %d, want 0", got)
	}
	if e.ReplicaReads() != base+1 {
		t.Fatal("follower fell out of lockstep across an aborted write")
	}
}

// TestDeleteRetiresFollowers: deleting a replicated vertex poisons and frees
// the follower copies; the follower rank's directory empties and reads
// report not-found.
func TestDeleteRetiresFollowers(t *testing.T) {
	_, e := newReplicaEngine(t, 2)
	pt := payloadPType(t, e)
	dp := seedPayloadVertex(t, e, 1, pt, 8)
	fr := otherRank(dp, 2)
	if n := e.ReplicateFromRank(fr, dp.Rank(), 2); n != 1 {
		t.Fatalf("seeded %d copies, want 1", n)
	}
	free := e.FreeBlocks(fr)

	tx := e.StartLocal(dp.Rank(), ReadWrite)
	if err := tx.DeleteVertex(dp); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if got := e.ReplicaCount(fr); got != 0 {
		t.Fatalf("ReplicaCount = %d after delete, want 0", got)
	}
	if got := e.FreeBlocks(fr); got <= free {
		t.Fatalf("follower blocks not returned: free %d → %d", free, got)
	}
	probe := e.StartLocal(fr, ReadOnly)
	if _, err := probe.TranslateVertexID(1); err == nil {
		t.Fatal("deleted replicated vertex still resolves")
	}
	probe.Abort()
}

// TestPromoteDeadFailsOver: kill the primary's rank, let every surviving
// follower race the DHT CAS, and verify exactly one wins, the committed
// value survives at the new primary, and the loser's copy is rekeyed to keep
// serving replica reads for the winner.
func TestPromoteDeadFailsOver(t *testing.T) {
	const (
		ranks = 3
		words = 8
		app   = uint64(1)
	)
	f, e := newReplicaEngine(t, ranks)
	pt := payloadPType(t, e)
	dp := seedPayloadVertex(t, e, app, pt, words)
	src := dp.Rank()
	var followers []rma.Rank
	for r := 0; r < ranks; r++ {
		if rma.Rank(r) != src {
			followers = append(followers, rma.Rank(r))
		}
	}
	for _, fr := range followers {
		if n := e.ReplicateFromRank(fr, src, 3); n != 1 {
			t.Fatalf("rank %d seeded %d copies, want 1", fr, n)
		}
	}
	writeSeq(t, e, followers[0], app, 42, pt, words) // fans to both followers

	f.KillRank(src)
	promos := 0
	for _, fr := range followers {
		promos += e.PromoteDead(fr)
	}
	if promos != 1 {
		t.Fatalf("%d promotions for one vertex, want exactly 1", promos)
	}
	if got := e.Promotions(); got != 1 {
		t.Fatalf("Promotions counter = %d, want 1", got)
	}

	// The DHT now names a surviving rank, and the committed value survived.
	probe := e.StartLocal(followers[0], ReadOnly)
	ndp, err := probe.TranslateVertexID(app)
	if err != nil {
		t.Fatal(err)
	}
	probe.Abort()
	if ndp.Rank() == src {
		t.Fatalf("promoted primary still on dead rank %d", src)
	}
	for _, fr := range followers {
		if got := readSeq(t, e, fr, app, pt); got != 42 {
			t.Fatalf("rank %d reads %d after failover, want 42", fr, got)
		}
	}

	// The losing follower was rekeyed to the new primary and keeps serving
	// local reads; a fresh commit still fans out to it.
	winner, loser := ndp.Rank(), rma.Rank(-1)
	for _, fr := range followers {
		if fr != winner {
			loser = fr
		}
	}
	if got := e.ReplicaCount(loser); got != 1 {
		t.Fatalf("loser rank %d directory holds %d entries, want 1", loser, got)
	}
	writeSeq(t, e, winner, app, 43, pt, words)
	base := e.ReplicaReads()
	if got := readSeq(t, e, loser, app, pt); got != 43 {
		t.Fatalf("loser reads %d after post-failover commit, want 43", got)
	}
	if e.ReplicaReads() != base+1 {
		t.Fatal("loser's rekeyed copy did not serve the read")
	}
	// Idempotent: nothing left to promote.
	for _, fr := range followers {
		if n := e.PromoteDead(fr); n != 0 {
			t.Fatalf("second PromoteDead on rank %d promoted %d", fr, n)
		}
	}
}

// TestReplicatedVertexPinnedDuringMigration: MigrateVertices refuses to move
// a replicated vertex, and the skip (which releases the primary's lock
// without writing it) leaves the followers in lockstep.
func TestReplicatedVertexPinnedDuringMigration(t *testing.T) {
	_, e := newReplicaEngine(t, 2)
	pt := payloadPType(t, e)
	dp := seedPayloadVertex(t, e, 1, pt, 8)
	fr := otherRank(dp, 2)
	if n := e.ReplicateFromRank(fr, dp.Rank(), 2); n != 1 {
		t.Fatalf("seeded %d copies, want 1", n)
	}

	moved, err := e.MigrateVertices(fr, []MigrationMove{{App: 1, Old: dp, Dest: fr}})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("migration moved %d replicated vertices, want 0", moved)
	}
	probe := e.StartLocal(fr, ReadOnly)
	got, err := probe.TranslateVertexID(1)
	probe.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if got != dp {
		t.Fatalf("replicated vertex moved from %v to %v", dp, got)
	}
	base := e.ReplicaReads()
	if seq := readSeq(t, e, fr, 1, pt); seq != 0 {
		t.Fatalf("read after pinned migration = %d, want 0", seq)
	}
	if e.ReplicaReads() != base+1 {
		t.Fatal("follower fell out of lockstep across a skipped migration")
	}
}
