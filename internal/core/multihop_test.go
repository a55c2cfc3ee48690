package core

import (
	"bytes"
	"testing"

	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// The multi-hop regression tier: frontiers produced by one hop are fed back
// into AssociateVertices for the next, which is exactly where forwarding
// stubs, the per-tx alias map, and replica-served optimistic reads meet.

// seedTwoHopGraph commits A -> V (A on rank 0, V on rank 1 for a 2-rank
// engine) with a multi-block payload on V, and returns both DPtrs plus the
// payload ptype.
func seedTwoHopGraph(t *testing.T, e *Engine, words int) (dpA, dpV rma.DPtr, pt lpg.PTypeID) {
	t.Helper()
	pt = payloadPType(t, e)
	knows, err := e.DefineLabel("KNOWS")
	if err != nil {
		t.Fatal(err)
	}
	dpV = seedPayloadVertex(t, e, 1, pt, words) // app 1 -> rank 1
	tx := e.StartLocal(0, ReadWrite)
	dpA, err = tx.CreateVertex(2) // app 2 -> rank 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateEdge(dpA, dpV, holder.DirOut, knows); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return dpA, dpV, pt
}

// TestMultiHopRevisitOfMigratedVertexUsesAliasMap migrates a hop-1 result
// before hop 2 runs, then revisits the stale DPtr in a later hop of the SAME
// transaction. The first encounter must chase the forwarding stub exactly
// once (ForwardedReads +1, duplicates in the batch dedup to one chase); every
// later revisit must resolve through the per-tx alias map with no
// communication at all — no new GET trains, no new lock trains, and no second
// ForwardedReads count.
func TestMultiHopRevisitOfMigratedVertexUsesAliasMap(t *testing.T) {
	e := newMigrationEngine(t, 2)
	const words = 8
	dpA, dpV, pt := seedTwoHopGraph(t, e, words)

	// An extra remote vertex, used later to force a real flush round that the
	// aliased revisit must NOT piggyback a re-fetch onto.
	txSeed := e.StartLocal(0, ReadWrite)
	dpC, err := txSeed.CreateVertex(3) // app 3 -> rank 1
	if err != nil {
		t.Fatal(err)
	}
	if err := txSeed.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := e.StartLocal(0, ReadOnly)
	defer tx.Abort()

	// Hop 1: expand A; the edge record still names V's pre-migration DPtr.
	hA, err := tx.AssociateVertex(dpA)
	if err != nil {
		t.Fatal(err)
	}
	frontier, err := hA.Neighbors(MaskAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) != 1 || frontier[0] != dpV {
		t.Fatalf("hop-1 frontier = %v, want [%v]", frontier, dpV)
	}

	// V migrates between hops. The reading tx holds no lock, so the move
	// proceeds and V's old primary becomes a forwarding stub.
	newDp := mustMigrate(t, e, 1, 0)
	if newDp == dpV {
		t.Fatal("migration did not change V's DPtr")
	}

	// Hop 2: the frontier revisits the stale DPtr, twice in one batch. One
	// stub chase total, and both futures land on the migrated primary.
	fwd0 := e.ForwardedReads()
	hs, err := tx.AssociateVertices([]rma.DPtr{dpV, dpV})
	if err != nil {
		t.Fatal(err)
	}
	if hs[0].ID() != newDp || hs[1].ID() != newDp {
		t.Fatalf("hop-2 handles resolved to %v/%v, want %v", hs[0].ID(), hs[1].ID(), newDp)
	}
	if p, ok := hs[0].Property(pt); !ok || !bytes.Equal(p, payloadPattern(0, words)) {
		t.Fatalf("hop-2 payload wrong: ok=%v", ok)
	}
	if got := e.ForwardedReads(); got != fwd0+1 {
		t.Fatalf("ForwardedReads = %d after one aliased frontier, want %d (exactly one chase)", got, fwd0+1)
	}

	// Hop 3: a pure revisit must be satisfied from the alias map + installed
	// state with zero communication.
	before := e.Fabric().TotalSnapshot()
	h3, err := tx.AssociateVertex(dpV)
	if err != nil {
		t.Fatal(err)
	}
	after := e.Fabric().TotalSnapshot()
	if h3.ID() != newDp {
		t.Fatalf("hop-3 revisit resolved to %v, want %v", h3.ID(), newDp)
	}
	if got := e.ForwardedReads(); got != fwd0+1 {
		t.Fatalf("ForwardedReads = %d after revisit, want %d (alias map must absorb it)", got, fwd0+1)
	}
	if d := after.RemoteGets - before.RemoteGets; d != 0 {
		t.Fatalf("revisit issued %d remote gets, want 0", d)
	}
	if d := after.RemoteAtoms - before.RemoteAtoms; d != 0 {
		t.Fatalf("revisit issued %d remote atomics, want 0", d)
	}

	// Hop 4: the stale DPtr mixed into a batch with a genuinely new remote
	// vertex. The flush for C must not re-fetch or re-chase V: exactly one
	// remote block get (C's single-block holder on rank 1) and no new
	// forwards.
	before = e.Fabric().TotalSnapshot()
	hs4, err := tx.AssociateVertices([]rma.DPtr{dpV, dpC})
	if err != nil {
		t.Fatal(err)
	}
	after = e.Fabric().TotalSnapshot()
	if hs4[0].ID() != newDp {
		t.Fatalf("hop-4 aliased handle resolved to %v, want %v", hs4[0].ID(), newDp)
	}
	if hs4[1].AppID() != 3 {
		t.Fatalf("hop-4 fresh handle AppID = %d, want 3", hs4[1].AppID())
	}
	if got := e.ForwardedReads(); got != fwd0+1 {
		t.Fatalf("ForwardedReads = %d after mixed batch, want %d", got, fwd0+1)
	}
	if d := after.RemoteGets - before.RemoteGets; d != 1 {
		t.Fatalf("mixed batch issued %d remote gets, want 1 (C's block only)", d)
	}
}

// TestLaggingFollowerMultiHopReadValidatesPrimary drives the satellite-2
// contract: a hop-2 handle served from a local follower chain must record the
// PRIMARY DPtr (and the primary's observed version) in the optimistic read
// set. The test lags the follower by bumping the primary's version word
// directly — no commit fan-out, so the follower's mirror word and content
// stay at the old version — and then commits the reader. Validation runs
// against the primary word, so the commit MUST abort; a reader that
// validated against the untouched follower word would wrongly survive.
func TestLaggingFollowerMultiHopReadValidatesPrimary(t *testing.T) {
	_, e := newReplicaEngine(t, 2)
	const words = 8
	dpA, dpV, pt := seedTwoHopGraph(t, e, words)
	fr := otherRank(dpV, 2) // rank 0: A's owner, V's follower rank

	if n := e.ReplicateFromRank(fr, dpV.Rank(), 2); n != 1 {
		t.Fatalf("ReplicateFromRank seeded %d copies, want 1", n)
	}

	tx := e.StartLocal(fr, ReadOnly)
	if !tx.optimistic() {
		t.Fatal("reader is not on the optimistic tier")
	}

	// Hop 1: local expansion of A.
	hA, err := tx.AssociateVertex(dpA)
	if err != nil {
		t.Fatal(err)
	}
	frontier, err := hA.Neighbors(MaskAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) != 1 || frontier[0] != dpV {
		t.Fatalf("hop-1 frontier = %v, want [%v]", frontier, dpV)
	}

	// Hop 2: the batch path must serve V from the local follower chain.
	base := e.ReplicaReads()
	hs, err := tx.AssociateVertices(frontier)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.ReplicaReads(); got != base+1 {
		t.Fatalf("ReplicaReads = %d, want %d (hop 2 must be follower-served)", got, base+1)
	}
	p, ok := hs[0].Property(pt)
	if !ok {
		t.Fatal("hop-2 payload missing")
	}
	if seq, torn := decodePattern(p); torn || seq != 0 {
		t.Fatalf("hop-2 payload seq=%d torn=%v, want 0/false", seq, torn)
	}

	// The read set must be keyed by primaries only: V's primary DPtr, never
	// the follower chain's local head.
	found := false
	for _, r := range tx.optReads {
		if r.dp != dpA && r.dp != dpV {
			t.Fatalf("optimistic read set contains non-primary DPtr %v", r.dp)
		}
		found = found || r.dp == dpV
	}
	if !found {
		t.Fatalf("optimistic read set %v does not contain the primary %v", tx.optReads, dpV)
	}

	// Lag the follower: bump the primary's version word without any commit
	// fan-out. The follower's mirror word and content are untouched.
	wl := e.lockWordOf(dpV)
	vers, held := locks.AcquireWriteTrainEach(fr, []locks.TrainLock{{Word: wl}}, 256)
	if !held[0] {
		t.Fatal("could not write-lock V's primary word")
	}
	locks.ReleaseWriteTrain(fr, []locks.Word{wl}, vers)

	aborts := e.OptimisticAborts()
	if err := tx.Commit(); err == nil {
		t.Fatal("commit survived a lagging follower: hop-2 replica read validated against the follower word, not the primary")
	}
	if got := e.OptimisticAborts(); got != aborts+1 {
		t.Fatalf("OptimisticAborts = %d, want %d", got, aborts+1)
	}
}
