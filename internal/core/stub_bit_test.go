package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/rma"
)

// checkStubBits walks every pool block of every live rank and fails unless
// each free lock word carries the stub bit exactly when its block holds a
// forwarding stub. It returns how many stubs it found.
func checkStubBits(t *testing.T, e *Engine) int {
	t.Helper()
	var live []rma.Rank
	for r := 0; r < e.fab.Size(); r++ {
		if !e.isDead(rma.Rank(r)) {
			live = append(live, rma.Rank(r))
		}
	}
	bs := e.cfg.BlockSize
	buf := make([]byte, bs)
	stubs := 0
	for _, r := range live {
		for off := 1; off < e.store.BlocksPerRank(); off++ {
			dp := rma.MakeDPtr(r, uint64(off))
			w := wordAt(e, dp).Stamp(live[0])
			if locks.WriteHeld(w) || locks.Readers(w) != 0 {
				continue
			}
			e.store.ReadBlock(live[0], dp, buf)
			// A continuation block holds arbitrary stream bytes, so a stub is
			// a block exactly as EncodeMoved lays one out.
			stub := holder.IsMoved(buf) && bytes.Equal(buf, holder.EncodeMoved(holder.MovedAppID(buf), holder.MovedTarget(buf), bs))
			if locks.Stub(w) != stub {
				t.Fatalf("block %v: stub bit %v, block holds a stub: %v (word %#x)", dp, locks.Stub(w), stub, w)
			}
			if stub {
				stubs++
			}
		}
	}
	return stubs
}

// TestStubBitMatchesBlock: a free lock word has the stub bit exactly when its
// block holds a forwarding stub — after a migration, a migration back onto the
// former home (the ABA case), a skipped move, a deletion whose stub train
// aborts, the deletion of a migrated vertex and a vertex created in the home
// it freed, and a failover that promotes a follower of a migrated vertex.
// (Dropping the set on vacated homes, the clear on retirement, or the clear on
// the ABA destination fails it.)
func TestStubBitMatchesBlock(t *testing.T) {
	f, e := newReplicaEngine(t, 3)
	pt := payloadPType(t, e)
	home := seedPayloadVertex(t, e, 1, pt, 16) // vertex 1 lives on rank 1
	wantStubs := func(step string, n int) {
		t.Helper()
		if got := checkStubBits(t, e); got != n {
			t.Fatalf("%s: %d stubs, want %d", step, got, n)
		}
	}
	wantStubs("seeded", 0)

	away := mustMigrate(t, e, 1, 0)
	wantStubs("migration", 1)
	if back := mustMigrate(t, e, 1, 1); back != home {
		t.Fatalf("migration back landed on %v, not the former home %v", back, home)
	}
	wantStubs("migration back onto the former home", 1)
	if !locks.Stub(wordAt(e, away).Stamp(0)) {
		t.Fatalf("the vacated block %v lost its stub bit", away)
	}

	// A move whose destination home is write-held is skipped after its old
	// primary was locked: every word keeps its bit.
	held, ok := locks.AcquireWriteTrainEach(2, []locks.TrainLock{{Word: wordAt(e, away)}}, 4)
	if !ok[0] {
		t.Fatal("could not write-lock the stub at the former home")
	}
	skips := e.MigrationSkips()
	if n, err := e.MigrateVertices(0, []MigrationMove{moveOf(t, e, 1, 0)}); err != nil || n != 0 {
		t.Fatalf("move onto a write-held home: moved %d, %v; want a skip", n, err)
	}
	if e.MigrationSkips() != skips+1 {
		t.Fatal("the move was not skipped")
	}
	locks.ReleaseWriteTrain(2, []locks.Word{wordAt(e, away)}, held)
	wantStubs("skipped move", 1)

	// A deletion whose stub train cannot take the stub's word aborts and
	// leaves the stub and its bit alone.
	reader := wordAt(e, away)
	if err := reader.TryAcquireRead(2, 4); err != nil {
		t.Fatal(err)
	}
	del := e.StartLocal(2, ReadWrite)
	if err := del.DeleteVertex(home); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("deletion past a read-held stub: %v, want an aborted stub train", err)
	}
	reader.ReleaseRead(2)
	wantStubs("aborted stub train", 1)

	// Deleting the vertex retires its stub; a vertex created on that rank
	// next reuses the freed home and is no stub.
	del = e.StartLocal(2, ReadWrite)
	if err := del.DeleteVertex(home); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	wantStubs("deletion of a migrated vertex", 0)
	create := e.StartLocal(2, ReadWrite)
	reused, err := create.CreateVertex(3) // owned by rank 0
	if err != nil {
		t.Fatal(err)
	}
	if err := create.Commit(); err != nil {
		t.Fatal(err)
	}
	if reused != away {
		t.Fatalf("vertex 3 went to %v, not the freed home %v", reused, away)
	}
	wantStubs("create in the freed home", 0)
	if got := appAt(t, e, 1, reused); got != 3 {
		t.Fatalf("the reused home reads as vertex %d, want 3", got)
	}

	// Failover: a vertex that migrated from rank 0 to rank 1 and was then
	// replicated onto rank 2 loses rank 1; rank 2 promotes its follower. The
	// stub on rank 0 still stands, with its bit.
	seedPayloadVertex(t, e, 6, pt, 4) // rank 0
	primary := mustMigrate(t, e, 6, 1)
	if n := e.ReplicateFromRank(2, primary.Rank(), 2); n != 1 {
		t.Fatalf("seeded %d followers on rank 2, want 1", n)
	}
	wantStubs("replicated migrated vertex", 1)
	f.KillRank(primary.Rank())
	if n := e.PromoteDead(2); n != 1 {
		t.Fatalf("PromoteDead promoted %d vertices, want 1", n)
	}
	wantStubs("promotion", 1)
}

// appAt associates dp from rank r in a read-only transaction and returns
// its application ID.
func appAt(t *testing.T, e *Engine, r rma.Rank, dp rma.DPtr) uint64 {
	t.Helper()
	tx := e.StartLocal(r, ReadOnly)
	defer tx.Abort()
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return h.AppID()
}

// checkForwardingWords fails unless the forwarding word of every live rank
// is non-zero exactly on the ranks stubbed lists, and unless every live rank
// whose words carry a stub bit is among them: a rank gains a non-zero
// forwarding word before it shows its first stub, and keeps it.
func checkForwardingWords(t *testing.T, e *Engine, step string, stubbed ...rma.Rank) {
	t.Helper()
	for r := 0; r < e.fab.Size(); r++ {
		rank := rma.Rank(r)
		if e.isDead(rank) {
			continue
		}
		want := slices.Contains(stubbed, rank)
		if w := e.forwardingWord(rank).Stamp(rank); (w != 0) != want {
			t.Fatalf("%s: rank %d's forwarding word is %#x, want it non-zero: %v", step, r, w, want)
		}
		for off := 1; off < e.store.BlocksPerRank() && !want; off++ {
			if w := wordAt(e, rma.MakeDPtr(rank, uint64(off))).Stamp(rank); locks.Stub(w) {
				t.Fatalf("%s: block %d of rank %d carries the stub bit under a forwarding word at 0", step, off, r)
			}
		}
	}
}

// TestMigrationBumpsForwardingWord is the forwarding word's contract, which
// the LIMIT hop's early stop rests on (Tx.FilterFrontier): a rank's word
// reads 0 until a migration publishes a stub on it, and non-zero from then
// on. A bulk load, commits, a migration's destination, replica seeding and a
// failover promotion leave a rank's word at 0; a migration bumps the word of
// the rank it vacates, and a migration back onto the former home bumps the
// rank it vacates in turn and leaves the home's word non-zero.
func TestMigrationBumpsForwardingWord(t *testing.T) {
	const ranks, vertices = 4, 16
	f, e := newReplicaEngine(t, ranks)
	e.fab.Run(func(r rma.Rank) {
		var vs []VertexSpec
		var es []EdgeSpec
		for i := int(r); i < vertices; i += ranks {
			vs = append(vs, VertexSpec{AppID: uint64(i)})
			es = append(es, EdgeSpec{OriginApp: uint64(i), TargetApp: uint64((i + 1) % vertices), Dir: holder.DirOut})
		}
		if err := e.BulkLoadVertices(r, vs); err != nil {
			t.Error(err)
			return
		}
		e.comm.Barrier(r)
		if err := e.BulkLoadEdges(r, es); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	checkForwardingWords(t, e, "bulk load")
	pt := payloadPType(t, e)
	seedPayloadVertex(t, e, vertices+1, pt, 4) // rank 1
	checkForwardingWords(t, e, "commit")

	away := mustMigrate(t, e, 1, 0) // from rank 1
	checkForwardingWords(t, e, "migration off rank 1", 1)
	mustMigrate(t, e, 1, 1)
	checkForwardingWords(t, e, "migration back onto the former home", 0, 1)
	if checkStubBits(t, e) != 1 || !locks.Stub(wordAt(e, away).Stamp(0)) {
		t.Fatal("the stub of the migration back is not the block it vacated")
	}

	// Vertex 2 lives on rank 2; rank 3 follows it, loses it and promotes
	// its follower.
	if n := e.ReplicateFromRank(3, 2, 2); n == 0 {
		t.Fatal("seeded no follower on rank 3")
	}
	checkForwardingWords(t, e, "replica seeding", 0, 1)
	f.KillRank(2)
	if n := e.PromoteDead(3); n == 0 {
		t.Fatal("PromoteDead promoted nothing")
	}
	checkForwardingWords(t, e, "promotion", 0, 1)
}
