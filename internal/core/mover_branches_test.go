package core

import (
	"bytes"
	"testing"

	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// The chain mover's rollback and arbitration branches — a seed that bails
// halfway, a promotion that loses, finds its mark stolen, finds the vertex
// deleted, or resumes an earlier win, and a migration whose secondary lock
// train is only partly taken. None of them is reached by the happy-path or
// stress tests, so each is driven here on purpose.

// wordAt addresses dp's lock word through the block store.
func wordAt(e *Engine, dp rma.DPtr) locks.Word {
	win, target, idx := e.Store().LockWord(dp)
	return locks.Word{Win: win, Target: target, Idx: idx}
}

// versionAt reads dp's lock-word version from rank r.
func versionAt(e *Engine, r rma.Rank, dp rma.DPtr) uint64 {
	return locks.Version(wordAt(e, dp).Stamp(r))
}

// freeBlocks snapshots every rank's free-block count.
func freeBlocks(e *Engine) []int {
	out := make([]int, e.fab.Size())
	for r := range out {
		out[r] = e.FreeBlocks(rma.Rank(r))
	}
	return out
}

// followerHead returns rank r's follower head for primary, failing the test
// when r follows nothing there.
func followerHead(t *testing.T, e *Engine, r rma.Rank, primary rma.DPtr) rma.DPtr {
	t.Helper()
	ent, ok := e.repl[r].lookup(primary)
	if !ok {
		t.Fatalf("rank %d holds no follower of %v", r, primary)
	}
	return ent.head
}

// mustReplicaRead reads app from rank r, requires the local follower to serve
// it, and returns the sequence word.
func mustReplicaRead(t *testing.T, e *Engine, r rma.Rank, app uint64, pt lpg.PTypeID) uint64 {
	t.Helper()
	base := e.ReplicaReads()
	seq := readSeq(t, e, r, app, pt)
	if e.ReplicaReads() != base+1 {
		t.Fatalf("rank %d's follower did not serve the read (out of lockstep)", r)
	}
	return seq
}

// checkSeedBail asserts the outcome every bailed seed must leave: no block
// leaked or lost on any rank, the primary and the existing follower on rank
// fr free at the pre-seed version ver (a seed that wrote nothing moves no
// version), and that follower still serving reads in lockstep.
func checkSeedBail(t *testing.T, e *Engine, primary rma.DPtr, free []int, ver uint64, fr rma.Rank, pt lpg.PTypeID) {
	t.Helper()
	if got := freeBlocks(e); !equalInts(got, free) {
		t.Fatalf("free blocks %v after a bailed seed, want %v", got, free)
	}
	for name, dp := range map[string]rma.DPtr{"primary": primary, "follower": followerHead(t, e, fr, primary)} {
		if w := wordAt(e, dp).Stamp(0); locks.Version(w) != ver || locks.WriteHeld(w) {
			t.Fatalf("%s word %#x after a bailed seed, want free at version %d", name, w, ver)
		}
	}
	if seq := mustReplicaRead(t, e, fr, 0, pt); seq != 0 {
		t.Fatalf("follower read %d, want 0", seq)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSeedBailReturnsGrownBlocks: seeding a third copy of a multi-block,
// already-replicated holder onto a rank with one free block acquires that
// block for the new group, runs out, and bails. The bail must return the
// block and leave the primary and the existing follower where they were.
// (Dropping the ReleaseBlock loop of the seed's rollback fails it.)
func TestSeedBailReturnsGrownBlocks(t *testing.T) {
	_, e := newReplicaEngine(t, 3)
	pt := payloadPType(t, e)
	dp := seedPayloadVertex(t, e, 0, pt, 16) // 128 B payload: several 64 B blocks
	if n := e.ReplicateFromRank(1, dp.Rank(), 3); n != 1 {
		t.Fatalf("seeded %d copies on rank 1, want 1", n)
	}
	for n := e.FreeBlocks(2) - 1; n > 0; n-- {
		if _, err := e.store.AcquireBlock(2, 2); err != nil {
			t.Fatal(err)
		}
	}
	free, ver := freeBlocks(e), versionAt(e, 0, dp)

	if n := e.ReplicateFromRank(2, dp.Rank(), 3); n != 0 {
		t.Fatalf("seed into a one-block pool seeded %d copies, want 0", n)
	}
	if got := e.ReplicaCount(2); got != 0 {
		t.Fatalf("ReplicaCount(2) = %d after a bailed seed, want 0", got)
	}
	checkSeedBail(t, e, dp, free, ver, 1, pt)
}

// TestSeedBailReleasesMarkedSubset: a seed must mirror-mark every existing
// follower; when one follower word is write-held the mark train is only
// partly taken, and the seed bails. The marked follower must be released
// (back to the primary's unchanged version), or it stays marked and stops
// serving reads. (Dropping the release of the marked subset fails it.)
func TestSeedBailReleasesMarkedSubset(t *testing.T) {
	_, e := newReplicaEngine(t, 4)
	pt := payloadPType(t, e)
	dp := seedPayloadVertex(t, e, 0, pt, 16)
	for _, fr := range []rma.Rank{1, 2} {
		if n := e.ReplicateFromRank(fr, dp.Rank(), 4); n != 1 {
			t.Fatalf("seeded %d copies on rank %d, want 1", n, fr)
		}
	}
	if err := wordAt(e, followerHead(t, e, 2, dp)).TryAcquireWrite(2, 1); err != nil {
		t.Fatal(err)
	}
	free, ver := freeBlocks(e), versionAt(e, 0, dp)

	if n := e.ReplicateFromRank(3, dp.Rank(), 4); n != 0 {
		t.Fatalf("seed past a write-held follower seeded %d copies, want 0", n)
	}
	checkSeedBail(t, e, dp, free, ver, 1, pt)
}

// failoverFixture is a 3-rank engine whose vertex 0 lives on rank 0 with
// followers on ranks 1 and 2 and a committed payload of sequence 42; rank 0
// is dead on return.
func failoverFixture(t *testing.T) (e *Engine, primary rma.DPtr, pt lpg.PTypeID) {
	t.Helper()
	f, e := newReplicaEngine(t, 3)
	p := payloadPType(t, e)
	primary = seedPayloadVertex(t, e, 0, p, 8)
	for _, fr := range []rma.Rank{1, 2} {
		if n := e.ReplicateFromRank(fr, primary.Rank(), 3); n != 1 {
			t.Fatalf("seeded %d copies on rank %d, want 1", n, fr)
		}
	}
	writeSeq(t, e, 1, 0, 42, p, 8)
	f.KillRank(primary.Rank())
	return e, primary, p
}

// TestPromoteLoserRekeysAndResumedWinnerFinishes: rank 1 has swung the DHT
// entry to its follower but not finished (as if its PromoteDead died after
// the CAS). Rank 2 then loses the CAS with a free follower word: it rekeys
// its directory to rank 1's head and keeps serving reads. A second
// PromoteDead on rank 1 finds the entry already naming its head and finishes
// the promotion. (Dropping the loser's rekey, or returning early on the
// resumed win, fails it.)
func TestPromoteLoserRekeysAndResumedWinnerFinishes(t *testing.T) {
	e, primary, pt := failoverFixture(t)
	head1 := followerHead(t, e, 1, primary)
	if _, swapped, _ := e.index.ReplaceFetch(1, 0, uint64(primary), uint64(head1)); !swapped {
		t.Fatal("could not swing the DHT entry to rank 1's follower")
	}

	if n := e.PromoteDead(2); n != 0 {
		t.Fatalf("losing follower won %d promotions", n)
	}
	if _, ok := e.repl[2].lookup(head1); !ok {
		t.Fatal("loser did not rekey its directory to the winner's head")
	}
	if seq := mustReplicaRead(t, e, 2, 0, pt); seq != 42 {
		t.Fatalf("loser read %d, want 42", seq)
	}

	if n := e.PromoteDead(1); n != 1 {
		t.Fatalf("resumed PromoteDead won %d promotions, want 1", n)
	}
	if got := e.Promotions(); got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
	if seq := readSeq(t, e, 1, 0, pt); seq != 42 {
		t.Fatalf("promoted primary read %d, want 42", seq)
	}
	if seq := mustReplicaRead(t, e, 2, 0, pt); seq != 42 {
		t.Fatalf("rewritten follower read %d, want 42", seq)
	}
}

// TestPromoteStolenLoserSelfDrops: rank 2's follower word is still marked by
// a committer that died mid-fan-out, and another follower already won. The
// winner cannot mark that word, so rank 2 self-drops: its directory entry
// goes, the dead mark is cleared, and its chain returns to the pool.
// (Dropping the loser's ReleaseBlock loop fails it.)
func TestPromoteStolenLoserSelfDrops(t *testing.T) {
	e, primary, pt := failoverFixture(t)
	head1, head2 := followerHead(t, e, 1, primary), followerHead(t, e, 2, primary)
	if err := wordAt(e, head2).TryAcquireWrite(2, 1); err != nil {
		t.Fatal(err)
	}
	if _, swapped, _ := e.index.ReplaceFetch(1, 0, uint64(primary), uint64(head1)); !swapped {
		t.Fatal("could not swing the DHT entry to rank 1's follower")
	}
	buf := make([]byte, e.cfg.BlockSize)
	e.store.ReadBlock(2, head2, buf)
	nb, free, drops := holder.NumBlocks(buf), e.FreeBlocks(2), e.ReplicaDrops()

	if n := e.PromoteDead(2); n != 0 {
		t.Fatalf("stolen-mark loser won %d promotions", n)
	}
	if got := e.ReplicaCount(2); got != 0 {
		t.Fatalf("ReplicaCount(2) = %d after a self-drop, want 0", got)
	}
	if got := e.FreeBlocks(2); got != free+nb {
		t.Fatalf("free blocks on rank 2: %d after the self-drop, want %d (+%d)", got, free+nb, nb)
	}
	if locks.WriteHeld(wordAt(e, head2).Stamp(2)) {
		t.Fatal("self-drop returned a block whose word is still write-marked")
	}
	if e.ReplicaDrops() != drops+1 {
		t.Fatalf("ReplicaDrops moved by %d, want 1", e.ReplicaDrops()-drops)
	}

	if n := e.PromoteDead(1); n != 1 {
		t.Fatalf("winner finished %d promotions, want 1", n)
	}
	if seq := readSeq(t, e, 1, 0, pt); seq != 42 {
		t.Fatalf("promoted primary read %d, want 42", seq)
	}
}

// TestPromoteStolenWinnerClearsMark: the winning follower's own word is
// still marked by a committer that died mid-fan-out. The mark is already
// exclusive possession, so the winner promotes under it and completes the
// "release" with a store; the promoted primary then takes writes.
// (Dropping the store that clears the stolen mark fails it.)
func TestPromoteStolenWinnerClearsMark(t *testing.T) {
	e, primary, pt := failoverFixture(t)
	if err := wordAt(e, followerHead(t, e, 1, primary)).TryAcquireWrite(1, 1); err != nil {
		t.Fatal(err)
	}
	if n := e.PromoteDead(1); n != 1 {
		t.Fatalf("stolen-mark winner won %d promotions, want 1", n)
	}
	if seq := readSeq(t, e, 1, 0, pt); seq != 42 {
		t.Fatalf("promoted primary read %d, want 42", seq)
	}
	writeSeq(t, e, 1, 0, 43, pt, 8)
	if seq := readSeq(t, e, 2, 0, pt); seq != 43 {
		t.Fatalf("read after the post-failover write = %d, want 43", seq)
	}
}

// TestPromoteDeletedVertexDropsEntryOnly: a vertex deleted before promotion
// runs has no DHT entry to swing. The follower drops only its directory
// entry; the blocks belong to the deleting commit's drop path. (Dropping the
// directory drop fails it.)
func TestPromoteDeletedVertexDropsEntryOnly(t *testing.T) {
	e, _, _ := failoverFixture(t)
	if !e.index.Delete(1, 0) {
		t.Fatal("could not delete the DHT entry")
	}
	free := e.FreeBlocks(2)

	if n := e.PromoteDead(2); n != 0 {
		t.Fatalf("promotion of a deleted vertex won %d", n)
	}
	if got := e.ReplicaCount(2); got != 0 {
		t.Fatalf("ReplicaCount(2) = %d, want 0", got)
	}
	if got := e.FreeBlocks(2); got != free {
		t.Fatalf("free blocks on rank 2: %d, want %d (untouched)", got, free)
	}
	if got := e.Promotions(); got != 0 {
		t.Fatalf("Promotions = %d, want 0", got)
	}
}

// TestMigrateSkipRollsBack: a migration locks the destination word and every
// former home's stub word in a second best-effort train, then grows the
// destination chain. When a secondary word is contended, or the destination
// pool runs dry mid-chain, the move is skipped: the destination blocks return
// to the pool, the vertex stays readable where it is, a later write commits
// (no primary lock leaked), and once the obstacle is gone the same move
// succeeds (no secondary lock leaked). (Dropping the release of the partly
// held train, of the fresh destination block, or of the grown blocks fails
// it.)
func TestMigrateSkipRollsBack(t *testing.T) {
	// holdWord write-holds w and returns its release.
	holdWord := func(t *testing.T, w locks.Word) func() {
		if err := w.TryAcquireWrite(0, 1); err != nil {
			t.Fatal(err)
		}
		return func() { w.ReleaseWrite(0) }
	}
	for _, tc := range []struct {
		name string
		// obstruct sets the obstacle up and returns what removes it.
		obstruct func(t *testing.T, e *Engine, old rma.DPtr) func()
	}{
		{"home-stub", func(t *testing.T, e *Engine, old rma.DPtr) func() {
			mustMigrate(t, e, 1, 0) // old is now a forwarding stub on rank 1
			return holdWord(t, wordAt(e, old))
		}},
		{"destination", func(t *testing.T, e *Engine, _ rma.DPtr) func() {
			// The free list is LIFO: the block released here is the one the
			// migration acquires as its destination.
			dp, err := e.store.AcquireBlock(2, 2)
			if err != nil {
				t.Fatal(err)
			}
			e.store.ReleaseBlock(2, dp)
			return holdWord(t, wordAt(e, dp))
		}},
		{"pool", func(t *testing.T, e *Engine, _ rma.DPtr) func() {
			// Two free blocks: the destination primary and one continuation
			// of a chain that needs more.
			var hogged []rma.DPtr
			for n := e.FreeBlocks(2) - 2; n > 0; n-- {
				dp, err := e.store.AcquireBlock(2, 2)
				if err != nil {
					t.Fatal(err)
				}
				hogged = append(hogged, dp)
			}
			return func() {
				for _, dp := range hogged {
					e.store.ReleaseBlock(2, dp)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newMigrationEngine(t, 3)
			pt := payloadPType(t, e)
			old := seedPayloadVertex(t, e, 1, pt, 16) // several 64 B blocks
			clear := tc.obstruct(t, e, old)
			mv := moveOf(t, e, 1, 2)
			pre := readPayload(t, e, 0, mv.Old, pt)
			free := freeBlocks(e)

			n, err := e.MigrateVertices(2, []MigrationMove{mv})
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Fatalf("migrated %d vertices past the obstacle, want 0", n)
			}
			if got := freeBlocks(e); !equalInts(got, free) {
				t.Fatalf("free blocks %v after the skipped move, want %v", got, free)
			}
			if cur := moveOf(t, e, 1, 2).Old; cur != mv.Old {
				t.Fatalf("skipped move changed the placement: %v → %v", mv.Old, cur)
			}
			if got := readPayload(t, e, 1, mv.Old, pt); !bytes.Equal(got, pre) {
				t.Fatal("payload changed across a skipped move")
			}
			writeSeq(t, e, 0, 1, 7, pt, 16)

			clear()
			mustMigrate(t, e, 1, 2)
		})
	}
}
