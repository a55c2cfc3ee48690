package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/rma"
	"github.com/gdi-go/gdi/internal/snapshot"
)

// TestCutSurvivesUnwrittenReleases pins an HTAP cut and then runs the
// writers that hold a word without writing its block: a commit that fails
// its read-set validation after its lock train took the vertex it wrote,
// and a follower seed that bails into a dry pool after locking its primary.
// Neither wrote, so neither may move a version the cut stamped or retire a
// block into the cut's arena: a cut read of every vertex must still return
// its pre-cut bytes. (Bumping the versions of unwritten releases fails it:
// no writer retired those bytes, so the cut reads fail validation.) A
// vertex a commit did rewrite meanwhile reads back through the arena.
func TestCutSurvivesUnwrittenReleases(t *testing.T) {
	const words = 8
	e := NewEngine(rma.New(3), Config{BlockSize: 64, BlocksPerRank: 1 << 10, LockTries: 64,
		DHTEntriesPerRank: 256, HTAPSnapshots: true})
	pt := payloadPType(t, e)
	x, y, z := seedPayloadVertex(t, e, 1, pt, words), seedPayloadVertex(t, e, 2, pt, words), seedPayloadVertex(t, e, 3, pt, words)
	var cut *snapshot.Cut
	e.fab.Run(func(r fabric.Rank) {
		c, err := e.AcquireCut(r)
		if err != nil {
			t.Error(err)
		}
		if r == 0 {
			cut = c
		}
	})
	if cut == nil {
		t.FailNow()
	}
	defer cut.Release()

	// T1 reads y and writes x; a commit from rank 1 rewrites y before T1
	// commits, so T1 fails validating y after its lock train took x.
	t1 := e.StartLocal(0, ReadWrite)
	if _, err := t1.AssociateVertex(y); err != nil {
		t.Fatal(err)
	}
	h, err := t1.AssociateVertex(x)
	if err == nil {
		err = h.SetProperty(pt, payloadPattern(1, words))
	}
	if err != nil {
		t.Fatal(err)
	}
	writeSeq(t, e, 1, 2, 9, pt, words)
	retired := e.RetiredBlocks()
	if retired == 0 {
		t.Error("the rewrite of y retired no block for the cut")
	}
	if err := t1.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("T1's commit after y moved: %v, want a transaction-critical abort", err)
	}

	// A follower seed of z onto a rank with an empty pool locks z's
	// primary, reads it, finds no block for the copy and bails.
	seeder := otherRank(z, 3)
	for {
		if _, err := e.store.AcquireBlock(seeder, seeder); err != nil {
			break
		}
	}
	if n := e.replicateAll(seeder, []uint64{3}, 2); n != 0 {
		t.Fatalf("a seed into an empty pool seeded %d copies", n)
	}
	if n := e.RetiredBlocks() - retired; n != 0 {
		t.Errorf("the failed commit and the bailed seed retired %d blocks, want none", n)
	}

	for _, c := range []struct {
		name string
		dp   fabric.DPtr
	}{{"x, held by the failed commit", x}, {"y, rewritten after the cut", y}, {"z, held by the bailed seed", z}} {
		v, err := e.CutVertex(0, cut, c.dp)
		if err != nil {
			t.Fatalf("%s: cut read: %v", c.name, err)
		}
		if len(v.Props) != 1 || !bytes.Equal(v.Props[0].Value, payloadPattern(0, words)) {
			t.Errorf("%s: the cut read %v, want the pre-cut payload", c.name, v.Props)
		}
	}
	if got := readSeq(t, e, 0, 1, pt); got != 0 {
		t.Errorf("x reads sequence %d live, want 0 (T1 failed)", got)
	}
	if got := readSeq(t, e, 0, 2, pt); got != 9 {
		t.Errorf("y reads sequence %d live, want 9", got)
	}
}
