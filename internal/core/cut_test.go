package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
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
		if want := lpg.AppendPropertyEntry(nil, pt, payloadPattern(0, words)); !bytes.Equal(v.Entries, want) {
			t.Errorf("%s: the cut read entries %v, want the pre-cut payload's %v", c.name, v.Entries, want)
		}
	}
	if got := readSeq(t, e, 0, 1, pt); got != 0 {
		t.Errorf("x reads sequence %d live, want 0 (T1 failed)", got)
	}
	if got := readSeq(t, e, 0, 2, pt); got != 9 {
		t.Errorf("y reads sequence %d live, want 9", got)
	}
}

// TestCutRetiresNoFollowerBlock: a cut lists primaries and reads their
// chains, so a commit's fan-out to a follower copy retires nothing into a
// pinned cut's arena. A same-shape rewrite of a 4-block vertex with one
// follower copy (k = 2) under a pinned cut retires the primary's 4 blocks,
// not the 8 blocks it writes, and a cut read still returns the pre-cut
// bytes.
func TestCutRetiresNoFollowerBlock(t *testing.T) {
	e := NewEngine(rma.New(3), Config{BlockSize: 64, BlocksPerRank: 1 << 10, LockTries: 64,
		DHTEntriesPerRank: 256, HTAPSnapshots: true})
	pt := payloadPType(t, e)
	const app = 5
	words := 1
	for ; ; words++ {
		v := &holder.Vertex{AppID: app, Entries: lpg.AppendPropertyEntry(nil, pt, payloadPattern(0, words)),
			Replicas: [][]fabric.DPtr{make([]fabric.DPtr, 4)}}
		if holder.VertexBlocks(v, 64) == 4 {
			break
		}
	}
	dp := seedPayloadVertex(t, e, app, pt, words)
	if n := e.replicateAll(otherRank(dp, 3), []uint64{app}, 2); n != 1 {
		t.Fatalf("seeded %d follower copies, want 1", n)
	}
	if stream, _ := e.readChain(dp.Rank(), dp, nil); holder.NumBlocks(stream) != 4 || holder.NumReplicas(stream) != 1 {
		t.Fatalf("the replicated holder has %d blocks and %d follower copies, want 4 and 1", holder.NumBlocks(stream), holder.NumReplicas(stream))
	}
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
	retired := e.RetiredBlocks()
	writeSeq(t, e, 0, app, 1, pt, words)
	if n := e.RetiredBlocks() - retired; n != 4 {
		t.Errorf("a same-shape rewrite of a 4-block vertex and its follower copy retired %d blocks, want 4", n)
	}
	if got := readSeq(t, e, otherRank(dp, 3), app, pt); got != 1 {
		t.Errorf("the follower copy reads sequence %d, want 1", got)
	}
	v, err := e.CutVertex(0, cut, dp)
	if err != nil {
		t.Fatal(err)
	}
	if want := lpg.AppendPropertyEntry(nil, pt, payloadPattern(0, words)); !bytes.Equal(v.Entries, want) {
		t.Errorf("the cut read entries %v, want the pre-cut payload's %v", v.Entries, want)
	}
}
