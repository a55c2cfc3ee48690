package core

import (
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
)

// TestStoreEpochMovesAfterEveryShardChange pins the two halves of the store
// epoch where they are bumped. Each block-data write call moves the epoch of
// every rank in the process once, whichever rank it targets. Each change of
// a rank's vertex set moves that rank's epoch alone. The vertex-set half is
// what catches a commit's publish step: a creating commit's blocks land (a
// store bump) before the vertex enters its owner's shard, so a scan that
// sampled the epoch and listed the shard between the two steps has nothing
// else to tell it that its listing is stale.
func TestStoreEpochMovesAfterEveryShardChange(t *testing.T) {
	e := newEngine(t, 2)
	s := e.Store()
	var blocks [2]fabric.DPtr
	for r := range blocks {
		dp, err := s.AcquireBlock(0, fabric.Rank(r))
		if err != nil {
			t.Fatal(err)
		}
		blocks[r] = dp
	}
	epochs := func() [2]uint64 { return [2]uint64{e.StoreEpoch(0), e.StoreEpoch(1)} }
	expect := func(what string, before [2]uint64, d0, d1 uint64) {
		t.Helper()
		if got := epochs(); got[0] != before[0]+d0 || got[1] != before[1]+d1 {
			t.Fatalf("%s: epochs %v -> %v, want +%d and +%d", what, before, got, d0, d1)
		}
	}

	before := epochs()
	s.WriteBlock(0, blocks[1], []byte{1})
	expect("a write into rank 1's block issued by rank 0", before, 1, 1)

	before = epochs()
	s.WriteBlocksBatch(1, blocks[:], [][]byte{{2}, {3}})
	expect("one batched write call to both ranks", before, 1, 1)

	// A creating commit: the write-back lands, a scan samples the epoch and
	// lists the shard, then the commit publishes the vertex.
	s.WriteBlock(0, blocks[0], []byte{4})
	before = epochs()
	if listed := e.LocalVertices(0); len(listed) != 0 {
		t.Fatalf("rank 0 lists %d vertices before the publish", len(listed))
	}
	e.local[0].addVertex(blocks[0], 7, nil)
	expect("publishing a vertex into rank 0's shard", before, 1, 0)

	before = epochs()
	e.local[0].removeVertex(blocks[0], nil)
	expect("retracting it", before, 1, 0)
}
