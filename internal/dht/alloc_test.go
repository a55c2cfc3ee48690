package dht

import (
	"testing"

	"github.com/gdi-go/gdi/internal/rma"
)

// TestInsertAllocatesOnBucketRank: an entry's heap slot must live on the rank
// its bucket hashes to, never on the rank that happened to insert it. Entries
// then fate-share with their bucket — a rank death severs only the keys
// hashed to it — instead of with their inserter; vertices are inserted by the
// rank that owns them, so inserter-local allocation made a dead rank take
// down its vertices' directory entries together with their primary copies,
// leaving replica failover nothing to swing.
func TestInsertAllocatesOnBucketRank(t *testing.T) {
	f := rma.New(4)
	m := New(f, Config{BucketsPerRank: 16, EntriesPerRank: 256})
	for key := uint64(0); key < 200; key++ {
		// Always insert from rank 0: under the old policy every slot would
		// land on rank 0 (or its overflow successors).
		if !m.Insert(0, key, key*10) {
			t.Fatalf("insert %d failed", key)
		}
	}
	for key := uint64(0); key < 200; key++ {
		bucket := m.bucketOf(key)
		bRank := bucket.rank()
		found := false
		for p := m.loadNext(0, bucket); !p.isNull(); p = m.loadNext(0, p) {
			k, _, _, ok := m.loadEntry(0, p)
			if !ok {
				t.Fatalf("key %d: entry recycled under a quiescent walk", key)
			}
			if k == key {
				if p.rank() != bRank {
					t.Fatalf("key %d: entry slot on rank %d, bucket on rank %d",
						key, p.rank(), bRank)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("key %d not found on its bucket chain", key)
		}
	}
	// Exhaustion still falls back to other ranks rather than failing: drain
	// far past one rank's heap and every insert must still succeed.
	small := New(rma.New(2), Config{BucketsPerRank: 4, EntriesPerRank: 8})
	for key := uint64(0); key < 12; key++ {
		if !small.Insert(0, key, key) {
			t.Fatalf("overflow insert %d failed with free slots remaining", key)
		}
	}
}
