package block

import (
	"bytes"
	"testing"

	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/rma"
)

// cacheFixture is a 2-rank store with caching: rank 1 owns the blocks,
// rank 0 reads them remotely through its cache.
func cacheFixture(t *testing.T, cacheBlocks int) (*Store, *rma.Fabric) {
	t.Helper()
	f := rma.New(2)
	s := NewStore(f, Config{BlockSize: 64, BlocksPerRank: 32, CacheBlocks: cacheBlocks})
	return s, f
}

func payloadFor(seed byte) []byte {
	p := make([]byte, 64)
	for i := range p {
		p[i] = seed + byte(i)
	}
	return p
}

// remoteBlock allocates a block on rank 1 and fills it from its owner.
func remoteBlock(t *testing.T, s *Store, seed byte) rma.DPtr {
	t.Helper()
	dp, err := s.AcquireBlock(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.WriteBlock(1, dp, payloadFor(seed))
	return dp
}

func lockOf(s *Store, dp rma.DPtr) locks.Word {
	win, target, idx := s.LockWord(dp)
	return locks.Word{Win: win, Target: target, Idx: idx}
}

// readCached reads one block on rank 0 with the block as its own guard.
func readCached(t *testing.T, s *Store, dp rma.DPtr, locked bool) ([]byte, uint64, bool) {
	t.Helper()
	buf := make([]byte, 64)
	vers, ok := s.ReadBlocksCached(0, []rma.DPtr{dp}, []rma.DPtr{dp}, [][]byte{buf}, locked)
	return buf, vers[0], ok[0]
}

func TestCachedReadHitAndMiss(t *testing.T) {
	s, f := cacheFixture(t, 8)
	dp := remoteBlock(t, s, 1)

	buf, ver, ok := readCached(t, s, dp, false)
	if !ok || !bytes.Equal(buf, payloadFor(1)) {
		t.Fatalf("first read: ok=%v buf=%v", ok, buf[:4])
	}
	if ver != 0 {
		t.Fatalf("fresh block version = %d, want 0", ver)
	}
	snap := f.CounterSnapshot(0)
	if snap.CacheHits != 0 || snap.CacheMisses != 1 {
		t.Fatalf("after first read: hits=%d misses=%d", snap.CacheHits, snap.CacheMisses)
	}
	gets := snap.RemoteGets

	buf, _, ok = readCached(t, s, dp, false)
	if !ok || !bytes.Equal(buf, payloadFor(1)) {
		t.Fatalf("second read: ok=%v buf=%v", ok, buf[:4])
	}
	snap = f.CounterSnapshot(0)
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("after second read: hits=%d misses=%d", snap.CacheHits, snap.CacheMisses)
	}
	if snap.RemoteGets != gets {
		t.Fatalf("cache hit issued %d remote gets", snap.RemoteGets-gets)
	}
	if n := s.CacheLen(0); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
}

// TestCachedZeroTailReadsBack: an entry keeps its block up to the last
// nonzero byte, and a hit fills the rest of the reader's buffer with zeros,
// whatever the buffer held — for a block with a zero tail, an all-zero
// block, and one whose zeros are all inside.
func TestCachedZeroTailReadsBack(t *testing.T) {
	s, f := cacheFixture(t, 8)
	tail := make([]byte, 64)
	copy(tail, "ten bytes!")
	inside := payloadFor(0) // payloadFor(0)[0] is the one zero
	for _, block := range [][]byte{tail, make([]byte, 64), inside} {
		dp, err := s.AcquireBlock(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.WriteBlock(1, dp, block)
		for read := range 2 {
			buf := bytes.Repeat([]byte{0xff}, 64)
			vers, ok := s.ReadBlocksCached(0, []rma.DPtr{dp}, []rma.DPtr{dp}, [][]byte{buf}, false)
			if !ok[0] || vers[0] != 0 || !bytes.Equal(buf, block) {
				t.Fatalf("read %d of % x...: ok=%v, got % x...", read, block[:12], ok[0], buf[:12])
			}
		}
		kept := len(bytes.TrimRight(block, "\x00"))
		if e := s.cacheOf(0).m[dp].Value.(*cacheEntry); len(e.payload) != kept || e.size != 64 {
			t.Fatalf("entry of % x... keeps %d of %d bytes, want %d of 64", block[:12], len(e.payload), e.size, kept)
		}
	}
	if snap := f.CounterSnapshot(0); snap.CacheHits != 3 || snap.CacheMisses != 3 {
		t.Fatalf("hits=%d misses=%d, want 3 and 3", snap.CacheHits, snap.CacheMisses)
	}
}

func TestLocalBlocksBypassTheCache(t *testing.T) {
	s, f := cacheFixture(t, 8)
	dp, err := s.AcquireBlock(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.WriteBlock(0, dp, payloadFor(9))
	buf, _, ok := readCached(t, s, dp, false)
	if !ok || !bytes.Equal(buf, payloadFor(9)) {
		t.Fatalf("local read: ok=%v", ok)
	}
	if n := s.CacheLen(0); n != 0 {
		t.Fatalf("local block cached (%d entries)", n)
	}
	if snap := f.CounterSnapshot(0); snap.CacheHits != 0 || snap.CacheMisses != 0 {
		t.Fatalf("local reads counted against the cache: %+v", snap)
	}
}

func TestCacheEvictionUnderCapacityPressure(t *testing.T) {
	s, f := cacheFixture(t, 2)
	dps := []rma.DPtr{remoteBlock(t, s, 1), remoteBlock(t, s, 2), remoteBlock(t, s, 3)}
	for _, dp := range dps {
		if _, _, ok := readCached(t, s, dp, false); !ok {
			t.Fatal("read rejected")
		}
	}
	if n := s.CacheLen(0); n != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", n)
	}
	// The LRU victim is the first block: re-reading it must miss, while the
	// most recent two still hit.
	f.ResetCounters()
	readCached(t, s, dps[0], false)
	readCached(t, s, dps[2], false)
	snap := f.CounterSnapshot(0)
	if snap.CacheMisses != 1 || snap.CacheHits != 1 {
		t.Fatalf("after eviction: hits=%d misses=%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
}

// TestCacheInvalidationEdges drives the stale-copy scenarios the version
// protocol must catch, for both the scalar release (one CAS per word) and
// the release train (one CAS train per rank) write-unlock paths.
func TestCacheInvalidationEdges(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(w locks.Word)
	}{
		{"scalar-release", func(w locks.Word) { w.ReleaseWrite(1) }},
		{"release-train", func(w locks.Word) { locks.ReleaseWriteTrain(1, []locks.Word{w}, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := cacheFixture(t, 8)
			dp := remoteBlock(t, s, 1)
			w := lockOf(s, dp)

			// Prime rank 0's cache at version 0.
			if _, ver, ok := readCached(t, s, dp, false); !ok || ver != 0 {
				t.Fatalf("prime: ver=%d ok=%v", ver, ok)
			}

			// A remote writer overwrites the block under its lock.
			if err := w.TryAcquireWrite(1, locks.DefaultTries); err != nil {
				t.Fatal(err)
			}
			s.WriteBlock(1, dp, payloadFor(2))
			tc.release(w)

			// The cached copy is stale: revalidation must reject it and the
			// refetch must observe the new content at the bumped version.
			buf, ver, ok := readCached(t, s, dp, false)
			if !ok {
				t.Fatal("post-write read rejected")
			}
			if ver != 1 {
				t.Fatalf("post-write version = %d, want 1", ver)
			}
			if !bytes.Equal(buf, payloadFor(2)) {
				t.Fatalf("stale payload served after remote write: %v", buf[:4])
			}

			// Deletion: the owner zeroes the header and releases the block
			// under its lock; a reader must observe the poison, not the copy.
			if err := w.TryAcquireWrite(1, locks.DefaultTries); err != nil {
				t.Fatal(err)
			}
			s.WriteBlock(1, dp, make([]byte, 8))
			tc.release(w)
			buf, ver, ok = readCached(t, s, dp, false)
			if !ok || ver != 2 {
				t.Fatalf("post-delete read: ver=%d ok=%v", ver, ok)
			}
			if !bytes.Equal(buf[:8], make([]byte, 8)) {
				t.Fatalf("deletion poison not observed: %v", buf[:8])
			}
		})
	}
}

func TestUnstableReadRejectedWhileWriterHolds(t *testing.T) {
	s, f := cacheFixture(t, 8)
	dp := remoteBlock(t, s, 1)
	w := lockOf(s, dp)
	if err := w.TryAcquireWrite(1, locks.DefaultTries); err != nil {
		t.Fatal(err)
	}
	// Unlocked (optimistic) reads under a held writer are rejected and
	// nothing is cached; a locked read (the caller holds a read lock or a
	// collective read epoch) is accepted by contract.
	if _, _, ok := readCached(t, s, dp, false); ok {
		t.Fatal("optimistic read accepted while a writer holds the guard")
	}
	if n := s.CacheLen(0); n != 0 {
		t.Fatalf("rejected read installed %d cache entries", n)
	}
	w.ReleaseWrite(1)
	if _, ver, ok := readCached(t, s, dp, false); !ok || ver != 1 {
		t.Fatalf("read after writer left: ver=%d ok=%v", ver, ok)
	}
	_ = f
}

func TestGuardChangeInvalidatesEntry(t *testing.T) {
	s, _ := cacheFixture(t, 8)
	dp := remoteBlock(t, s, 1)
	guard := remoteBlock(t, s, 2)

	// Cache dp as a continuation block guarded by `guard`.
	buf := make([]byte, 64)
	if _, ok := s.ReadBlocksCached(0, []rma.DPtr{dp}, []rma.DPtr{guard}, [][]byte{buf}, false); !ok[0] {
		t.Fatal("guarded read rejected")
	}
	// The same block requested under a different guard (the block was
	// recycled into another holder) must miss, not serve the old copy.
	w := lockOf(s, dp)
	if err := w.TryAcquireWrite(1, locks.DefaultTries); err != nil {
		t.Fatal(err)
	}
	s.WriteBlock(1, dp, payloadFor(7))
	w.ReleaseWrite(1)
	got, _, ok := readCached(t, s, dp, false) // guard = dp itself now
	if !ok || !bytes.Equal(got, payloadFor(7)) {
		t.Fatalf("recycled block served stale content: ok=%v got=%v", ok, got[:4])
	}
}

func TestWritesInvalidateOwnCachedCopies(t *testing.T) {
	s, _ := cacheFixture(t, 8)
	dp := remoteBlock(t, s, 1)
	if _, _, ok := readCached(t, s, dp, false); !ok {
		t.Fatal("prime read rejected")
	}
	if n := s.CacheLen(0); n != 1 {
		t.Fatalf("cache len %d, want 1", n)
	}
	// Rank 0 writes the block itself (e.g. commit write-back): its own copy
	// must be dropped immediately, for both scalar and batched writes.
	s.WriteBlock(0, dp, payloadFor(5))
	if n := s.CacheLen(0); n != 0 {
		t.Fatalf("scalar write left %d cached copies", n)
	}
	dp2 := remoteBlock(t, s, 8)
	readCached(t, s, dp, false)
	readCached(t, s, dp2, false)
	s.WriteBlocksBatch(0, []rma.DPtr{dp, dp2}, [][]byte{payloadFor(6), payloadFor(6)})
	if n := s.CacheLen(0); n != 0 {
		t.Fatalf("batched write left %d cached copies", n)
	}
	// Releasing a block drops the releaser's copy too.
	readCached(t, s, dp, false)
	s.ReleaseBlock(0, dp)
	if n := s.CacheLen(0); n != 0 {
		t.Fatalf("release left %d cached copies", n)
	}
}
