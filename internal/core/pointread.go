package core

import (
	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
)

// ReadArena is the reusable scratch of the allocation-free point-read path:
// the holder stream buffer, the zero-copy view over it, and the bookkeeping
// slice for blocks fetched off the wire. A worker keeps one arena and passes
// it to every OptimisticPointRead; after warm-up the steady-state hit path
// (local holder, or every remote block served by the validated cache)
// performs zero heap allocations per read.
//
// Arenas follow the handle rules: one arena per goroutine, never shared.
// The type is exported because the benchmark module's point-read probe
// passes one.
type ReadArena struct {
	buf  []byte
	view holder.View

	fetched []block.StampedRead
}

// grow returns ar.buf resized to n bytes, preserving current contents (the
// chain walk extends the buffer after the primary block is already in it).
// Steady state reuses capacity and allocates nothing.
func (ar *ReadArena) grow(n int) []byte {
	if cap(ar.buf) < n {
		nb := make([]byte, n)
		copy(nb, ar.buf)
		ar.buf = nb
	}
	ar.buf = ar.buf[:n]
	return ar.buf
}

// OptimisticPointRead performs a one-shot seqlock read of one vertex holder
// and hands the validated stream to fn as a zero-copy view — the leanest
// form of the optimistic tier, for point lookups that need no transaction
// (monitoring probes, benchmark harnesses, read-mostly caches above GDI).
// The benchmark module's point-read probe calls it.
//
// Protocol: stamp the primary's guard word (one atomic load), read the
// holder's blocks — local blocks from the pool, remote blocks from the
// version-validated cache when current, off the wire otherwise — and accept
// iff a post-stamp shows the same version with the write bit clear on both
// sides (the seqlock double-check). Accepted wire blocks are installed into
// the cache at the stamped version, so a re-read of an unchanged holder is
// served entirely locally. Returns false on any instability — a concurrent
// writer, a migration stub, a deleted holder — and the caller falls back to
// a transactional read; fn is only called on acceptance, and the view it
// receives is valid only during the call (it aliases the arena). Acceptance
// vouches for the header and the label/property entries; a v2 edge region is
// validated by the walk that reads it, so an fn that walks edges and cares
// checks View.Err afterwards.
//
// The hit path — stamps, cached or local block reads, varint iteration —
// allocates nothing; only cache misses (fetch + install) and first-use arena
// growth touch the heap.
func (e *Engine) OptimisticPointRead(origin fabric.Rank, primary fabric.DPtr, ar *ReadArena, fn func(*holder.View)) bool {
	bs := e.cfg.BlockSize
	store := e.store
	stamp := store.LockStamp(origin, primary)
	if locks.WriteHeld(stamp) {
		return false
	}
	ar.fetched = ar.fetched[:0]

	// readBlock serves dp into dst: local blocks straight from the pool,
	// remote blocks from the validated cache, the rest — recorded for
	// post-validation install — off the wire.
	readBlock := func(dp fabric.DPtr, dst []byte) {
		if dp.Rank() == origin {
			store.ReadBlock(origin, dp, dst)
			return
		}
		if store.CachedBlock(origin, dp, primary, stamp, dst) {
			return
		}
		store.ReadBlock(origin, dp, dst)
		ar.fetched = append(ar.fetched, block.StampedRead{DP: dp, Buf: dst, Guard: primary, Stamp: stamp, Fetched: true})
	}

	buf := ar.grow(bs)
	readBlock(primary, buf)
	nb := holder.NumBlocks(buf)
	if nb < 1 || nb > e.cfg.BlocksPerRank || holder.IsMoved(buf) {
		// Deleted, torn beyond plausibility, or migrated away: the
		// transactional path knows how to chase stubs; we do not.
		return false
	}
	if nb > 1 {
		// The inline fast path is the nb == 1 case skipping this walk
		// entirely: v2 single-block holders always take it. Multi-block
		// chains follow the table under the streaming invariant — entry i-1
		// is inside the first i blocks, already read.
		buf = ar.grow(nb * bs)
		for i := 1; i < nb; i++ {
			dp := holder.TableEntry(buf, i-1)
			if dp.IsNull() {
				return false
			}
			readBlock(dp, buf[i*bs:(i+1)*bs])
		}
	}

	post := store.LockStamp(origin, primary)
	if locks.Version(post) != locks.Version(stamp) || locks.WriteHeld(post) {
		return false
	}
	if err := ar.view.Reset(buf); err != nil {
		return false
	}
	store.InstallStamped(origin, ar.fetched)
	if e.cfg.RebalanceHeatTracking {
		e.recordHeat(origin, ar.view.AppID(), primary.Rank())
	}
	fn(&ar.view)
	return true
}
