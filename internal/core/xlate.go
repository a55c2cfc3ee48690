package core

import (
	"errors"
	"math/bits"
	"sync"

	"github.com/gdi-go/gdi/internal/fabric"
)

// The translation cache: each rank remembers, per application vertex ID, the
// primary DPtr a translation last confirmed and the guard version it was
// confirmed at. Tx.TranslateVertexID uses it; ARCHITECTURE.md, "Life of a
// translation", has the rules. This comment keeps the invariant they rest on.
//
// Versions never repeat on a block: the lock word is not reset when a block
// is recycled, every delete, migration and rewrite of a holder releases its
// head's word with a bump, and follower seeding only moves a word forward
// (replicate.go). The block cache relies on the same fact. So a guard that
// still carries the version an entry was confirmed at proves that nothing
// deleted, moved or rewrote the holder since: the entry's block still holds
// that vertex. A hit is therefore checked by the association the caller was
// going to make anyway — one guard stamp, block 0 usually out of the block
// cache — and never by trusting holder bytes under a version that moved (a
// block recycled as a headerless continuation carries arbitrary bytes).

// xlateEntry is one slot of a rank's translation cache; a NullDPtr dp marks
// an empty slot.
type xlateEntry struct {
	app uint64
	dp  fabric.DPtr
	ver uint64
}

// xlateCache is one rank's translation cache: a direct-mapped table indexed
// by app & mask, allocated on the first fill so a rank that never translates
// costs nothing. Every transaction of the rank shares it.
type xlateCache struct {
	mu    sync.Mutex
	slots []xlateEntry
	size  int // slots to allocate on the first fill, a power of two
}

// xlateSlots sizes a translation cache from the internal index: the next power
// of two at or above the entries one rank's index shard holds, which is about
// twice the vertices a rank owns.
func xlateSlots(dhtEntriesPerRank int) int {
	if dhtEntriesPerRank <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(dhtEntriesPerRank-1))
}

// get returns the entry cached for app.
func (c *xlateCache) get(app uint64) (dp fabric.DPtr, ver uint64, ok bool) {
	c.mu.Lock()
	if c.slots != nil {
		if s := c.slots[app&uint64(len(c.slots)-1)]; s.app == app && !s.dp.IsNull() {
			dp, ver, ok = s.dp, s.ver, true
		}
	}
	c.mu.Unlock()
	return dp, ver, ok
}

// put records that dp's holder was app's vertex at guard version ver.
func (c *xlateCache) put(app uint64, dp fabric.DPtr, ver uint64) {
	c.mu.Lock()
	if c.slots == nil {
		c.slots = make([]xlateEntry, c.size)
	}
	c.slots[app&uint64(len(c.slots)-1)] = xlateEntry{app: app, dp: dp, ver: ver}
	c.mu.Unlock()
}

// drop forgets app's entry if it names dp.
func (c *xlateCache) drop(app uint64, dp fabric.DPtr) {
	c.mu.Lock()
	if c.slots != nil {
		if s := &c.slots[app&uint64(len(c.slots)-1)]; s.app == app && s.dp == dp {
			*s = xlateEntry{}
		}
	}
	c.mu.Unlock()
}

// errStaleTranslation fails a speculative association whose guard version or
// head block no longer matches the cached translation; the caller falls back
// to the internal index.
var errStaleTranslation = errors.New("core: cached translation is stale")

// TranslationCacheStats reports how many translations the rank caches
// served (hits) and how many went to the internal index (misses).
func (e *Engine) TranslationCacheStats() (hits, misses int64) {
	return e.xlateHits.Load(), e.xlateMisses.Load()
}

// noteCommitted refreshes the committing rank's translation cache from the
// vertices of a commit's write set: each is cached at the version its
// release published, or forgotten when the commit deleted it.
func (tx *Tx) noteCommitted(ws []writeEntry) {
	xc := &tx.eng.xlate[tx.rank]
	for _, w := range ws {
		switch st := w.vs; {
		case st == nil:
		case st.deleted:
			xc.drop(st.v.AppID, st.primary)
		default:
			xc.put(st.v.AppID, st.primary, st.lockVer+1)
		}
	}
}
