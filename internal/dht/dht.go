// Package dht implements the fully-offloaded distributed hash table of
// GDI-RMA (§5.7 and Listing 4 of the paper). GDA uses it for internal,
// performance-critical translations such as application-level vertex ID →
// internal DPtr.
//
// Design, following the paper:
//
//   - the table (buckets) and the heap (chained entries) are sharded across
//     all ranks;
//   - every operation — insert, lookup, and delete — uses only one-sided
//     atomics (AGET/APUT/CAS), so the owner of a bucket never executes code
//     on behalf of a client ("the first DHT with all its operations fully
//     offloaded, including deletes");
//   - collisions are resolved with distributed chaining: bucket → linked
//     list of heap entries, where each entry may live on any rank;
//   - deletion is the two-CAS protocol of Listing 4: the first CAS points
//     the victim's next pointer at itself (the self-pointer tombstone that
//     concurrent readers detect and restart on), the second CAS unlinks it
//     from its predecessor.
//
// Round trips. A lookup reads the bucket word, then one entry per chain hop;
// an entry's four words (key, value, next, reuse tag) travel as one
// atomic-load train, so a lookup at chain length one costs two round trips.
// Replace, Delete and the unlink walk pay the same per hop before their CAS.
// LookupBatch resolves many keys level-synchronously — all bucket heads as
// one train per bucket rank, then one train per entry rank per chain level —
// which is how the bulk loader and the other per-item translation loops of
// package core pay O(chain length) round trips per rank instead of O(keys).
//
// One hardening beyond the paper's pseudocode: pointers carry a 15-bit
// reuse tag that is bumped when a heap slot is recycled, and every entry
// stores its current tag. A reader that follows a stale pointer into a
// recycled slot sees the tag mismatch and restarts instead of reading an
// unrelated key (the ABA-on-recycle case the pseudocode leaves to the
// implementation).
package dht

import (
	"fmt"

	"github.com/gdi-go/gdi/internal/fabric"
)

// ref is a tagged pointer to either a bucket word or a heap entry:
//
//	bit 63      heap flag (0 = bucket/table, 1 = heap entry)
//	bits 62..48 reuse tag (heap entries only)
//	bits 47..32 rank
//	bits 31..0  slot index
//
// The zero ref is NULL (the empty bucket).
type ref uint64

const (
	heapFlag  uint64 = 1 << 63
	tagShift         = 48
	tagMask   uint64 = (1<<15 - 1) << tagShift
	rankShift        = 32
	rankMask  uint64 = (1<<16 - 1) << rankShift
	idxMask   uint64 = 1<<32 - 1
)

func heapRef(r fabric.Rank, idx uint32, tag uint16) ref {
	return ref(heapFlag | uint64(tag&0x7fff)<<tagShift | uint64(r)<<rankShift | uint64(idx))
}

func (p ref) isNull() bool      { return p == 0 }
func (p ref) isHeap() bool      { return uint64(p)&heapFlag != 0 }
func (p ref) rank() fabric.Rank { return fabric.Rank(uint64(p) & rankMask >> rankShift) }
func (p ref) idx() uint32       { return uint32(uint64(p) & idxMask) }
func (p ref) tag() uint16       { return uint16(uint64(p) & tagMask >> tagShift) }

// Heap entry layout, in words.
const (
	eKey   = 0
	eVal   = 1
	eNext  = 2
	eTag   = 3
	eWords = 4
)

// Map is the distributed hash table. All ranks share one Map; every method
// is safe for concurrent use from any rank and is fully one-sided.
type Map struct {
	f           fabric.Transport
	bucketsPer  int
	entriesPer  int
	table       fabric.WordWin // bucket head pointers (ref words)
	heap        fabric.WordWin // entry slots, eWords words each
	free        fabric.WordWin // free-list links between slots
	sys         fabric.WordWin // word 0: tagged free-list head per rank
	totalBucket uint64
}

// Config sizes the table.
type Config struct {
	// BucketsPerRank is each rank's share of the bucket array.
	BucketsPerRank int
	// EntriesPerRank is each rank's heap capacity.
	EntriesPerRank int
}

// New collectively creates a Map over fabric f.
func New(f fabric.Transport, cfg Config) *Map {
	if cfg.BucketsPerRank < 1 || cfg.EntriesPerRank < 1 {
		panic(fmt.Sprintf("dht: invalid config %+v", cfg))
	}
	if uint64(cfg.EntriesPerRank) >= 1<<32 {
		panic("dht: entries per rank exceed 32-bit slot index")
	}
	m := &Map{
		f:           f,
		bucketsPer:  cfg.BucketsPerRank,
		entriesPer:  cfg.EntriesPerRank,
		table:       f.NewWordWin(cfg.BucketsPerRank),
		heap:        f.NewWordWin(cfg.EntriesPerRank * eWords),
		free:        f.NewWordWin(cfg.EntriesPerRank),
		sys:         f.NewWordWin(1),
		totalBucket: uint64(cfg.BucketsPerRank) * uint64(f.Size()),
	}
	// Each process threads the free lists of the ranks whose segments it
	// hosts (every rank on the simulator, only its own on a wire transport,
	// where the peers thread theirs), as block.NewStore does.
	for r := 0; r < f.Size(); r++ {
		rank := fabric.Rank(r)
		if !f.Local(rank) {
			continue
		}
		// Slot free list: 1-based indices, 0 = empty.
		for i := 1; i < cfg.EntriesPerRank; i++ {
			m.free.Store(rank, rank, i-1, uint64(i+1))
		}
		m.free.Store(rank, rank, cfg.EntriesPerRank-1, 0)
		m.sys.Store(rank, rank, 0, packFreeHead(1, 1))
	}
	return m
}

func packFreeHead(tag uint32, idx uint32) uint64 { return uint64(tag)<<32 | uint64(idx) }
func unpackFreeHead(h uint64) (tag, idx uint32)  { return uint32(h >> 32), uint32(h) }

// bucketOf spreads a key over the global bucket space (Fibonacci hashing) and
// returns the ref of its bucket word.
func (m *Map) bucketOf(key uint64) ref {
	h := key * 0x9e3779b97f4a7c15
	b := h % m.totalBucket
	return ref((b/uint64(m.bucketsPer))<<rankShift | b%uint64(m.bucketsPer))
}

// HomeRank returns the rank holding key's bucket — and, unless that rank's
// heap is exhausted, its entry. A collective loader routes (key, val) pairs
// there and inserts them with origin == target, so publishing an index entry
// costs no remote atomics at all.
func (m *Map) HomeRank(key uint64) fabric.Rank { return m.bucketOf(key).rank() }

// alloc grabs a heap slot on the preferred rank and bumps its reuse tag,
// stealing from successive ranks if that heap is exhausted. Insert prefers
// the key's bucket rank, so an entry fate-shares with the bucket that chains
// it: losing a rank severs only the keys *hashed* there. The old
// allocate-local policy tied each entry to its inserter — vertices are
// inserted by the rank that owns them, so a rank death took down every one
// of its vertices' directory entries along with their primary copies, and
// replica failover had nothing left to swing (the correlated loss the
// kill-a-rank tier caught on the wire transport, where dead memory is
// really gone).
func (m *Map) alloc(origin, prefer fabric.Rank) (ref, bool) {
	n := m.f.Size()
	for attempt := 0; attempt < n; attempt++ {
		target := fabric.Rank((int(prefer) + attempt) % n)
		if r, ok := m.allocOn(origin, target); ok {
			return r, true
		}
	}
	return 0, false
}

func (m *Map) allocOn(origin, target fabric.Rank) (ref, bool) {
	for {
		head := m.sys.Load(origin, target, 0)
		tag, idx := unpackFreeHead(head)
		if idx == 0 {
			return 0, false
		}
		next := m.free.Load(origin, target, int(idx-1))
		if _, ok := m.sys.CAS(origin, target, 0, head, packFreeHead(tag+1, uint32(next))); ok {
			slot := idx - 1
			newTag := uint16(m.heap.FetchAdd(origin, target, int(slot)*eWords+eTag, 1) + 1)
			return heapRef(target, slot, newTag), true
		}
	}
}

func (m *Map) dealloc(origin fabric.Rank, p ref) {
	target, slot := p.rank(), p.idx()
	for {
		head := m.sys.Load(origin, target, 0)
		tag, old := unpackFreeHead(head)
		m.free.Store(origin, target, int(slot), uint64(old))
		if _, ok := m.sys.CAS(origin, target, 0, head, packFreeHead(tag+1, slot+1)); ok {
			return
		}
	}
}

// word addressing helpers for the "next field" of a ref: for a bucket the
// next field is the bucket word itself; for a heap entry it is word eNext.
func (m *Map) loadNext(origin fabric.Rank, p ref) ref {
	if p.isHeap() {
		return ref(m.heap.Load(origin, p.rank(), int(p.idx())*eWords+eNext))
	}
	return ref(m.table.Load(origin, p.rank(), int(p.idx())))
}

func (m *Map) casNext(origin fabric.Rank, p ref, old, new ref) bool {
	if p.isHeap() {
		_, ok := m.heap.CAS(origin, p.rank(), int(p.idx())*eWords+eNext, uint64(old), uint64(new))
		return ok
	}
	_, ok := m.table.CAS(origin, p.rank(), int(p.idx()), uint64(old), uint64(new))
	return ok
}

// loadEntry fetches an entry's four words as one atomic-load train — a
// single round trip — and verifies the reuse tag. The tag is the last index
// of the train: WordWin.LoadBatch applies its loads in index order, so a tag
// that still matches proves key, val and next were read from this incarnation
// of the slot (alloc bumps the tag before it rewrites any of them). ok is
// false when the slot was recycled under the reader, who must restart.
func (m *Map) loadEntry(origin fabric.Rank, p ref) (key, val uint64, next ref, ok bool) {
	base := int(p.idx()) * eWords
	w := m.heap.LoadBatch(origin, p.rank(), []int{base + eKey, base + eVal, base + eNext, base + eTag})
	return w[eKey], w[eVal], ref(w[eNext]), uint16(w[eTag]) == p.tag()
}

// Insert adds key → val. Duplicate keys may coexist (the paper's DHT is a
// multimap at the protocol level); GDA's users ensure key uniqueness.
// Returns false when the heap is exhausted.
func (m *Map) Insert(origin fabric.Rank, key, val uint64) bool {
	bucket := m.bucketOf(key)
	p, ok := m.alloc(origin, bucket.rank())
	if !ok {
		return false
	}
	base := int(p.idx()) * eWords
	m.heap.Store(origin, p.rank(), base+eKey, key)
	m.heap.Store(origin, p.rank(), base+eVal, val)
	for {
		head := m.loadNext(origin, bucket)
		m.heap.Store(origin, p.rank(), base+eNext, uint64(head))
		if m.casNext(origin, bucket, head, p) {
			return true
		}
	}
}

// Lookup finds key and returns its value.
func (m *Map) Lookup(origin fabric.Rank, key uint64) (val uint64, found bool) {
	for {
		v, ok, restart := m.lookupOnce(origin, key)
		if !restart {
			return v, ok
		}
	}
}

func (m *Map) lookupOnce(origin fabric.Rank, key uint64) (val uint64, found, restart bool) {
	bucket := m.bucketOf(key)
	p := m.loadNext(origin, bucket)
	for !p.isNull() {
		k, v, next, ok := m.loadEntry(origin, p)
		if !ok || next == p {
			// Recycled under us, or a self-pointer tombstone: restart.
			return 0, false, true
		}
		if k == key {
			return v, true, false
		}
		p = next
	}
	return 0, false, false
}

// batchChunk bounds how many keys one level-synchronous walk carries, and so
// the size of every train it posts (4 words per key at an entry level: 64 KiB
// of indices on a wire transport) and of its scratch state.
const batchChunk = 2048

// LookupBatch resolves many keys at once: vals[i], found[i] receive what
// Lookup(origin, keys[i]) would return. Duplicate and missing keys are legal.
// vals and found must be as long as keys.
//
// The walk is level-synchronous — the §5.6 pattern of posting many one-sided
// operations and synchronizing once. Per chunk of batchChunk keys it loads
// all bucket heads with one atomic-load train per bucket rank, then advances
// every unresolved key by one chain hop per level with one train per entry
// rank. N keys whose chains have length one therefore cost two round trips
// per remote rank instead of 2N. A key that meets a tombstone or a recycled
// slot falls back to the scalar Lookup, for that key only.
func (m *Map) LookupBatch(origin fabric.Rank, keys, vals []uint64, found []bool) {
	if len(vals) != len(keys) || len(found) != len(keys) {
		panic(fmt.Sprintf("dht: LookupBatch of %d keys into %d values, %d flags", len(keys), len(vals), len(found)))
	}
	for lo := 0; lo < len(keys); lo += batchChunk {
		hi := min(lo+batchChunk, len(keys))
		m.lookupChunk(origin, keys[lo:hi], vals[lo:hi], found[lo:hi])
	}
}

func (m *Map) lookupChunk(origin fabric.Rank, keys, vals []uint64, found []bool) {
	// at[i] is where key i's walk stands: its bucket word, then the entry to
	// visit next. byRank groups the walks still running by the rank their
	// next load targets.
	at := make([]ref, len(keys))
	byRank := make([][]int, m.f.Size())
	var idxs []int
	for i, key := range keys {
		vals[i], found[i] = 0, false
		at[i] = m.bucketOf(key)
		byRank[at[i].rank()] = append(byRank[at[i].rank()], i)
	}
	for r, walks := range byRank {
		if len(walks) == 0 {
			continue
		}
		idxs = idxs[:0]
		for _, i := range walks {
			idxs = append(idxs, int(at[i].idx()))
		}
		for j, head := range m.table.LoadBatch(origin, fabric.Rank(r), idxs) {
			at[walks[j]] = ref(head)
		}
	}
	running := make([]int, 0, len(keys))
	for i, p := range at {
		if !p.isNull() {
			running = append(running, i)
		}
	}
	for len(running) > 0 {
		for r := range byRank {
			byRank[r] = byRank[r][:0]
		}
		for _, i := range running {
			byRank[at[i].rank()] = append(byRank[at[i].rank()], i)
		}
		running = running[:0]
		for r, walks := range byRank {
			if len(walks) == 0 {
				continue
			}
			// Four words per entry, tag last, exactly as loadEntry orders them.
			idxs = idxs[:0]
			for _, i := range walks {
				base := int(at[i].idx()) * eWords
				idxs = append(idxs, base+eKey, base+eVal, base+eNext, base+eTag)
			}
			words := m.heap.LoadBatch(origin, fabric.Rank(r), idxs)
			for j, i := range walks {
				w, p := words[j*eWords:(j+1)*eWords], at[i]
				next := ref(w[eNext])
				switch {
				case uint16(w[eTag]) != p.tag() || next == p:
					vals[i], found[i] = m.Lookup(origin, keys[i])
				case w[eKey] == keys[i]:
					vals[i], found[i] = w[eVal], true
				case !next.isNull():
					at[i] = next
					running = append(running, i)
				}
			}
		}
	}
}

// Replace CAS-swings the value of an existing key from old to new — the
// DHT-entry update live vertex migration publishes its new placement with.
// It walks the chain like Lookup and issues a single CAS on the entry's
// value word, so concurrent readers observe either the old or the new value,
// never a mix. It returns false when no entry holds (key, old) — the caller
// lost a race (or the entry was deleted) and must re-plan. Tombstoned or
// recycled entries restart the walk, exactly as in Lookup.
func (m *Map) Replace(origin fabric.Rank, key, old, new uint64) bool {
	_, swapped, _ := m.ReplaceFetch(origin, key, old, new)
	return swapped
}

// ReplaceFetch is Replace extended with the observed value: on a failed swing
// it returns the value the entry actually held, so the caller learns what won
// without a second chain walk. Follower promotion rides on this — every
// surviving follower of a dead primary CASes the vertex's entry toward its
// own copy, and the losers read the winner's placement straight out of the
// failed CAS. found is false when no entry with the key exists at all.
func (m *Map) ReplaceFetch(origin fabric.Rank, key, old, new uint64) (cur uint64, swapped, found bool) {
	for {
		done, swapped, cur, found := m.replaceOnce(origin, key, old, new)
		if done {
			return cur, swapped, found
		}
	}
}

func (m *Map) replaceOnce(origin fabric.Rank, key, old, new uint64) (done, swapped bool, cur uint64, found bool) {
	bucket := m.bucketOf(key)
	p := m.loadNext(origin, bucket)
	for !p.isNull() {
		k, v, next, ok := m.loadEntry(origin, p)
		if !ok || next == p {
			return false, false, 0, false // tombstone or recycled: restart
		}
		if k == key {
			if v != old {
				return true, false, v, true
			}
			base := int(p.idx()) * eWords
			if prev, ok := m.heap.CAS(origin, p.rank(), base+eVal, old, new); ok {
				// The CAS can only race the slot being recycled, which the
				// reuse tag detects: confirm the entry still is ours. On a
				// mismatch the swap landed in a recycled slot; undo it
				// (best-effort — a loss means the new owner overwrote it,
				// so their value stands) and restart the walk.
				if tag := uint16(m.heap.Load(origin, p.rank(), base+eTag)); tag == p.tag() {
					return true, true, new, true
				}
				m.heap.CAS(origin, p.rank(), base+eVal, new, old)
				return false, false, 0, false
			} else {
				return true, false, prev, true
			}
		}
		p = next
	}
	return true, false, 0, false
}

// Delete removes one entry with the given key. It reports whether an entry
// was removed.
func (m *Map) Delete(origin fabric.Rank, key uint64) bool {
	for {
		done, removed := m.deleteOnce(origin, key)
		if done {
			return removed
		}
	}
}

// deleteOnce walks the chain once; done=false requests a restart.
func (m *Map) deleteOnce(origin fabric.Rank, key uint64) (done, removed bool) {
	bucket := m.bucketOf(key)
	prev := bucket
	p := m.loadNext(origin, bucket)
	for !p.isNull() {
		k, _, next, ok := m.loadEntry(origin, p)
		if !ok || next == p {
			return false, false // tombstone or recycled: restart
		}
		if k == key {
			// CAS 1 (Listing 4, line 32): tombstone the victim by pointing
			// its next field at itself. Failure means we lost a race on the
			// victim or its successor was just deleted: restart.
			if !m.casNext(origin, p, next, p) {
				return false, false
			}
			// CAS 2 (line 37): unlink the victim from its predecessor. The
			// tombstone keeps the victim reachable — only we can unlink it —
			// so on failure we rewalk and retry the unlink with the
			// successor we captured before tombstoning (the paper's
			// "restart, retaining the original next pointer", line 41).
			if !m.casNext(origin, prev, p, next) {
				m.unlinkTombstone(origin, bucket, p, next)
			}
			m.dealloc(origin, p)
			return true, true
		}
		prev = p
		p = next
	}
	return true, false
}

// unlinkTombstone rewalks the chain from the bucket until it bypasses the
// tombstoned entry t, whose pre-tombstone successor is succ. t stays
// reachable until this succeeds: tombstones are only unlinked by their own
// deleter, and a deleted predecessor's CAS 2 re-routes the chain around the
// predecessor while still leading to t.
func (m *Map) unlinkTombstone(origin fabric.Rank, bucket, t, succ ref) {
	for {
		prev := bucket
		p := m.loadNext(origin, bucket)
		retry := false
		for !p.isNull() {
			if p == t {
				if m.casNext(origin, prev, t, succ) {
					return
				}
				retry = true // predecessor changed under us: rewalk
				break
			}
			_, _, next, ok := m.loadEntry(origin, p)
			if !ok || next == p {
				retry = true // foreign tombstone blocks the walk: rewalk
				break
			}
			prev = p
			p = next
		}
		if !retry && p.isNull() {
			// t must remain reachable until we unlink it; reaching the end
			// of the chain means the walk raced a concurrent restructuring.
			continue
		}
	}
}

// Len counts all entries (diagnostic; walks every bucket).
func (m *Map) Len(origin fabric.Rank) int {
	n := 0
	for r := 0; r < m.f.Size(); r++ {
		for b := 0; b < m.bucketsPer; b++ {
			bucket := ref(uint64(r)<<rankShift | uint64(b))
			for p := m.loadNext(origin, bucket); !p.isNull(); {
				_, _, next, ok := m.loadEntry(origin, p)
				if !ok || next == p {
					break
				}
				n++
				p = next
			}
		}
	}
	return n
}
