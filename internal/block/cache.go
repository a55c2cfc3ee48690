package block

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/locks"
)

// The remote-block cache of the optimistic read tier (§3.8, §5.2): each rank
// keeps version-stamped local copies of remote blocks it has fetched, and
// revalidates them with a single train of loads of the guard lock words
// instead of re-fetching the payloads. A cached copy is current
// exactly while its guard word still carries the stamped version with the
// write bit clear — a writer's release bumps the version iff it wrote the
// block, which is the entire invalidation protocol: no invalidation messages, no coherence
// directory, just the lock word every transaction already touches.
//
// Entries are keyed by block DPtr and tagged with the guard block (the
// holder primary whose lock word protects the content). Only vertex-holder
// blocks are cached: their content changes exclusively under the primary's
// write lock, so the version stamp is authoritative. Edge holders are
// mutated under their *endpoints'* locks and therefore bypass the cache.
// Local blocks are never cached (a local read costs no remote latency).

// cacheEntry is one version-stamped block copy. It keeps the copy up to
// its last nonzero byte: a holder's stream ends in zero padding, which is
// most of a small vertex's only block. size is the length of the whole copy,
// which reads as payload followed by zeros.
type cacheEntry struct {
	dp      fabric.DPtr
	guard   fabric.DPtr // holder primary whose lock word stamps this copy
	ver     uint64      // guard version the payload corresponds to
	size    int
	payload []byte
}

// blockCache is one rank's LRU cache. A rank may run many concurrent
// workers, so access is serialized with a mutex; the protected section only
// copies block-sized payloads.
type blockCache struct {
	mu  sync.Mutex
	cap int
	m   map[fabric.DPtr]*list.Element
	lru *list.List // front = most recently used; values are *cacheEntry
}

func newBlockCache(capacity int) *blockCache {
	return &blockCache{
		cap: capacity,
		m:   make(map[fabric.DPtr]*list.Element),
		lru: list.New(),
	}
}

// lookup copies dp's cached payload into dst when an entry with the given
// guard exists and is large enough, returning its stamped version. The
// caller decides validity by comparing ver against the guard word.
func (c *blockCache) lookup(dp, guard fabric.DPtr, dst []byte) (ver uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.m[dp]
	if !found {
		return 0, false
	}
	e := el.Value.(*cacheEntry)
	if e.guard != guard || e.size < len(dst) {
		return 0, false
	}
	c.lru.MoveToFront(el)
	clear(dst[copy(dst, e.payload):])
	return e.ver, true
}

// install stores a validated copy, evicting from the LRU tail under capacity
// pressure. An existing entry for dp is replaced.
func (c *blockCache) install(dp, guard fabric.DPtr, ver uint64, payload []byte) {
	size := len(payload)
	payload = trimZeros(payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.m[dp]; found {
		e := el.Value.(*cacheEntry)
		e.guard, e.ver, e.size = guard, ver, size
		e.payload = append(e.payload[:0], payload...)
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.m, tail.Value.(*cacheEntry).dp)
	}
	e := &cacheEntry{dp: dp, guard: guard, ver: ver, size: size, payload: append([]byte(nil), payload...)}
	c.m[dp] = c.lru.PushFront(e)
}

// trimZeros returns b without its trailing zero bytes, a word at a time.
func trimZeros(b []byte) []byte {
	for len(b) >= 8 && binary.LittleEndian.Uint64(b[len(b)-8:]) == 0 {
		b = b[:len(b)-8]
	}
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return b
}

// invalidate drops dp's entry, if any.
func (c *blockCache) invalidate(dp fabric.DPtr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.m[dp]; found {
		c.lru.Remove(el)
		delete(c.m, dp)
	}
}

func (c *blockCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// cacheOf returns origin's cache, or nil when caching is disabled.
func (s *Store) cacheOf(origin fabric.Rank) *blockCache {
	if s.caches == nil {
		return nil
	}
	return s.caches[origin]
}

// CacheLen returns the number of entries in rank r's cache (diagnostics and
// tests).
func (s *Store) CacheLen(r fabric.Rank) int {
	if c := s.cacheOf(r); c != nil {
		return c.len()
	}
	return 0
}

// invalidateCached drops origin's cached copy of dp after a write or a block
// release. This is local hygiene, not the coherence protocol: other ranks'
// stale copies are rejected by version validation, and so would ours — but a
// writer knows its own copies are dead and need not wait for a failed
// revalidation to find out.
func (s *Store) invalidateCached(origin fabric.Rank, dp fabric.DPtr) {
	if c := s.cacheOf(origin); c != nil {
		c.invalidate(dp)
	}
}

// Trains is the reusable scratch of the vectored read primitives
// (LockStampsInto, ReadBlocksStamped): the buffers in which a batch is grouped
// by owner rank before it leaves as one train per rank. A caller that keeps
// one across calls — a frontier expansion does, for every hop of a query —
// pays no allocation for the grouping once the buffers have seen a batch of
// that size, and each buffer grows in one step, so even a first batch costs
// the same few allocations whatever its size. The zero value is ready to
// use; a Trains is not safe for concurrent use.
type Trains struct {
	target  []int32 // per batch position: owner rank, or -1 for "not in this train"
	count   []int32 // per rank: members, then write cursor; all zero between calls
	touched []int32 // ranks with members, in first-seen order
	order   []int32 // batch positions grouped by rank, groups in touched order
	begin   int32   // where in order the next group to pop starts

	idxs []int                 // one train's word indices
	ops  []fabric.GetOp        // one train's GET ops
	gops []fabric.GuardedGetOp // one guarded train's ops
}

// Footprint is the bytes the scratch keeps: the capacity of its buffers.
func (tr *Trains) Footprint() int {
	return 4*(cap(tr.target)+cap(tr.count)+cap(tr.touched)+cap(tr.order)) + int(unsafe.Sizeof(0))*cap(tr.idxs) +
		int(unsafe.Sizeof(fabric.GetOp{}))*cap(tr.ops) + int(unsafe.Sizeof(fabric.GuardedGetOp{}))*cap(tr.gops)
}

// group sorts the positions named in tr.target by owner rank — a counting
// sort that only touches the counters of ranks actually present, so a
// two-block batch on a 65 536-rank fabric costs two steps, not 65 536.
// Afterwards tr.touched lists the ranks present and pop hands out their
// groups, in that order.
func (tr *Trains) group(ranks int) {
	if len(tr.count) < ranks {
		tr.count = make([]int32, ranks)
	}
	tr.touched, tr.begin = slices.Grow(tr.touched[:0], min(ranks, len(tr.target))), 0
	n := 0
	for _, t := range tr.target {
		if t < 0 {
			continue
		}
		if tr.count[t] == 0 {
			tr.touched = append(tr.touched, t)
		}
		tr.count[t]++
		n++
	}
	if cap(tr.order) < n {
		tr.order = make([]int32, n)
	}
	tr.order = tr.order[:n]
	off := int32(0)
	for _, t := range tr.touched {
		c := tr.count[t]
		tr.count[t] = off
		off += c
	}
	for i, t := range tr.target {
		if t >= 0 {
			tr.order[tr.count[t]] = int32(i)
			tr.count[t]++
		}
	}
}

// pop returns the group of tr.touched[k] — the rank and the batch positions
// it owns — and zeroes the rank's counter for the next call of group. The
// groups must be popped in order, each once.
func (tr *Trains) pop(k int) (fabric.Rank, []int32) {
	r := tr.touched[k]
	pos := tr.order[tr.begin:tr.count[r]]
	tr.begin, tr.count[r] = tr.count[r], 0
	return fabric.Rank(r), pos
}

// LockStampsInto reads the lock words guarding dps into the first len(dps)
// words of out — one vectored atomic-load train per distinct owner rank;
// interpret them with locks.Version and locks.WriteHeld — grouping the batch
// in the caller's scratch: beyond the word slices the fabric itself returns
// (one per owner rank), it allocates nothing. A guard may be block 0 of its
// rank (ForwardingGuard): its word is the rank's forwarding word, which rides
// the rank's train like any other.
func (s *Store) LockStampsInto(origin fabric.Rank, dps []fabric.DPtr, out []uint64, tr *Trains) {
	tr.target = slices.Grow(tr.target[:0], len(dps))
	for _, dp := range dps {
		if dp.Off() != 0 {
			s.checkDPtr(dp)
		}
		tr.target = append(tr.target, int32(dp.Rank()))
	}
	tr.group(s.f.Size())
	tr.idxs = slices.Grow(tr.idxs[:0], len(dps))
	for k := range tr.touched {
		t, pos := tr.pop(k)
		tr.idxs = tr.idxs[:0]
		for _, i := range pos {
			tr.idxs = append(tr.idxs, 1+int(dps[i].Off()))
		}
		for j, w := range s.sys.LoadBatch(origin, t, tr.idxs) {
			out[pos[j]] = w
		}
	}
}

// StampedRead is one block of a stamped read: the unit the read protocols
// revalidate. A reader may stamp the guards of a whole fetch once and serve
// every streaming round of every holder against those stamps, or have each
// round's train load the guard around the blocks it reads (Load, Check).
type StampedRead struct {
	// DP is the block to read and Buf its destination.
	DP  fabric.DPtr
	Buf []byte
	// Guard is the holder primary whose lock word protects the block, Stamp
	// that word as loaded before the read: by the caller, or with Load by the
	// read's own train.
	Guard fabric.DPtr
	Stamp uint64
	// Post is the guard word loaded behind the block, with Check; a read
	// served from the cache has none.
	Post uint64
	// Load asks the read to load the guard word into Stamp itself, ahead of
	// the block in the same train — or, when a cached copy may serve,
	// instead of the block. Check asks for the guard word again into Post,
	// behind a block that comes off the wire. Both need the guard on the
	// block's rank: a holder's chain lives on its primary's rank.
	Load, Check bool
	// Fetched is set by ReadBlocksStamped: the block came off the wire (or,
	// for a local block, out of the pool) rather than out of the cache, so
	// its stability is only as good as the caller's locks or Post.
	Fetched bool
}

// ReadBlocksStamped serves every read against its stamp: cached copies
// carrying the stamped version with the write bit clear are copied out
// locally with no GET traffic, and the rest come off the wire, one train per
// owner rank. A train that loads no guard is a vectored GET train (a batch
// of one block goes scalar); one that does is a guarded GET train
// (fabric.ByteWin.GuardedGetBatch), where each read's loads ride with its
// block. A read with Load and a cached copy loads the guard alone; should
// the copy turn out stale under that stamp, a second train per owner rank
// fetches the block behind it — if refetch(i, stamp), the caller's verdict on
// read i's stamp, admits it. A refused read is not fetched and its Post
// repeats the stamp. refetch must be set when any read has Load.
//
// Nothing is installed into the cache: the caller establishes stability —
// from Stamp and Post, or from the locks it holds — and hands the accepted
// reads to InstallStamped.
func (s *Store) ReadBlocksStamped(origin fabric.Rank, reads []StampedRead, tr *Trains, refetch func(i int, stamp uint64) bool) {
	if len(reads) == 0 {
		return
	}
	cache := s.cacheOf(origin)
	tr.target = slices.Grow(tr.target[:0], len(reads))
	var hits, misses int64
	probes := false
	for i := range reads {
		r := &reads[i]
		s.checkDPtr(r.DP)
		if len(r.Buf) > s.blockSize {
			panic(fmt.Sprintf("block: read of %d bytes exceeds block size %d", len(r.Buf), s.blockSize))
		}
		if r.Load || r.Check {
			s.checkDPtr(r.Guard)
			if r.Guard.Rank() != r.DP.Rank() {
				panic(fmt.Sprintf("block: guard %v of block %v on another rank", r.Guard, r.DP))
			}
		}
		r.Fetched = true
		if cache != nil && r.DP.Rank() != origin {
			ver, found := cache.lookup(r.DP, r.Guard, r.Buf)
			switch {
			case found && r.Load:
				// A probe: the train loads the guard alone (readTrains
				// knows it by Fetched), and the copy, at version Post
				// until then, is judged after it.
				r.Fetched, r.Post, probes = false, ver, true
			case found && !r.Load && current(ver, r.Stamp):
				hits++
				r.Fetched = false
				tr.target = append(tr.target, -1)
				continue
			default:
				misses++
			}
		}
		tr.target = append(tr.target, int32(r.DP.Rank()))
	}
	s.readTrains(origin, reads, false, tr)
	if probes {
		// Judge each copy against the stamp its load brought back; a stale
		// one is fetched, behind that stamp, in a second round.
		stale := false
		for i := range reads {
			r := &reads[i]
			probe := tr.target[i] >= 0 && !r.Fetched
			tr.target[i] = -1
			switch {
			case !probe:
				continue
			case current(r.Post, r.Stamp):
				hits++
				continue
			case !refetch(i, r.Stamp):
				r.Post = r.Stamp // refused whatever the block holds: not fetched
			default:
				tr.target[i], stale = int32(r.DP.Rank()), true
			}
			r.Fetched = true
			misses++
		}
		if stale {
			s.readTrains(origin, reads, true, tr)
		}
	}
	if cache != nil {
		s.f.AddCache(origin, hits, misses)
	}
}

// current reports whether a cached copy at version ver is valid under stamp:
// the same version, the write bit clear.
func current(ver, stamp uint64) bool {
	return ver == locks.Version(stamp) && !locks.WriteHeld(stamp)
}

// readTrains reads the positions tr.target names, one train per owner rank,
// and hands each read the guard words its train loaded. A read loads its
// guard ahead of its block with Load — unless this is the refetch round,
// behind a stamp already loaded — and behind it with Check; a probe (a read
// not Fetched) loads its guard alone. A train that loads nothing is a plain
// GET train.
func (s *Store) readTrains(origin fabric.Rank, reads []StampedRead, refetch bool, tr *Trains) {
	tr.group(s.f.Size())
	for k := range tr.touched {
		t, pos := tr.pop(k)
		guarded := false
		for _, i := range pos {
			guarded = guarded || reads[i].Load && !refetch || reads[i].Check
		}
		if !guarded {
			s.getTrain(origin, t, reads, pos, tr)
			continue
		}
		tr.gops = slices.Grow(tr.gops[:0], len(tr.order))
		for _, i := range pos {
			r := &reads[i]
			op := fabric.GuardedGetOp{Guard: 1 + int(r.Guard.Off()), LoadBefore: r.Load && !refetch, LoadAfter: r.Check,
				Off: int(r.DP.Off()) * s.blockSize, Buf: r.Buf}
			if !r.Fetched {
				op.Buf, op.LoadAfter = nil, false
			}
			tr.gops = append(tr.gops, op)
		}
		s.data.GuardedGetBatch(origin, t, s.sys, tr.gops)
		for j, i := range pos {
			op, r := &tr.gops[j], &reads[i]
			if op.LoadBefore {
				r.Stamp = op.Before
			}
			if op.LoadAfter {
				r.Post = op.After
			}
		}
	}
}

// getTrain fetches the blocks of pos from rank t as one vectored GET train,
// or as a scalar GET when the whole batch is that one block (as in
// ReadBlocksBatch).
func (s *Store) getTrain(origin, t fabric.Rank, reads []StampedRead, pos []int32, tr *Trains) {
	if len(tr.order) == 1 {
		r := &reads[pos[0]]
		s.data.Get(origin, t, int(r.DP.Off())*s.blockSize, r.Buf)
		return
	}
	tr.ops = slices.Grow(tr.ops[:0], len(tr.order))
	for _, i := range pos {
		tr.ops = append(tr.ops, fabric.GetOp{Off: int(reads[i].DP.Off()) * s.blockSize, Buf: reads[i].Buf})
	}
	s.data.GetBatch(origin, t, tr.ops)
}

// InstallStamped installs validated copies of the reads that came off the
// wire (Fetched, and remote), each under its guard at its stamp's version.
// Callers invoke it on the reads of the holders they accepted: on the
// seqlock tier once the post-stamps confirmed the guards did not move across
// the fetch, under locks at once.
func (s *Store) InstallStamped(origin fabric.Rank, reads []StampedRead) {
	cache := s.cacheOf(origin)
	if cache == nil {
		return
	}
	for i := range reads {
		if r := &reads[i]; r.Fetched && r.DP.Rank() != origin {
			cache.install(r.DP, r.Guard, locks.Version(r.Stamp), r.Buf)
		}
	}
}

// ReadBlocksCached is the self-contained, one-call form of the stamped read
// protocol (the transaction layer uses ReadBlocksStamped and InstallStamped
// directly, so one stamp can cover every streaming round of a holder).
// When locked is false (no read locks held, the seqlock tier) every read
// loads its guard ahead of its block and again behind it, in one guarded
// train per owner rank: a cached copy is served under the first load, and a
// fetch is accepted and cached only if its guard shows the same version
// with the write bit clear on both sides of it. With locked true the caller
// guarantees stability (it holds the guards' locks): one stamp train over
// the distinct guards, then the reads, with no post-check.
//
// It returns, aligned with dps: the guard version each accepted buffer
// corresponds to, and whether the read was accepted. Rejected reads
// (ok[i] == false, only possible with locked == false) carry torn or moving
// content; the caller must retry or fall back to locking. It works with
// caching disabled, degenerating to validated (but uncached) batch reads.
func (s *Store) ReadBlocksCached(origin fabric.Rank, dps, guards []fabric.DPtr, bufs [][]byte, locked bool) (vers []uint64, ok []bool) {
	if len(dps) != len(guards) || len(dps) != len(bufs) {
		panic(fmt.Sprintf("block: cached batch of %d DPtrs, %d guards, %d buffers", len(dps), len(guards), len(bufs)))
	}
	n := len(dps)
	vers = make([]uint64, n)
	ok = make([]bool, n)
	if n == 0 {
		return vers, ok
	}
	var tr Trains
	reads := make([]StampedRead, n)
	for i := range reads {
		reads[i] = StampedRead{DP: dps[i], Buf: bufs[i], Guard: guards[i], Load: !locked, Check: !locked}
	}
	if locked {
		stamps := s.guardStamps(origin, guards, &tr)
		for i := range reads {
			reads[i].Stamp = stamps[guards[i]]
		}
	}
	// A stamp with a writer on it cannot validate the block read under it.
	s.ReadBlocksStamped(origin, reads, &tr, func(_ int, stamp uint64) bool { return !locks.WriteHeld(stamp) })
	for i := range reads {
		r := &reads[i]
		// Cache hits were validated against the stamp at lookup time.
		if r.Fetched && !locked && (locks.WriteHeld(r.Stamp) || !current(locks.Version(r.Stamp), r.Post)) {
			r.Fetched = false // torn or moving: rejected, not cached
			continue
		}
		vers[i], ok[i] = locks.Version(r.Stamp), true
	}
	s.InstallStamped(origin, reads)
	return vers, ok
}

// guardStamps loads the lock words of the distinct guards into a map, one
// vectored atomic-load train per owner rank.
func (s *Store) guardStamps(origin fabric.Rank, guards []fabric.DPtr, tr *Trains) map[fabric.DPtr]uint64 {
	seen := make(map[fabric.DPtr]uint64, len(guards))
	uniq := make([]fabric.DPtr, 0, len(guards))
	for _, g := range guards {
		if _, dup := seen[g]; !dup {
			seen[g] = 0
			uniq = append(uniq, g)
		}
	}
	words := make([]uint64, len(uniq))
	s.LockStampsInto(origin, uniq, words, tr)
	for i, w := range words {
		seen[uniq[i]] = w
	}
	return seen
}
