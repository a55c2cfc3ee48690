package core

import (
	"fmt"
	"slices"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
)

// Matches evaluates cons against the vertex's labels and properties in
// place — no copies, no communication (a nil constraint matches).
func (h *VertexHandle) Matches(cons *constraint.Constraint) bool {
	return cons.Eval(h.st.v.Labels, h.st.v.Props)
}

// ExpandFrontier is the batch expansion entry point the query layer compiles
// multi-hop traversals onto: it filters the frontier by cons and harvests the
// matched vertices' distinct neighbors under mask.
//
// matched holds the IDs of the frontier vertices that satisfy cons, deduped,
// in frontier order; next holds the union of their neighbors in
// first-encounter order (mask 0 skips the harvest: filter only, the shape a
// traversal's final hop wants). A frontier vertex that no longer exists — the
// read set is stale — fails the expansion with ErrNotFound.
//
// A frontier vertex costs its label/property bytes and no heap object. The
// optimistic read tier never materializes it: the hop stamps the guards of
// the deduped frontier (one atomic-load train per owner rank), serves each
// holder's blocks from the validated cache or one GET train per owner rank
// per round into the transaction's frontier arena (reused from hop to hop,
// garbage when the transaction closes), double-checks the stamps
// of whatever came off the wire, evaluates cons in place on the encoded
// entry region, harvests neighbors straight off the view, and appends a
// (vertex, version) pair to the read set Commit revalidates. A filter-only
// hop fetches only the blocks that reach the end of the entry region — the
// primary block for all but mega-hubs — not the chain.
// What that route cannot serve goes through AssociateVertices in one batch
// and is filtered and harvested through its handles: forwarding stubs,
// vertices a local follower copy serves, holders that were being written or
// look deleted, and every frontier of a locking transaction.
func (tx *Tx) ExpandFrontier(frontier []fabric.DPtr, mask DirMask, cons *constraint.Constraint) (matched, next []fabric.DPtr, err error) {
	if len(frontier) == 0 {
		return nil, nil, nil
	}
	if err := tx.check(); err != nil {
		return nil, nil, err
	}
	if cons != nil && cons.Stale(tx.registry()) {
		return nil, nil, fmt.Errorf("%w: stale constraint", ErrTxCritical)
	}
	if tx.frontier == nil {
		tx.frontier = new(frontierScratch)
	}
	sc := tx.frontier
	if err := sc.reset(frontier); err != nil {
		return nil, nil, err
	}
	if tx.optimistic() {
		tx.fetchFrontier(sc, mask == 0)
	} else {
		for i := range sc.items {
			sc.items[i].handled = true
		}
	}
	if err := tx.associateHandled(sc); err != nil {
		return nil, nil, err
	}
	return tx.evalFrontier(sc, mask, cons)
}

// frontierItem is one distinct vertex of the frontier being expanded.
type frontierItem struct {
	dp    fabric.DPtr // as the frontier names it
	stamp uint64      // its guard word, loaded before the first read
	buf   []byte      // the holder stream, as far as this hop needs it (arena-backed)
	need  int         // blocks of the chain this hop reads
	wire  bool        // a block came off the wire or out of the pool: needs the post-stamp check
	// handled routes the vertex through AssociateVertices; h is its handle.
	handled bool
	h       *VertexHandle
	dup     bool // resolved to a vertex an earlier item already stands for
}

// stamper is the scratch of one guard-stamp train: the primaries to stamp,
// the lock words loaded, and the by-rank grouping buffers.
type stamper struct {
	dps    []fabric.DPtr
	words  []uint64
	trains block.Trains
}

// load stamps st.dps — one atomic-load train per owner rank — and returns
// the words aligned with it.
func (st *stamper) load(tx *Tx) []uint64 {
	st.words = slices.Grow(st.words[:0], len(st.dps))[:len(st.dps)]
	tx.eng.store.LockStampsInto(tx.rank, st.dps, st.words, &st.trains)
	return st.words
}

// frontierScratch is the arena of Tx.ExpandFrontier: everything a hop needs
// per frontier vertex lives in slices that are sized once from the frontier's
// width and reused from hop to hop, so the allocations of a hop are a small
// constant — the result slices, the fabric's own word slices, and whatever of
// the arena has to grow, each grown in one step — whatever the width. It
// belongs to one transaction and is garbage once that closes: nothing of a
// hop outlives the transaction that ran it.
type frontierScratch struct {
	items []frontierItem
	index dptrTable[int32]    // distinct frontier vertex → its item
	seen  dptrTable[struct{}] // neighbors already harvested this hop
	bytes byteArena           // the holder streams
	stamper

	reads    []block.StampedRead // the round being read…
	readItem []int32             // …and the item each read belongs to
	multi    []int32             // items whose chain continues past the block just read
	fetched  []block.StampedRead // remote blocks off the wire, cacheable once their holder validates
	fetchOf  []int32             // the item each belongs to

	view holder.View
}

// reset starts a hop: it dedups frontier into sc.items (first occurrence
// wins) and recycles the arena of the previous hop, whose views are dead.
func (sc *frontierScratch) reset(frontier []fabric.DPtr) error {
	n := len(frontier)
	sc.items = slices.Grow(sc.items[:0], n)
	sc.index.reset(n)
	sc.bytes.reset()
	for _, dp := range frontier {
		if dp.IsNull() {
			return fmt.Errorf("%w: NULL vertex ID in a frontier", ErrBadArgument)
		}
		if _, dup := sc.index.getOrPut(dp, int32(len(sc.items))); !dup {
			sc.items = append(sc.items, frontierItem{dp: dp})
		}
	}
	return nil
}

// fetchFrontier is the optimistic tier's read of a whole frontier: after it,
// every item either holds a validated stream prefix in the arena — reaching
// the end of the entry region when entriesOnly, the whole chain otherwise —
// with its (vertex, version) pair in the read set, or is marked handled for
// the flush to sort out (with its retries, stub chases and replica reads).
func (tx *Tx) fetchFrontier(sc *frontierScratch, entriesOnly bool) {
	e, store, bs := tx.eng, tx.eng.store, tx.eng.cfg.BlockSize
	items := sc.items
	n := len(items)
	followers := e.repl[tx.rank].size() > 0

	sc.dps = slices.Grow(sc.dps[:0], n)
	for i := range items {
		sc.dps = append(sc.dps, items[i].dp)
	}
	words := sc.load(tx)

	// Round 0: every primary block. A guard a writer holds cannot validate,
	// and a vertex this rank follows is read from the local copy.
	sc.reads, sc.readItem = slices.Grow(sc.reads[:0], n), slices.Grow(sc.readItem[:0], n)
	sc.fetched, sc.fetchOf = sc.fetched[:0], sc.fetchOf[:0]
	sc.bytes.reserve(n * bs)
	for i := range items {
		it := &items[i]
		it.stamp = words[i]
		if locks.WriteHeld(it.stamp) {
			it.handled = true
			continue
		}
		if followers {
			if _, ok := e.repl[tx.rank].lookup(it.dp); ok {
				it.handled = true
				continue
			}
		}
		it.buf = sc.bytes.alloc(bs)
		sc.reads = append(sc.reads, block.StampedRead{DP: it.dp, Buf: it.buf, Guard: it.dp, Stamp: it.stamp})
		sc.readItem = append(sc.readItem, int32(i))
	}
	tx.readFrontierRound(sc)
	sc.multi = slices.Grow(sc.multi[:0], len(sc.readItem))
	chains := 0 // bytes of the streams that continue past their primary block
	for _, i := range sc.readItem {
		it := &items[i]
		nb := holder.NumBlocks(it.buf)
		if nb < 1 || nb > store.BlocksPerRank() || holder.IsMoved(it.buf) {
			it.handled = true // deleted, implausible, or migrated away
			continue
		}
		it.need = nb
		if entriesOnly {
			it.need = holder.EntryBlocks(it.buf, bs)
		}
		if it.need > 1 {
			sc.multi = append(sc.multi, i)
			chains += it.need * bs
		}
	}
	sc.bytes.reserve(chains)
	for _, i := range sc.multi {
		it := &items[i]
		full := sc.bytes.alloc(it.need * bs)
		copy(full, it.buf)
		it.buf = full
	}

	// Continuation rounds: block `round` of every chain that reaches it,
	// located by the table entry the previous rounds already brought in.
	for round := 1; len(sc.multi) > 0; round++ {
		sc.reads, sc.readItem = sc.reads[:0], sc.readItem[:0]
		more := sc.multi[:0]
		for _, i := range sc.multi {
			it := &items[i]
			dp := holder.TableEntry(it.buf, round-1)
			if !e.validPoolDPtr(dp) {
				it.handled = true
				continue
			}
			sc.reads = append(sc.reads, block.StampedRead{DP: dp, Buf: it.buf[round*bs : (round+1)*bs], Guard: it.dp, Stamp: it.stamp})
			sc.readItem = append(sc.readItem, i)
			if it.need > round+1 {
				more = append(more, i)
			}
		}
		sc.multi = more
		tx.readFrontierRound(sc)
	}

	// The seqlock double-check: one more stamp train over the holders that
	// read anything but validated cache copies. An unmoved guard proves the
	// read stable; a moved one hands the vertex to the flush.
	sc.dps, sc.readItem = sc.dps[:0], sc.readItem[:0]
	for i := range items {
		if it := &items[i]; it.wire && !it.handled {
			sc.dps = append(sc.dps, it.dp)
			sc.readItem = append(sc.readItem, int32(i))
		}
	}
	for k, w := range sc.load(tx) {
		if it := &items[sc.readItem[k]]; locks.Version(w) != locks.Version(it.stamp) || locks.WriteHeld(w) {
			it.handled = true
		}
	}
	accepted := sc.fetched[:0]
	for k := range sc.fetched {
		if !items[sc.fetchOf[k]].handled {
			accepted = append(accepted, sc.fetched[k])
		}
	}
	store.InstallStamped(tx.rank, accepted)

	tx.optReads = slices.Grow(tx.optReads, n)
	for i := range items {
		if it := &items[i]; !it.handled {
			tx.optReads = append(tx.optReads, optRead{it.dp, locks.Version(it.stamp)})
		}
	}
}

// readFrontierRound issues sc.reads — one GET train per owner rank for what
// the cache cannot serve — and notes what came off the wire.
func (tx *Tx) readFrontierRound(sc *frontierScratch) {
	tx.eng.store.ReadBlocksStamped(tx.rank, sc.reads, false, &sc.trains)
	cacheable := 0
	for j := range sc.reads {
		if r := &sc.reads[j]; r.Fetched {
			sc.items[sc.readItem[j]].wire = true
			if r.DP.Rank() != tx.rank {
				cacheable++
			}
		}
	}
	if cacheable == 0 {
		return
	}
	sc.fetched, sc.fetchOf = slices.Grow(sc.fetched, cacheable), slices.Grow(sc.fetchOf, cacheable)
	for j := range sc.reads {
		if r := &sc.reads[j]; r.Fetched && r.DP.Rank() != tx.rank {
			sc.fetched = append(sc.fetched, *r)
			sc.fetchOf = append(sc.fetchOf, sc.readItem[j])
		}
	}
}

// associateHandled resolves the items the lean route left to the flush, all
// in one AssociateVertices batch.
func (tx *Tx) associateHandled(sc *frontierScratch) error {
	sc.dps = sc.dps[:0]
	for i := range sc.items {
		if sc.items[i].handled {
			sc.dps = append(sc.dps, sc.items[i].dp)
		}
	}
	if len(sc.dps) == 0 {
		return nil
	}
	hs, err := tx.AssociateVertices(sc.dps)
	if err != nil {
		return err
	}
	k := 0
	for i := range sc.items {
		it := &sc.items[i]
		if !it.handled {
			continue
		}
		if it.h = hs[k]; it.h == nil {
			return fmt.Errorf("%w: frontier vertex %v no longer exists", ErrNotFound, it.dp)
		}
		k++
		// A forwarding stub resolves to the vertex's current ID, under which
		// the frontier may name it a second time: the first occurrence stands
		// for both.
		if id := it.h.ID(); id != it.dp {
			j, named := sc.index.getOrPut(id, int32(i))
			if named && int(j) < i {
				it.dup = true
				continue
			}
			if named {
				sc.items[j].dup = true
				sc.index.put(id, int32(i))
			}
		}
	}
	return nil
}

// evalFrontier filters the resolved frontier by cons and, when mask is
// non-zero, harvests the matched vertices' neighbors — on the encoded stream
// for the items the lean route read, through the handle for the others.
func (tx *Tx) evalFrontier(sc *frontierScratch, mask DirMask, cons *constraint.Constraint) (matched, next []fabric.DPtr, err error) {
	matched = make([]fabric.DPtr, 0, len(sc.items))
	sc.seen.reset(0)
	add := func(nb fabric.DPtr) {
		if _, dup := sc.seen.getOrPut(nb, struct{}{}); !dup {
			next = append(next, nb)
		}
	}
	view := &sc.view
	var cur fabric.DPtr // the vertex whose records visit is walking
	var walkErr error
	visit := func(rec holder.EdgeRec) bool {
		if !mask.matches(rec.Dir) {
			return true
		}
		nb := rec.Neighbor
		if rec.Heavy {
			// The far end of a heavy edge is in its holder (handles.go's
			// heavyNeighbor, on the view).
			es, err := tx.fetchEdgeState(nb)
			if err != nil {
				walkErr = err
				return false
			}
			if es.deleted {
				return true
			}
			if nb = es.e.Target; nb == cur || view.HasHome(nb) {
				nb = es.e.Origin
			}
		}
		add(nb)
		return true
	}
	for i := range sc.items {
		it := &sc.items[i]
		if it.dup {
			continue
		}
		if it.h != nil {
			if !it.h.Matches(cons) {
				continue
			}
			matched = append(matched, it.h.ID())
			if mask != 0 {
				if err := it.h.ForEachNeighbor(mask, add); err != nil {
					return nil, nil, err
				}
			}
			continue
		}
		err := view.Reset(it.buf)
		var ok bool
		if err == nil {
			ok, err = cons.EvalEntries(view.Entries())
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%w: holder %v: %v", ErrNotFound, it.dp, err)
		}
		tx.eng.recordHeat(tx.rank, view.AppID(), it.dp.Rank())
		if !ok {
			continue
		}
		matched = append(matched, it.dp)
		if mask == 0 {
			continue
		}
		cur = it.dp
		view.ForEachEdge(visit)
		if walkErr != nil {
			return nil, nil, walkErr
		}
		if err := view.Err(); err != nil {
			return nil, nil, fmt.Errorf("%w: holder %v: %v", ErrNotFound, it.dp, err)
		}
	}
	return matched, next, nil
}

// dptrTable is an open-addressing hash table keyed by DPtr, reset — not
// reallocated — from hop to hop: one slice however many keys, and a probe is
// a multiply and a compare. NullDPtr, which no frontier and no edge record
// carries, marks the empty slot. With V = struct{} it is a set of eight bytes
// a slot.
type dptrTable[V any] struct {
	slots []dptrSlot[V] // a power of two, at most half full
	used  int
}

type dptrSlot[V any] struct {
	key fabric.DPtr
	val V
}

// reset empties the table and makes room for n keys.
func (t *dptrTable[V]) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if size > len(t.slots) {
		t.slots = make([]dptrSlot[V], size)
	} else {
		clear(t.slots)
	}
	t.used = 0
}

// slot returns the slot holding key, or the empty one where it belongs.
func (t *dptrTable[V]) slot(key fabric.DPtr) *dptrSlot[V] {
	mask := uint64(len(t.slots) - 1)
	for i := uint64(key) * 0x9E3779B97F4A7C15 >> 32 & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == key || s.key.IsNull() {
			return s
		}
	}
}

// getOrPut returns key's value if the table holds it; otherwise it stores
// val under key and reports dup = false.
func (t *dptrTable[V]) getOrPut(key fabric.DPtr, val V) (got V, dup bool) {
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]dptrSlot[V], 2*len(old))
		for _, s := range old {
			if !s.key.IsNull() {
				*t.slot(s.key) = s
			}
		}
	}
	s := t.slot(key)
	if s.key == key {
		return s.val, true
	}
	s.key, s.val = key, val
	t.used++
	return val, false
}

// put overwrites the value of a key the table already holds.
func (t *dptrTable[V]) put(key fabric.DPtr, val V) { t.slot(key).val = val }

// byteArena carves the holder streams of a hop out of one buffer that the
// next hop reuses.
type byteArena struct {
	buf []byte
	off int // bytes of buf handed out
}

// reserve makes sure the next n bytes come out of one buffer: the current
// one if it has the room, a fresh one of exactly that size otherwise (what
// was carved from the old one stays valid; the old buffer is just not reused).
func (a *byteArena) reserve(n int) {
	if len(a.buf)-a.off < n {
		a.buf, a.off = make([]byte, n), 0
	}
}

// alloc returns n bytes, not zeroed, valid until the next reset.
func (a *byteArena) alloc(n int) []byte {
	a.reserve(n)
	a.off += n
	return a.buf[a.off-n : a.off : a.off]
}

// reset makes every byte of the current buffer available again.
func (a *byteArena) reset() { a.off = 0 }
