package core

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
)

// Matches evaluates cons against the vertex's labels and properties in
// place — no copies, no communication (a nil constraint matches).
func (h *VertexHandle) Matches(cons *constraint.Constraint) bool {
	if h.st.v != nil {
		return cons.Eval(h.st.v.Labels, h.st.v.Props)
	}
	ok, _ := cons.EvalEntries(h.st.view.Entries()) // install checked the region
	return ok
}

// ExpandFrontier is the batch expansion entry point the query layer compiles
// multi-hop traversals onto: it filters the frontier by cons and harvests the
// matched vertices' distinct neighbors under mask.
//
// matched holds the IDs of the frontier vertices that satisfy cons, deduped,
// in frontier order; next holds the union of their neighbors in
// first-encounter order (mask 0 skips the harvest: filter only, the shape a
// traversal's final hop wants, which is FilterFrontier without a limit). A
// frontier vertex that no longer exists — the read set is stale — fails the
// expansion with ErrNotFound.
//
// A frontier vertex costs its label/property bytes and no heap object. The
// hop stamps the deduped frontier in one load train per owner rank
// (stampFrontier) and reads what the stamps vouch for in one seqlock batch of
// the chain reader ("Life of a holder read" in ARCHITECTURE.md) into the
// transaction's frontier arena, reused from hop to hop. It evaluates cons in
// place on the encoded entry region, harvests neighbors straight off the
// view, and appends a (vertex, version) pair to the read set Commit
// validates. Whatever the batch did not read OK goes through
// AssociateVertices in one batch and is filtered and harvested through its
// handles: forwarding stubs, vertices a local follower copy serves, holders
// that were being written or look deleted, the vertices a transaction that
// wrote holds (so it sees its own writes and deletions), and every frontier
// of a collective read-only transaction.
func (tx *Tx) ExpandFrontier(frontier []fabric.DPtr, mask DirMask, cons *constraint.Constraint) (matched, next []fabric.DPtr, err error) {
	if mask == 0 {
		matched, err = tx.FilterFrontier(frontier, cons, 0)
		return matched, nil, err
	}
	sc, err := tx.startHop(frontier, cons)
	if sc == nil {
		return nil, nil, err
	}
	tx.stampFrontier(sc)
	tx.readPicked(sc, sc.stamped(), false)
	if err := tx.associateHandled(sc); err != nil {
		return nil, nil, err
	}
	return tx.evalFrontier(sc, mask, cons)
}

// FilterFrontier is the filter-only hop: the IDs of the frontier vertices
// that satisfy cons, deduped. With limit 0 it is ExpandFrontier with mask 0:
// every match, in frontier order. A filter-only hop reads each holder only up
// to the end of its label/property entries (holder.EntryBlocks: the primary
// block for all but mega-hubs), not its chain.
//
// A limit > 0 is a LIMIT the caller applies to the canonically sorted IDs,
// and lets the optimistic tier stop early: the result then holds the limit
// smallest matched IDs — every match when there are fewer — plus whatever
// else it met, in no particular order. The hop first resolves what the
// stamps cannot vouch for through AssociateVertices (a stub's current ID
// sorts anywhere), then reads the rest in ascending DPtr order, in chunks:
// the first of 2×limit vertices, each later one sized from the match rate so
// far. A vertex whose stamp shows neither a stub nor a writer is known by its
// DPtr before it is read, so the hop stops once limit distinct matched IDs lie
// below the smallest unread DPtr. Each unread vertex joins the read set at
// its stamped version: a migration or a write that lands on it after the
// stamp fails Commit. A collective read-only transaction reads every vertex.
func (tx *Tx) FilterFrontier(frontier []fabric.DPtr, cons *constraint.Constraint, limit int) ([]fabric.DPtr, error) {
	sc, err := tx.startHop(frontier, cons)
	if sc == nil {
		return nil, err
	}
	tx.stampFrontier(sc)
	if err := tx.associateHandled(sc); err != nil {
		return nil, err
	}
	if limit <= 0 || !tx.optimistic() {
		tx.readPicked(sc, sc.stamped(), true)
		if err := tx.associateHandled(sc); err != nil {
			return nil, err
		}
		matched, _, err := tx.evalFrontier(sc, 0, cons)
		return matched, err
	}

	// The early-stopping hop: matched is a set, since a vertex resolved late
	// may turn out to be one an earlier chunk already counted.
	var matched []fabric.DPtr
	sc.seen.reset(0)
	match := func(i int) error {
		id, ok, err := tx.evalItem(sc, i, cons)
		if ok {
			if _, dup := sc.seen.getOrPut(id, struct{}{}); !dup {
				matched = append(matched, id)
			}
		}
		return err
	}
	for i := range sc.items {
		if sc.verts[i].h != nil && !sc.verts[i].dup {
			if err := match(i); err != nil {
				return nil, err
			}
		}
	}
	rest := sc.stamped()
	read, hits := 0, 0
	for len(rest) > 0 {
		bound := sc.items[rest[0]].head
		for _, i := range rest[1:] {
			bound = min(bound, sc.items[i].head)
		}
		below := 0
		for _, id := range matched {
			if id < bound {
				below++
			}
		}
		need := limit - below
		if need <= 0 {
			break
		}
		size := 2 * limit
		if read > 0 {
			size = max(need, 2*need*read/max(hits, 1))
		}
		if size < len(rest) {
			sc.selectSmallest(rest, size)
		}
		size = min(size, len(rest))
		chunk := rest[:size]
		tx.readPicked(sc, chunk, true)
		if err := tx.associateHandled(sc); err != nil {
			return nil, err
		}
		for _, i := range chunk {
			if sc.verts[i].dup {
				continue
			}
			n := len(matched)
			if err := match(int(i)); err != nil {
				return nil, err
			}
			read++
			if len(matched) > n {
				hits++
			}
		}
		// A vertex resolved in this chunk may be one the frontier names again
		// further on; the resolution stands for it.
		rest = slices.DeleteFunc(rest[size:], func(i int32) bool { return sc.verts[i].dup })
	}
	for _, i := range rest {
		it := &sc.items[i]
		tx.optReads = append(tx.optReads, optRead{it.head, locks.Version(it.stamp)})
	}
	return matched, nil
}

// startHop checks the transaction and cons, and dedups frontier into the
// transaction's frontier arena. A nil arena means there is nothing to do: an
// empty frontier, or the error.
func (tx *Tx) startHop(frontier []fabric.DPtr, cons *constraint.Constraint) (*frontierScratch, error) {
	if len(frontier) == 0 {
		return nil, nil
	}
	if err := tx.check(); err != nil {
		return nil, err
	}
	if cons != nil && cons.Stale(tx.registry()) {
		return nil, fmt.Errorf("%w: stale constraint", ErrTxCritical)
	}
	if tx.frontier == nil {
		tx.frontier = new(frontierScratch)
	}
	if err := tx.frontier.reset(frontier); err != nil {
		return nil, err
	}
	return tx.frontier, nil
}

// frontierScratch is the arena of a frontier hop: everything a hop needs per
// frontier vertex lives in slices that are sized once from the frontier's
// width and reused from hop to hop, so the allocations of a hop are a small
// constant — the result slices, the fabric's own word slices, and whatever of
// the arena has to grow, each grown in one step — whatever the width. It
// belongs to one transaction and is garbage once that closes: nothing of a
// hop outlives the transaction that ran it.
type frontierScratch struct {
	chainReader                     // items[i] reads distinct frontier vertex i
	verts       []frontierVertex    // aligned with items
	index       dptrTable[int32]    // distinct frontier vertex → its item
	seen        dptrTable[struct{}] // neighbors harvested, or IDs matched, this hop
	view        holder.View
	pick        []int32 // items to read
	resolving   []int32 // items in the AssociateVertices batch
}

// frontierVertex is what a hop knows of a frontier vertex beyond its read.
type frontierVertex struct {
	h   *VertexHandle // its handle, when the batch did not read it OK
	dup bool          // resolved to a vertex an earlier item already stands for
}

// reset starts a hop: it dedups frontier into sc.items (first occurrence
// wins) and recycles the arena of the previous hop, whose views are dead.
func (sc *frontierScratch) reset(frontier []fabric.DPtr) error {
	n := len(frontier)
	sc.chainReader.reset(n)
	sc.verts = slices.Grow(sc.verts[:0], n)
	sc.index.reset(n)
	for _, dp := range frontier {
		if dp.IsNull() {
			return fmt.Errorf("%w: NULL vertex ID in a frontier", ErrBadArgument)
		}
		if _, dup := sc.index.getOrPut(dp, int32(len(sc.items))); !dup {
			sc.items = append(sc.items, chainItem{head: dp})
			sc.verts = append(sc.verts, frontierVertex{})
		}
	}
	return nil
}

// stampFrontier is a hop's first look at its frontier. It loads every guard
// word, one load train per owner rank, and marks the items the stamp vouches
// for readStamped: their word shows neither a stub nor a writer, so each is
// a vertex known by its DPtr. It refuses the others, a vertex this rank
// follows, whose local copy the flush reads, and, once the transaction has
// written, every vertex it holds, whose state may differ from the stored
// holder. A collective read-only transaction refuses every item: its
// frontiers go to AssociateVertices whole.
func (tx *Tx) stampFrontier(sc *frontierScratch) {
	e := tx.eng
	if !tx.optimistic() {
		for i := range sc.items {
			sc.items[i].verdict = readRefused
		}
		return
	}
	followers, wrote := tx.readsFollowers(), len(tx.dirtyList) > 0
	if followers || wrote {
		for i := range sc.items {
			head := sc.items[i].head
			refuse := wrote && tx.cached(head) != nil
			if !refuse && followers {
				_, refuse = e.repl[tx.rank].lookup(head)
			}
			if refuse {
				sc.items[i].verdict = readRefused
			}
		}
	}
	sc.stamp(e, tx.rank)
	for i := range sc.items {
		if it := &sc.items[i]; it.verdict == unread {
			it.verdict = readStamped
			if locks.Stub(it.stamp) || locks.WriteHeld(it.stamp) {
				it.verdict = readRefused
			}
		}
	}
}

// stamped lists the stamped items no earlier resolution stands for, in
// frontier order, in sc.pick.
func (sc *frontierScratch) stamped() []int32 {
	sc.pick = slices.Grow(sc.pick[:0], len(sc.items))
	for i := range sc.items {
		if sc.items[i].verdict == readStamped && !sc.verts[i].dup {
			sc.pick = append(sc.pick, int32(i))
		}
	}
	return sc.pick
}

// readPicked reads the stamped items pick lists in one seqlock batch,
// reaching the end of the entry region when entriesOnly and the whole chain
// otherwise. Each item read OK joins the read set.
func (tx *Tx) readPicked(sc *frontierScratch, pick []int32, entriesOnly bool) {
	if len(pick) == 0 {
		return
	}
	for _, i := range pick {
		sc.items[i].verdict = unread
	}
	sc.read(tx.eng, tx.rank, readSeqlock, entriesOnly, false)
	tx.optReads = slices.Grow(tx.optReads, len(pick))
	for _, i := range pick {
		if it := &sc.items[i]; it.verdict == readOK {
			tx.optReads = append(tx.optReads, optRead{it.head, locks.Version(it.stamp)})
		}
	}
}

// selectSmallest reorders pick so that its first k items are the k with the
// smallest DPtrs (0 < k < len(pick)), by quickselect: linear in len(pick),
// where sorting the frontier would cost O(n log n).
func (sc *frontierScratch) selectSmallest(pick []int32, k int) {
	head := func(j int) fabric.DPtr { return sc.items[pick[j]].head }
	for lo, hi := 0, len(pick); hi-lo > 1; {
		// Partition [lo, hi) around its middle head: [lo, lt) below it,
		// [lt, gt) the pivot (heads are distinct), [gt, hi) above.
		pivot := head(lo + (hi-lo)/2)
		lt, gt := lo, hi
		for j := lo; j < gt; {
			switch h := head(j); {
			case h < pivot:
				pick[lt], pick[j] = pick[j], pick[lt]
				lt++
				j++
			case h > pivot:
				gt--
				pick[j], pick[gt] = pick[gt], pick[j]
			default:
				j++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k > gt:
			lo = gt
		default:
			return
		}
	}
}

// associateHandled resolves every item the hop has neither read OK nor still
// to read — refused by the stamp, or not read OK — in one AssociateVertices
// batch.
func (tx *Tx) associateHandled(sc *frontierScratch) error {
	sc.resolving, sc.dps = sc.resolving[:0], sc.dps[:0]
	for i := range sc.items {
		if v := sc.items[i].verdict; v != readOK && v != readStamped && sc.verts[i].h == nil && !sc.verts[i].dup {
			sc.resolving, sc.dps = append(sc.resolving, int32(i)), append(sc.dps, sc.items[i].head)
		}
	}
	if len(sc.dps) == 0 {
		return nil
	}
	hs, err := tx.AssociateVertices(sc.dps)
	if err != nil {
		return err
	}
	for k, i := range sc.resolving {
		dp := sc.items[i].head
		h := hs[k]
		if sc.verts[i].h = h; h == nil {
			return fmt.Errorf("%w: frontier vertex %v no longer exists", ErrNotFound, dp)
		}
		// A forwarding stub resolves to the vertex's current ID, under which
		// the frontier may name it a second time: the first occurrence stands
		// for both.
		if id := h.ID(); id != dp {
			j, named := sc.index.getOrPut(id, i)
			if named && j < i {
				sc.verts[i].dup = true
				continue
			}
			if named {
				sc.verts[j].dup = true
				sc.index.put(id, i)
			}
		}
	}
	return nil
}

// evalItem filters item i by cons — through its handle, or in place on the
// entries the lean route read, leaving sc.view on its stream — and returns
// the vertex's ID.
func (tx *Tx) evalItem(sc *frontierScratch, i int, cons *constraint.Constraint) (id fabric.DPtr, ok bool, err error) {
	if h := sc.verts[i].h; h != nil {
		return h.ID(), h.Matches(cons), nil
	}
	it := &sc.items[i]
	err = sc.view.Reset(it.buf)
	if err == nil {
		ok, err = cons.EvalEntries(sc.view.Entries())
	}
	if err != nil {
		return it.head, false, fmt.Errorf("%w: holder %v: %v", ErrNotFound, it.head, err)
	}
	tx.eng.recordHeat(tx.rank, sc.view.AppID(), it.head.Rank())
	return it.head, ok, nil
}

// evalFrontier filters the resolved frontier by cons, in frontier order, and,
// when mask is non-zero, harvests the matched vertices' neighbors — on the
// encoded stream for the items the lean route read, through the handle for
// the others.
func (tx *Tx) evalFrontier(sc *frontierScratch, mask DirMask, cons *constraint.Constraint) (matched, next []fabric.DPtr, err error) {
	matched = make([]fabric.DPtr, 0, len(sc.items))
	sc.seen.reset(0)
	add := func(nb fabric.DPtr) {
		if _, dup := sc.seen.getOrPut(nb, struct{}{}); !dup {
			next = append(next, nb)
		}
	}
	view := &sc.view
	for i := range sc.items {
		if sc.verts[i].dup {
			continue
		}
		id, ok, err := tx.evalItem(sc, i, cons)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		matched = append(matched, id)
		switch h := sc.verts[i].h; {
		case mask == 0:
		case h != nil:
			if err := h.ForEachNeighbor(mask, add); err != nil {
				return nil, nil, err
			}
		default:
			c := view.Edges()
			for c.Next() {
				rec := &c.Rec
				if !mask.matches(rec.Dir) {
					continue
				}
				nb := rec.Neighbor
				if rec.Heavy {
					// The far end of a heavy edge is in its holder
					// (handles.go's heavyNeighbor, on the view).
					es, err := tx.fetchEdgeState(nb)
					if err != nil {
						return nil, nil, err
					}
					if es.deleted {
						continue
					}
					if nb = es.e.Target; nb == id || view.HasHome(nb) {
						nb = es.e.Origin
					}
				}
				add(nb)
			}
			if err := view.Err(); err != nil {
				return nil, nil, fmt.Errorf("%w: holder %v: %v", ErrNotFound, id, err)
			}
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

// home returns key's home slot: the top log2(len) bits of key·φ
// (Fibonacci hashing). The rank bits sit at 48 and up, so lower product bits
// would ignore them on a small table and give the same block offset on
// every rank one home.
func (t *dptrTable[V]) home(key fabric.DPtr) uint64 {
	return uint64(key) * 0x9E3779B97F4A7C15 >> (64 - bits.TrailingZeros(uint(len(t.slots))))
}

// slot returns the slot holding key, or the empty one where it belongs.
func (t *dptrTable[V]) slot(key fabric.DPtr) *dptrSlot[V] {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
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
