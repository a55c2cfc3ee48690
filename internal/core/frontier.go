package core

import (
	"fmt"
	"slices"

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
// A frontier vertex costs its label/property bytes and no heap object. On the
// optimistic tier the hop reads the deduped frontier in one seqlock batch of
// the chain reader ("Life of a holder read" in ARCHITECTURE.md) into the
// transaction's frontier arena, reused from hop to hop. A filter-only hop
// reads only the blocks that reach the end of the entry region — the primary
// block for all but mega-hubs — not the chain. The hop evaluates cons in place
// on the encoded entry region, harvests neighbors straight off the view, and
// appends a (vertex, version) pair to the read set Commit revalidates.
// Whatever the batch did not read OK goes through AssociateVertices in one
// batch and is filtered and harvested through its handles: forwarding stubs,
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
		tx.readFrontier(sc, mask == 0)
	} else {
		for i := range sc.items {
			sc.items[i].verdict = readRefused
		}
	}
	if err := tx.associateHandled(sc); err != nil {
		return nil, nil, err
	}
	return tx.evalFrontier(sc, mask, cons)
}

// frontierScratch is the arena of Tx.ExpandFrontier: everything a hop needs
// per frontier vertex lives in slices that are sized once from the frontier's
// width and reused from hop to hop, so the allocations of a hop are a small
// constant — the result slices, the fabric's own word slices, and whatever of
// the arena has to grow, each grown in one step — whatever the width. It
// belongs to one transaction and is garbage once that closes: nothing of a
// hop outlives the transaction that ran it.
type frontierScratch struct {
	chainReader                     // items[i] reads distinct frontier vertex i
	verts       []frontierVertex    // aligned with items
	index       dptrTable[int32]    // distinct frontier vertex → its item
	seen        dptrTable[struct{}] // neighbors already harvested this hop
	view        holder.View
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

// readFrontier is the optimistic tier's read of a whole frontier: one seqlock
// batch, reaching the end of the entry region when entriesOnly and the whole
// chain otherwise. A vertex this rank follows is left to the flush, which
// reads the local copy. Each item read OK joins the read set.
func (tx *Tx) readFrontier(sc *frontierScratch, entriesOnly bool) {
	e := tx.eng
	if e.repl[tx.rank].size() > 0 {
		for i := range sc.items {
			if _, ok := e.repl[tx.rank].lookup(sc.items[i].head); ok {
				sc.items[i].verdict = readRefused
			}
		}
	}
	sc.stamp(e, tx.rank)
	sc.read(e, tx.rank, readSeqlock, entriesOnly, false)
	tx.optReads = slices.Grow(tx.optReads, len(sc.items))
	for i := range sc.items {
		if it := &sc.items[i]; it.verdict == readOK {
			tx.optReads = append(tx.optReads, optRead{it.head, locks.Version(it.stamp)})
		}
	}
}

// associateHandled resolves the items the lean route left to the flush, all
// in one AssociateVertices batch.
func (tx *Tx) associateHandled(sc *frontierScratch) error {
	sc.dps = sc.dps[:0]
	for i := range sc.items {
		if sc.items[i].verdict != readOK {
			sc.dps = append(sc.dps, sc.items[i].head)
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
		dp := sc.items[i].head
		if sc.items[i].verdict == readOK {
			continue
		}
		h := hs[k]
		if sc.verts[i].h = h; h == nil {
			return fmt.Errorf("%w: frontier vertex %v no longer exists", ErrNotFound, dp)
		}
		k++
		// A forwarding stub resolves to the vertex's current ID, under which
		// the frontier may name it a second time: the first occurrence stands
		// for both.
		if id := h.ID(); id != dp {
			j, named := sc.index.getOrPut(id, int32(i))
			if named && int(j) < i {
				sc.verts[i].dup = true
				continue
			}
			if named {
				sc.verts[j].dup = true
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
		if sc.verts[i].dup {
			continue
		}
		if h := sc.verts[i].h; h != nil {
			if !h.Matches(cons) {
				continue
			}
			matched = append(matched, h.ID())
			if mask != 0 {
				if err := h.ForEachNeighbor(mask, add); err != nil {
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
			return nil, nil, fmt.Errorf("%w: holder %v: %v", ErrNotFound, it.head, err)
		}
		tx.eng.recordHeat(tx.rank, view.AppID(), it.head.Rank())
		if !ok {
			continue
		}
		matched = append(matched, it.head)
		if mask == 0 {
			continue
		}
		cur = it.head
		view.ForEachEdge(visit)
		if walkErr != nil {
			return nil, nil, walkErr
		}
		if err := view.Err(); err != nil {
			return nil, nil, fmt.Errorf("%w: holder %v: %v", ErrNotFound, it.head, err)
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
