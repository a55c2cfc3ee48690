package core

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
)

// Matches evaluates cons against the vertex's labels and properties in
// place — no copies, no communication (a nil constraint matches).
func (h *VertexHandle) Matches(cons *constraint.Constraint) bool {
	ok, _ := cons.EvalEntries(h.st.entryRegion()) // install checked the region, the mutators keep it well formed
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
// the chain reader ("Life of a holder read" in ARCHITECTURE.md) into a
// pooled frontier arena, which the transaction keeps from its first hop to
// its close. It evaluates cons in place on the encoded entry region,
// harvests neighbors straight off the view a run at a time (harvestRuns),
// and appends a (vertex, version) pair to the read set Commit validates.
// Whatever the batch did not read OK goes through AssociateVertices in one
// batch and is filtered and harvested through its handles: forwarding stubs,
// vertices a local follower copy serves, holders that were being written or
// look deleted, and the vertices a transaction that wrote holds (so it sees
// its own writes and deletions). matched and next are the caller's: nothing
// of the arena aliases them.
func (tx *Tx) ExpandFrontier(frontier []fabric.DPtr, mask DirMask, cons *constraint.Constraint) (matched, next []fabric.DPtr, err error) {
	if mask == 0 {
		matched, err = tx.FilterFrontier(frontier, nil, cons, 0)
		return matched, nil, err
	}
	sc, err := tx.startHop(frontier, nil, cons)
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
// that satisfy cons, deduped. A frontier DPtr that exclude names is left
// out, as a duplicate of it would be: exclude is what a k-hop's final round
// must not report again, the layers before its last, matched by DPtr. With
// limit 0 it is ExpandFrontier with mask 0 over what exclude leaves: every
// match, in frontier order. A filter-only hop reads each holder only up to
// the end of its label/property entries (holder.EntryBlocks: the primary
// block for all but mega-hubs), not its chain.
//
// A limit > 0 is a LIMIT the caller applies to the canonically sorted IDs,
// and lets the hop stop early: the result then holds the limit smallest
// matched IDs — every match when there are fewer — plus whatever else it
// met, in no particular order. The hop pays for what it reads, not for the
// width of the frontier. A frontier vertex is an 8-byte candidate, its DPtr,
// until the hop stamps, resolves or reads it; only then does it get a
// record in the arena. The hop loads one forwarding word per owner rank
// (vouch), and a rank whose word reads 0 has never held a forwarding stub,
// so each of its vertices is known by its DPtr without a stamp. Only the
// vertices of the other ranks (and of dead ones) are stamped; those whose
// stamp shows a stub or a writer are resolved through AssociateVertices
// first (a stub's current ID sorts anywhere). The hop then reads the
// candidates in ascending DPtr order, in chunks that a quickselect over the
// candidates cuts off their front: the first of 2×limit vertices, each later
// one sized from the match rate so far, each read loading its guard words as
// it goes; a stub or a writer met there is resolved as a refused stamp is.
// It stops once limit distinct matched IDs lie below the smallest unread
// DPtr. Of what it left unread, a stamped vertex joins the read set at its
// stamped version, and the vertices of a stub-free rank as one entry, the
// rank's forwarding word at 0 (leaveUnread). A migration that publishes a
// stub on such a rank fails Commit, and so does one that moves a stamped
// unread vertex; a write that lands on a vertex the hop did not read does
// not, since the vertex's ID, which is all the result depends on, stays
// above the bound.
func (tx *Tx) FilterFrontier(frontier, exclude []fabric.DPtr, cons *constraint.Constraint, limit int) ([]fabric.DPtr, error) {
	sc, err := tx.startHop(frontier, exclude, cons)
	if sc == nil {
		return nil, err
	}
	if limit > 0 {
		return tx.filterEarly(sc, cons, limit)
	}
	tx.stampFrontier(sc)
	if err := tx.associateHandled(sc); err != nil {
		return nil, err
	}
	tx.readPicked(sc, sc.stamped(), true)
	if err := tx.associateHandled(sc); err != nil {
		return nil, err
	}
	matched, _, err := tx.evalFrontier(sc, 0, cons)
	return matched, err
}

// filterEarly is FilterFrontier's early-stopping hop over the candidates
// startHop gathered. matched is a set, since a vertex resolved late may turn
// out to be one an earlier chunk already counted.
func (tx *Tx) filterEarly(sc *frontierScratch, cons *constraint.Constraint, limit int) ([]fabric.DPtr, error) {
	tx.vouch(sc)
	if err := tx.associateHandled(sc); err != nil {
		return nil, err
	}
	sc.matched = sc.matched[:0]
	sc.seen.begin(tx.eng)
	match := func(i int32) error {
		id, ok, err := tx.evalItem(sc, int(i), cons)
		if ok && sc.seen.add(id) {
			sc.matched = append(sc.matched, id)
		}
		return err
	}
	for i := range sc.verts {
		if sc.verts[i].h != nil && !sc.verts[i].dup {
			if err := match(int32(i)); err != nil {
				return nil, err
			}
		}
	}
	// rest is the candidates not read yet, and bound the smallest of them:
	// every selection leaves it behind its chunk. Before the first one only
	// a resolved match can lie below it.
	rest := sc.cands
	var bound fabric.DPtr
	if len(sc.matched) > 0 && len(rest) > 0 {
		bound = slices.Min(rest)
	}
	read, hits := 0, 0
	for len(rest) > 0 {
		below := 0
		for _, id := range sc.matched {
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
			bound = selectSmallest(rest, size)
		} else {
			size = len(rest)
		}
		pick := sc.pickChunk(rest[:size])
		rest = rest[size:]
		tx.readPicked(sc, pick, true)
		if err := tx.associateHandled(sc); err != nil {
			return nil, err
		}
		for _, i := range pick {
			if sc.verts[i].dup {
				continue
			}
			n := len(sc.matched)
			if err := match(i); err != nil {
				return nil, err
			}
			read++
			if len(sc.matched) > n {
				hits++
			}
		}
	}
	sc.seen.end(sc.matched)
	tx.leaveUnread(sc)
	return clone(sc.matched), nil
}

// startHop checks the transaction and cons, and gathers the frontier into
// the transaction's frontier arena, which its first hop takes from the pool.
// A nil arena means there is nothing to do: no candidate, or the error.
func (tx *Tx) startHop(frontier, exclude []fabric.DPtr, cons *constraint.Constraint) (*frontierScratch, error) {
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
		tx.frontier = tx.eng.takeFrontier()
	}
	sc := tx.frontier
	if err := sc.gather(tx.eng, frontier, exclude); err != nil || len(sc.cands) == 0 {
		return nil, err
	}
	return sc, nil
}

// frontierScratch is the arena of a frontier hop: everything a hop needs per
// frontier vertex lives in slices that grow to the widest hop they served and
// are reused from hop to hop and, through the engine's pool, from
// transaction to transaction, so the allocations of a hop are its results
// and whatever of the arena has to grow, each grown in one step, whatever
// the width. A transaction holds it from its first hop to its close, which
// returns it to the pool (release); nothing of a hop outlives that but the
// results, which are the caller's. Unlike the flush's reader, its byte arena
// is pooled with it: a hop's streams back only the arena's own view.
type frontierScratch struct {
	// The chain reader's items are the vertices the current read walks:
	// item verts[i].item is vertex i, while its verdict says it was read.
	chainReader
	// cands holds the distinct frontier DPtrs the hop reports on, in
	// frontier order; a LIMIT hop reorders them as it picks its chunks.
	cands []fabric.DPtr
	verts []frontierVertex // the records: every candidate's, or a LIMIT hop's few
	// index maps a vertex ID to its record, for the resolutions that name a
	// vertex under another ID than its frontier entry (forwarding stubs) and
	// for a LIMIT hop's stamped candidates: built on first use in a hop
	// (indexRecords).
	index     dptrTable[int32]
	indexed   bool
	seen      dptrSet // the frontier while it is deduped; then the neighbors harvested, or IDs matched
	view      holder.View
	pick      []int32    // vertices to read
	resolving []int32    // vertices in the AssociateVertices batch
	ranks     []rankView // per rank: its candidates, and a LIMIT hop's view of its stubs
	// The hop's results, built here and copied out (clone): nothing of the
	// arena aliases what a hop returns.
	matched, next []fabric.DPtr
}

// frontierVertex is the record of a frontier vertex the hop stamps,
// resolves or reads: 32 bytes.
type frontierVertex struct {
	head    fabric.DPtr
	stamp   uint64        // its guard word, as the stamp train loaded it
	h       *VertexHandle // its handle, when the batch did not read it OK
	item    int32         // its item in the chain reader's last read
	verdict verdict       // readStamped once stamped and vouched for; then the read's verdict
	dup     bool          // resolved to a vertex an earlier one already stands for
	// unstamped: vouched for by its rank's forwarding word, not by a stamp;
	// the read loads its stamp in its head round.
	unstamped bool
}

// rankView is what a hop knows of one rank.
type rankView struct {
	unread int32 // its candidates a LIMIT hop has not picked
	// stubFree: its forwarding word read 0, so its candidates are known by
	// their DPtrs and have no record until they are picked.
	stubFree bool
}

// The frontier pool's retention budget: at most frontierPoolSlots idle arenas
// (Engine.frontiers), each of at most pooledFrontierBytes by its footprint,
// 2 MiB in all. The budget, not the concurrency, sets the slot count: a
// transaction that finds the pool empty makes an arena, and one that finds it
// full, or has grown its arena past its share, leaves it to the collector.
// The pool is a buffered channel rather than a sync.Pool so that the budget
// is a bound: a sync.Pool keeps any number of idle objects through a
// collection.
const (
	frontierPoolSlots   = 2
	pooledFrontierBytes = 1 << 20
)

// takeFrontier takes an arena from the pool, or makes one.
func (e *Engine) takeFrontier() *frontierScratch {
	select {
	case sc := <-e.frontiers:
		return sc
	default:
		return new(frontierScratch)
	}
}

// release drops everything the arena points to outside itself — the
// handles of the last hop's resolutions — and every pointer into its
// streams, and returns it to the pool if it is within budget and the pool
// has room. Each hop empties the slices that point into streams or states
// through reuse, so what the last hop left, their lengths, is all there is to
// clear: a one-vertex hop clears one vertex, whatever hop the arena served
// before.
func (sc *frontierScratch) release(e *Engine) {
	if sc.footprint() > pooledFrontierBytes {
		return
	}
	clear(sc.verts)
	clear(sc.items)
	clear(sc.reads)
	clear(sc.fetched)
	clear(sc.bufs)
	sc.view = holder.View{}
	select {
	case e.frontiers <- sc:
	default:
	}
}

// footprint is the arena's size in bytes: the capacity of every slice it
// keeps.
func (sc *frontierScratch) footprint() int {
	r := &sc.chainReader
	hop := arrayBytes(sc.cands) + arrayBytes(sc.verts) + arrayBytes(sc.index.slots) + arrayBytes(sc.seen.bits) +
		arrayBytes(sc.seen.spill.slots) + arrayBytes(sc.pick) + arrayBytes(sc.resolving) +
		arrayBytes(sc.ranks) + arrayBytes(sc.matched) + arrayBytes(sc.next)
	reader := arrayBytes(r.items) + arrayBytes(r.bytes.buf) + arrayBytes(r.heads) + arrayBytes(r.batch) +
		arrayBytes(r.reads) + arrayBytes(r.readOf) + arrayBytes(r.walking) + arrayBytes(r.fetched) +
		arrayBytes(r.dps) + arrayBytes(r.bufs) + arrayBytes(r.words) + r.trains.Footprint()
	return hop + reader
}

// arrayBytes is the size of s's backing array.
func arrayBytes[S ~[]E, E any](s S) int {
	var e E
	return cap(s) * int(unsafe.Sizeof(e))
}

// gather starts a hop on e: it dedups frontier into sc.cands (first
// occurrence wins), leaving out what exclude names, counts each rank's
// candidates, and recycles the records of the previous hop, whose views are
// dead.
func (sc *frontierScratch) gather(e *Engine, frontier, exclude []fabric.DPtr) error {
	n := e.fab.Size()
	sc.ranks = slices.Grow(sc.ranks[:0], n)[:n]
	clear(sc.ranks)
	sc.cands = slices.Grow(sc.cands[:0], len(frontier))
	sc.verts = reuse(sc.verts)
	sc.indexed = false
	sc.seen.begin(e)
	for _, dp := range exclude {
		sc.seen.add(dp)
	}
	for _, dp := range frontier {
		if dp.IsNull() {
			return fmt.Errorf("%w: NULL vertex ID in a frontier", ErrBadArgument)
		}
		if sc.seen.add(dp) {
			sc.cands = append(sc.cands, dp)
			sc.ranks[dp.Rank()].unread++
		}
	}
	// Empty the set again for the hop's harvest, or its matches.
	for _, dp := range exclude {
		sc.seen.drop(dp)
	}
	sc.seen.end(sc.cands)
	return nil
}

// stampFrontier is the first look of a hop that reads every candidate: each
// gets a record, refused if the transaction must see it through a handle
// (refuses), and is stamped (stampRecords).
func (tx *Tx) stampFrontier(sc *frontierScratch) {
	followers, wrote := tx.readsFollowers(), len(tx.dirtyList) > 0
	sc.verts = slices.Grow(sc.verts, len(sc.cands))
	for _, dp := range sc.cands {
		v := frontierVertex{head: dp}
		if tx.refuses(dp, followers, wrote) {
			v.verdict = readRefused
		}
		sc.verts = append(sc.verts, v)
	}
	tx.stampRecords(sc)
}

// vouch is a LIMIT hop's first look at its candidates. It loads the
// forwarding word of every live rank that owns one, one load per rank: a
// rank whose word reads 0 has never held a forwarding stub, so its
// candidates are known by their DPtrs (block.ForwardingWord). Only when some
// rank is not stub-free, or the transaction must see vertices through
// handles (refuses), does it look at the candidates one by one: a refused
// one, and every one of a rank not stub-free, leaves the candidates for a
// record; the latter are stamped (stampRecords), and those the stamp vouches
// for rejoin the candidates.
func (tx *Tx) vouch(sc *frontierScratch) {
	e := tx.eng
	r := &sc.chainReader
	r.dps = r.dps[:0]
	for rank, rv := range sc.ranks {
		if rv.unread > 0 && !e.isDead(fabric.Rank(rank)) {
			r.dps = append(r.dps, block.ForwardingGuard(fabric.Rank(rank)))
		}
	}
	for k, w := range r.load(e, tx.rank) {
		sc.ranks[r.dps[k].Rank()].stubFree = w == 0
	}
	stamping := slices.ContainsFunc(sc.ranks, func(rv rankView) bool { return rv.unread > 0 && !rv.stubFree })
	followers, wrote := tx.readsFollowers(), len(tx.dirtyList) > 0
	if !stamping && !followers && !wrote {
		return
	}
	kept := 0
	for _, dp := range sc.cands {
		switch {
		case tx.refuses(dp, followers, wrote):
			sc.verts = append(sc.verts, frontierVertex{head: dp, verdict: readRefused})
		case !sc.ranks[dp.Rank()].stubFree:
			sc.verts = append(sc.verts, frontierVertex{head: dp})
		default:
			sc.cands[kept] = dp
			kept++
			continue
		}
		sc.ranks[dp.Rank()].unread--
	}
	sc.cands = sc.cands[:kept]
	tx.stampRecords(sc)
	for i := range sc.verts {
		if v := &sc.verts[i]; v.verdict == readStamped {
			sc.cands = append(sc.cands, v.head)
			sc.ranks[v.head.Rank()].unread++
		}
	}
}

// refuses reports whether a hop must see dp through a handle rather than
// read it: a vertex this rank follows (followers), whose local copy the
// flush reads, and, once the transaction has written (wrote), every vertex
// it holds, whose state may differ from the stored holder.
func (tx *Tx) refuses(dp fabric.DPtr, followers, wrote bool) bool {
	if wrote && tx.cached(dp) != nil {
		return true
	}
	if followers {
		_, follows := tx.eng.repl[tx.rank].lookup(dp)
		return follows
	}
	return false
}

// stampRecords loads the guard word of every record not refused yet, one
// load train per owner rank, and marks the records the stamp vouches for
// readStamped: their word shows neither a stub nor a writer, so each is a
// vertex known by its DPtr. It refuses the others.
func (tx *Tx) stampRecords(sc *frontierScratch) {
	r := &sc.chainReader
	r.dps = slices.Grow(r.dps[:0], len(sc.verts))
	for i := range sc.verts {
		if sc.verts[i].verdict == unread {
			r.dps = append(r.dps, sc.verts[i].head)
		}
	}
	words := r.load(tx.eng, tx.rank)
	for i := range sc.verts {
		if v := &sc.verts[i]; v.verdict == unread {
			v.stamp, words = words[0], words[1:]
			v.verdict = readStamped
			if locks.Stub(v.stamp) || locks.WriteHeld(v.stamp) {
				v.verdict = readRefused
			}
		}
	}
}

// stamped lists the stamped records no earlier resolution stands for, in
// frontier order, in sc.pick.
func (sc *frontierScratch) stamped() []int32 {
	sc.pick = slices.Grow(sc.pick[:0], len(sc.verts))
	for i := range sc.verts {
		if sc.verts[i].verdict == readStamped && !sc.verts[i].dup {
			sc.pick = append(sc.pick, int32(i))
		}
	}
	return sc.pick
}

// pickChunk lists in sc.pick the records of the candidates of a LIMIT hop's
// chunk: a stamped candidate's record, and a new one, unstamped, for a
// candidate of a stub-free rank. It skips a candidate that a resolution
// already stands for.
func (sc *frontierScratch) pickChunk(chunk []fabric.DPtr) []int32 {
	sc.pick = sc.pick[:0]
	for _, dp := range chunk {
		rv := &sc.ranks[dp.Rank()]
		rv.unread--
		if !rv.stubFree {
			sc.indexRecords()
			if i, _ := sc.index.get(dp); sc.verts[i].head == dp && !sc.verts[i].dup {
				sc.pick = append(sc.pick, i)
			}
			continue
		}
		i := int32(len(sc.verts))
		if sc.indexed {
			if _, named := sc.index.getOrPut(dp, i); named {
				continue
			}
		}
		sc.verts = append(sc.verts, frontierVertex{head: dp, verdict: readStamped, unstamped: true})
		sc.pick = append(sc.pick, i)
	}
	return sc.pick
}

// leaveUnread puts what a LIMIT hop left unread into the read set: a stamped
// record at its stamped version, and the candidates of a stub-free rank as
// one entry, the rank's forwarding word at 0.
func (tx *Tx) leaveUnread(sc *frontierScratch) {
	for i := range sc.verts {
		if v := &sc.verts[i]; v.verdict == readStamped && !v.dup {
			tx.optReads = append(tx.optReads, optRead{v.head, locks.Version(v.stamp)})
		}
	}
	for rank, rv := range sc.ranks {
		if rv.stubFree && rv.unread > 0 {
			tx.optReads = append(tx.optReads, optRead{block.ForwardingGuard(fabric.Rank(rank)), 0})
		}
	}
}

// readPicked reads the stamped vertices pick lists in one seqlock batch,
// reaching the end of the entry region when entriesOnly and the whole chain
// otherwise, under the stamps the stamp train loaded; the head round loads
// the stamps of unstamped vertices. The batch recycles the streams of the
// last one, whose vertices have been evaluated. Each vertex read OK joins the
// read set.
func (tx *Tx) readPicked(sc *frontierScratch, pick []int32, entriesOnly bool) {
	if len(pick) == 0 {
		return
	}
	r := &sc.chainReader
	r.reset(len(pick))
	for _, i := range pick {
		v := &sc.verts[i]
		v.item = int32(len(r.items))
		r.items = append(r.items, chainItem{head: v.head, stamp: v.stamp, stamped: !v.unstamped})
	}
	r.read(tx.eng, tx.rank, readSeqlock, entriesOnly, false)
	tx.optReads = slices.Grow(tx.optReads, len(pick))
	for _, i := range pick {
		v, it := &sc.verts[i], &r.items[sc.verts[i].item]
		if v.stamp, v.verdict = it.stamp, it.verdict; v.verdict == readOK {
			tx.optReads = append(tx.optReads, optRead{v.head, locks.Version(v.stamp)})
		}
	}
}

// selectSmallest reorders s so that its first k DPtrs are its k smallest
// (0 < k < len(s); s holds no DPtr twice) and returns the smallest of the
// others, by quickselect: linear in len(s), where sorting would cost
// O(n log n).
func selectSmallest(s []fabric.DPtr, k int) fabric.DPtr {
	// Everything in s[:lo] lies below s[lo:hi], which lies below s[hi:],
	// whose smallest is s[hi].
	lo, hi := 0, len(s)
	for lo < k && k < hi {
		// Partition [lo, hi) around its middle DPtr: [lo, lt) below it,
		// [lt, gt) the pivot, [gt, hi) above.
		pivot := s[lo+(hi-lo)/2]
		lt, gt := lo, hi
		for j := lo; j < gt; {
			switch h := s[j]; {
			case h < pivot:
				s[lt], s[j] = s[j], s[lt]
				lt++
				j++
			case h > pivot:
				gt--
				s[j], s[gt] = s[gt], s[j]
			default:
				j++
			}
		}
		if k <= lt {
			hi = lt
		} else {
			lo = gt
		}
	}
	if k == hi {
		return s[hi]
	}
	return slices.Min(s[k:hi])
}

// associateHandled resolves every vertex the hop has neither read OK nor
// still to read — refused by the stamp, or not read OK — in one
// AssociateVertices batch.
func (tx *Tx) associateHandled(sc *frontierScratch) error {
	sc.resolving, sc.dps = sc.resolving[:0], sc.dps[:0]
	for i := range sc.verts {
		if v := &sc.verts[i]; v.verdict != readOK && v.verdict != readStamped && v.h == nil && !v.dup {
			sc.resolving, sc.dps = append(sc.resolving, int32(i)), append(sc.dps, v.head)
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
		dp := sc.verts[i].head
		h := hs[k]
		if sc.verts[i].h = h; h == nil {
			return fmt.Errorf("%w: frontier vertex %v no longer exists", ErrNotFound, dp)
		}
		// A forwarding stub resolves to the vertex's current ID, under which
		// the frontier may name it a second time: the first occurrence stands
		// for both.
		if id := h.ID(); id != dp {
			sc.indexRecords()
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

// indexRecords builds the index over the hop's records, unless it is built:
// once it is, a LIMIT hop's new records join it as they are made.
func (sc *frontierScratch) indexRecords() {
	if sc.indexed {
		return
	}
	sc.index.reset(len(sc.verts))
	for j := range sc.verts {
		sc.index.getOrPut(sc.verts[j].head, int32(j))
	}
	sc.indexed = true
}

// evalItem filters vertex i by cons — through its handle, or in place on the
// entries the lean route read, leaving sc.view on its stream — and returns
// the vertex's ID.
func (tx *Tx) evalItem(sc *frontierScratch, i int, cons *constraint.Constraint) (id fabric.DPtr, ok bool, err error) {
	v := &sc.verts[i]
	if v.h != nil {
		return v.h.ID(), v.h.Matches(cons), nil
	}
	err = sc.view.Reset(sc.items[v.item].buf)
	if err == nil {
		ok, err = cons.EvalEntries(sc.view.Entries())
	}
	if err != nil {
		return v.head, false, fmt.Errorf("%w: holder %v: %v", ErrNotFound, v.head, err)
	}
	tx.eng.recordHeat(tx.rank, sc.view.AppID(), v.head.Rank())
	return v.head, ok, nil
}

// evalFrontier filters the resolved frontier by cons, in frontier order, and,
// when mask is non-zero, harvests the matched vertices' neighbors a run at a
// time (harvestRuns): on the encoded stream for the vertices the lean route
// read, over the state's records for the others. Both lists are built in
// the arena and copied out, each in one allocation of its exact size.
func (tx *Tx) evalFrontier(sc *frontierScratch, mask DirMask, cons *constraint.Constraint) (matched, next []fabric.DPtr, err error) {
	sc.matched, sc.next = sc.matched[:0], sc.next[:0]
	if mask != 0 {
		sc.seen.begin(tx.eng)
	}
	view := &sc.view
	for i := range sc.verts {
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
		sc.matched = append(sc.matched, id)
		if mask == 0 {
			continue
		}
		// A vertex with a handle is walked in its state, the transaction's
		// own writes included; the others on their streams.
		var c holder.EdgeCursor
		deg, is := 0, func(dp fabric.DPtr) bool { return dp == id || view.HasHome(dp) }
		if h := sc.verts[i].h; h != nil {
			c, deg, is = h.st.edges(), h.st.degree(), h.st.isIdentity
		} else {
			c, deg = view.Edges(), view.EdgeCap()
		}
		far := func(hp fabric.DPtr) (fabric.DPtr, bool, error) {
			nb, e, err := tx.farEnd(hp, is)
			return nb, e != nil, err
		}
		if sc.next, err = harvestRuns(&c, deg, mask, &sc.seen, sc.next, far); err != nil {
			if c.Err() != nil {
				err = fmt.Errorf("%w: holder %v: %v", ErrNotFound, id, err)
			}
			return nil, nil, err
		}
	}
	if mask != 0 {
		sc.seen.end(sc.next)
	}
	return clone(sc.matched), clone(sc.next), nil
}

// clone copies s out of the arena: nil when s is empty.
func clone(s []fabric.DPtr) []fabric.DPtr { return append([]fabric.DPtr(nil), s...) }

// harvestRuns appends to next the neighbors under mask of the records c
// walks, at most deg of them, that seen does not hold yet, in record order,
// and adds them to seen. It walks a run at a time: a light run that mask
// selects is decoded by StepRun straight into the tail of next, which is then
// deduped in place against seen (the first occurrence wins); a heavy run goes
// record by record, each record's neighbor being the far end far resolves
// from its edge holder (ok false: a deleted edge, which yields nothing). A
// run mask drops is skipped. It stops at the first error: far's, or the
// corruption the walk met (c.Err), and returns next as far as it got.
func harvestRuns(c *holder.EdgeCursor, deg int, mask DirMask, seen *dptrSet, next []fabric.DPtr, far func(fabric.DPtr) (nb fabric.DPtr, ok bool, err error)) ([]fabric.DPtr, error) {
	// The cursor yields at most deg records, so with this much room the tail
	// always has space for the rest of a run.
	next = slices.Grow(next, deg)
	for c.NextRun() {
		if !mask.matches(c.Rec.Dir) {
			continue // NextRun skips the rest of the run
		}
		if c.Rec.Heavy {
			for ok := true; ok; ok = c.Step() {
				nb, kept, err := far(c.Rec.Neighbor)
				if err != nil {
					return next, err
				}
				if kept && seen.add(nb) {
					next = append(next, nb)
				}
			}
			continue
		}
		tail := len(next)
		next = append(next, c.Rec.Neighbor)
		for n := c.StepRun(next[len(next):cap(next)]); n > 0; n = c.StepRun(next[len(next):cap(next)]) {
			next = next[:len(next)+n]
		}
		kept := tail
		for _, nb := range next[tail:] {
			if seen.add(nb) {
				next[kept] = nb
				kept++
			}
		}
		next = next[:kept]
	}
	return next, c.Err()
}

// dptrSet is the set of DPtrs a hop dedups against: one bit per pool block
// of every rank — a test and a set on a bitmap that stays in cache, however
// many keys — and a hash table for the keys off the pool, or for every key
// on an engine whose bitmap would pass setBitsMax. A user brackets its keys
// with begin and end, and end clears just the bits of the keys it names: a
// one-key use costs one bit, whatever the pool's size. A use that ends
// without end (an error) leaves the set dirty, and the next begin clears it
// whole.
type dptrSet struct {
	bits   []uint64 // bit rank·blocks + offset
	blocks uint64   // the pool blocks per rank the bits are laid out for; 0: no bitmap
	ranks  int
	spill  dptrTable[struct{}]
	null   bool // NullDPtr, off the bitmap, is in the set: the table cannot hold it
	dirty  bool
}

// setBitsMax bounds a bitmap: 128 KiB, for pools of up to 2^20 blocks over
// all ranks (512 MiB of 512-byte blocks). A larger pool dedups in the table.
const setBitsMax = 1 << 20

// begin starts a use. A fresh set lays its bitmap out for e's pool first.
func (s *dptrSet) begin(e *Engine) {
	if s.ranks == 0 {
		blocks, ranks := uint64(e.store.BlocksPerRank()), e.fab.Size()
		if n := blocks * uint64(ranks); n <= setBitsMax {
			s.bits, s.blocks = make([]uint64, (n+63)/64), blocks
		}
		s.ranks = ranks
	} else if s.dirty {
		clear(s.bits)
	}
	s.spill.reset(0)
	s.null, s.dirty = false, true
}

// bit returns the word and mask of key's bit; ok is false for a key the
// bitmap does not cover.
func (s *dptrSet) bit(key fabric.DPtr) (w *uint64, m uint64, ok bool) {
	off, r := key.Off(), uint64(key.Rank())
	if off >= s.blocks || r >= uint64(s.ranks) {
		return nil, 0, false
	}
	i := r*s.blocks + off
	return &s.bits[i/64], 1 << (i % 64), true
}

// add adds key and reports whether it was new.
func (s *dptrSet) add(key fabric.DPtr) bool {
	if w, m, ok := s.bit(key); ok {
		if *w&m != 0 {
			return false
		}
		*w |= m
		return true
	}
	if key.IsNull() {
		added := !s.null
		s.null = true
		return added
	}
	_, dup := s.spill.getOrPut(key, struct{}{})
	return !dup
}

// drop removes key from the bitmap; the table empties at the next begin.
func (s *dptrSet) drop(key fabric.DPtr) {
	if w, m, ok := s.bit(key); ok {
		*w &^= m
	}
}

// end ends a use whose keys are keys (plus any already dropped): the set is
// empty again.
func (s *dptrSet) end(keys []fabric.DPtr) {
	for _, k := range keys {
		s.drop(k)
	}
	s.dirty = false
}

// dptrTable is an open-addressing hash table keyed by DPtr, reset — not
// reallocated — from use to use: one slice however many keys, and a probe is
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

// reset empties the table and makes room for n keys. It clears only the
// slots this use spans: a small use after a large one stays small.
func (t *dptrTable[V]) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if size > cap(t.slots) {
		t.slots = make([]dptrSlot[V], size)
	} else {
		t.slots = t.slots[:size]
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

// get returns key's value, and whether the table holds it.
func (t *dptrTable[V]) get(key fabric.DPtr) (V, bool) {
	s := t.slot(key)
	return s.val, s.key == key
}

// put overwrites the value of a key the table already holds.
func (t *dptrTable[V]) put(key fabric.DPtr, val V) { t.slot(key).val = val }
