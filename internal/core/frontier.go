package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
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
// first-encounter order. Mask 0 skips the harvest: the hop only filters, and
// reads each holder only up to the end of its label/property entries, as
// FilterFrontier does, but keeps frontier order. A frontier vertex that no
// longer exists — the read set is stale — fails the expansion with
// ErrNotFound.
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
	sc, err := tx.startHop(frontier, cons)
	if sc == nil {
		return nil, nil, err
	}
	if err := tx.readFrontier(sc, mask == 0); err != nil {
		return nil, nil, err
	}
	sc.next = sc.next[:0]
	if err := tx.evalFrontier(sc, mask, cons, false); err != nil {
		return nil, nil, err
	}
	sc.seen.clear()
	return clone(sc.matched), clone(sc.next), nil
}

// FilterNeighbors is a k-hop's final round in one call: it filters frontier
// by cons, as ExpandFrontier does, harvests the matched vertices' neighbors
// under mask, less the DPtrs exclude names (the layers before the last), and
// returns what FilterFrontier(neighbors, exclude, last, limit) would. The
// harvest never lists the neighbors: it ORs each into the hop's paged bitmap
// (harvestRuns), and the last layer's hop takes its candidates off the bits
// in ascending DPtr order, as far as it reads (filterFed). Its projection, as
// FilterFrontier's, is the value of project on each ID it returns. A
// negative limit is an ErrBadArgument.
//
// With a LIMIT the harvest is resumable: a light run's neighbors ascend, so
// it decodes none of a run of pauseMin records or more, and keeps the run
// paused at its head (fedRuns). filterFed then feeds the paused runs up to a
// bound that it raises only as far as its reads need candidates, and a run
// is decoded only below it. The bound is lifted, and the harvest completed,
// when a candidate may not be known by its DPtr (vouch).
func (tx *Tx) FilterNeighbors(frontier []fabric.DPtr, cons *constraint.Constraint, mask DirMask, exclude []fabric.DPtr, last *constraint.Constraint, limit int, project lpg.PTypeID) ([]fabric.DPtr, []Projected, error) {
	if limit < 0 {
		return nil, nil, errNegativeLimit
	}
	sc, err := tx.startHop(frontier, cons)
	if sc == nil {
		return nil, nil, err
	}
	if last != nil && last.Stale(tx.registry()) {
		return nil, nil, fmt.Errorf("%w: stale constraint", ErrTxCritical)
	}
	if err := tx.readFrontier(sc, false); err != nil {
		return nil, nil, err
	}
	if limit > 0 {
		sc.fed.top, sc.fed.limit = 0, limit
	}
	if err := tx.evalFrontier(sc, mask, cons, true); err != nil {
		return nil, nil, err
	}
	sc.seen.dropAll(exclude)
	return tx.filterFed(sc, last, limit, project, exclude)
}

// DecodedRecords returns how many edge records the transaction's final
// rounds (FilterNeighbors) have decoded in their harvests so far: the
// records they fed, and each paused run's head. A LIMIT round that never
// raises its bound past the rows it returns decodes few of its layer's
// records; one without a LIMIT decodes them all.
func (tx *Tx) DecodedRecords() int {
	if tx.frontier == nil {
		return 0
	}
	return tx.frontier.fed.decoded
}

// Projected is the value of a filter hop's projected property on one ID the
// hop returns, as VertexHandle.Property returns it: Value is nil when the
// vertex lacks the property (OK false) or holds it empty.
type Projected struct {
	Value []byte
	OK    bool
}

// FilterFrontier is the filter-only hop: the IDs of the frontier vertices
// that satisfy cons, deduped. A frontier DPtr that exclude names is left
// out, as a duplicate of it would be: exclude is what a k-hop's final round
// must not report again, the layers before its last, matched by DPtr. With
// limit 0 it returns every match, in no particular order. A filter-only hop
// reads each holder only up to the end of its label/property entries
// (holder.EntryBlocks: the primary block for all but mega-hubs), not its
// chain.
//
// A limit > 0 is a LIMIT the caller applies to the canonically sorted IDs,
// and lets the hop stop early: the result then holds the limit smallest
// matched IDs — every match when there are fewer — plus whatever else it
// met, in no particular order. The hop pays for what it reads, not for the
// width of the frontier: it ORs the frontier into the hop's paged bitmap
// (dptrSet), and reads its candidates off the bits, whose order is
// ascending DPtr order (filterFed). A frontier ID that names no block of the
// pool, or a negative limit, is an ErrBadArgument.
//
// A project other than 0 (lpg.IDEmpty, which names no p-type) projects:
// the hop then also returns, aligned with the IDs, each one's value of it.
// It copies the value out of the entries it has just filtered, or, for a
// vertex it sees through a handle, out of the handle's state, so a
// transaction's own writes show. Either way the vertex is already in the
// read set, at the version whose entries it matched, and the projection
// costs no communication. The values share one buffer.
func (tx *Tx) FilterFrontier(frontier, exclude []fabric.DPtr, cons *constraint.Constraint, limit int, project lpg.PTypeID) ([]fabric.DPtr, []Projected, error) {
	if limit < 0 {
		return nil, nil, errNegativeLimit
	}
	sc, err := tx.arena(frontier, cons)
	if sc == nil {
		return nil, nil, err
	}
	for _, dp := range frontier {
		if !tx.eng.store.InPool(dp) {
			return nil, nil, errNoBlock(dp)
		}
		sc.seen.or(dp)
	}
	sc.seen.dropAll(exclude)
	return tx.filterFed(sc, cons, limit, project, exclude)
}

// errNegativeLimit is a filter hop's negative limit.
var errNegativeLimit = fmt.Errorf("%w: negative limit", ErrBadArgument)

// readFrontier stamps every candidate and reads, in one batch, each one the
// stamp vouches for: up to the end of its entries when entriesOnly, its
// whole chain otherwise. The rest are resolved through their handles.
func (tx *Tx) readFrontier(sc *frontierScratch, entriesOnly bool) error {
	tx.stampFrontier(sc)
	sc.pick = slices.Grow(sc.pick[:0], len(sc.verts))
	for i := range sc.verts {
		if sc.verts[i].verdict == readStamped {
			sc.pick = append(sc.pick, int32(i))
		}
	}
	tx.readPicked(sc, sc.pick, entriesOnly)
	return tx.associateHandled(sc)
}

// filterFed is the filter-only hop over the candidates a feed left in the
// hop's set. Every filter-only hop but ExpandFrontier's ends here. The
// candidates are read in ascending DPtr order, which is the order of the
// set's bits (fedAt): a candidate is an 8-byte DPtr until the hop stamps,
// resolves or reads it, and only then gets a record in the arena.
// A harvest that paused runs has fed only the candidates up to its bound,
// sc.fed.top, and the hop takes none above it: when it needs more, it raises
// the bound (raise) and feeds the paused runs up to the new one, until they
// are spent.
//
// The hop loads one forwarding word per owner rank (vouch), and a rank whose
// word reads 0 has never held a forwarding stub, so each of its vertices is
// known by its DPtr without a stamp. Only the vertices of the other ranks
// (and of dead ones) are stamped; those whose stamp shows a stub or a writer
// are resolved through AssociateVertices first (a stub's current ID sorts
// anywhere). The hop then reads the candidates in chunks off a cursor, each
// read loading its guard words as it goes: with limit 0 (no LIMIT) every
// candidate in one chunk; otherwise a first chunk of 2×limit candidates,
// each later one twice the last until a read vertex matches, and from then
// on sized from the match rate so far. A stub or a writer met
// there is resolved as a refused stamp is. It stops once limit distinct
// matched IDs lie below the next candidate, the smallest unread DPtr, or,
// past the last candidate fed, the bound above which a paused run may yet
// feed one (nextBound). Of what it left unread, a stamped vertex joins the
// read set at its stamped version, and the vertices of a stub-free rank as
// one entry, the rank's forwarding word at 0 (leaveUnread): the candidates
// past the cursor, and every record a paused run did not decode. A
// migration that publishes a stub on such a rank fails Commit, and so does
// one that moves a stamped unread vertex; a write that lands on a vertex
// the hop did not read does not, since the vertex's ID, which is all the
// result depends on, stays above the bound. The hop ends with one clear of
// the set, and no run paused.
//
// matched is a set, since a vertex resolved late may turn out to be one an
// earlier chunk already counted. Each matched ID's value of project is
// copied as it joins the set.
func (tx *Tx) filterFed(sc *frontierScratch, cons *constraint.Constraint, limit int, project lpg.PTypeID, exclude []fabric.DPtr) ([]fabric.DPtr, []Projected, error) {
	sc.startRecords(tx.eng)
	sc.at = fabric.NullDPtr
	if err := tx.vouch(sc, exclude); err != nil {
		return nil, nil, err
	}
	if err := tx.associateHandled(sc); err != nil {
		return nil, nil, err
	}
	// found keeps the size an earlier filter hop of the arena grew it to, so
	// that a warm hop does not regrow it.
	sc.startMatched()
	sc.found.reset(len(sc.found.slots) / 2)
	match := func(i int32) error {
		id, ok, err := tx.evalItem(sc, int(i), cons)
		if ok {
			if _, dup := sc.found.getOrPut(id, struct{}{}); !dup {
				sc.keep(int(i), id, project)
			}
		}
		return err
	}
	for i := range sc.verts {
		if sc.verts[i].h != nil && !sc.verts[i].dup {
			if err := match(int32(i)); err != nil {
				return nil, nil, err
			}
		}
	}
	bound, more := sc.nextBound()
	read, hits, size := 0, 0, 0
	for more {
		below := 0
		for _, id := range sc.matched {
			if id < bound {
				below++
			}
		}
		need := limit - below
		if limit != 0 && need <= 0 {
			break
		}
		switch {
		case limit == 0:
			size = math.MaxInt // no LIMIT: every candidate, in one chunk
		case read == 0:
			size = 2 * limit
		case hits == 0:
			// No read vertex has matched yet: a rate of one in read would
			// overshoot by read/limit.
			size *= 2
		default:
			size = max(need, 2*need*read/hits)
		}
		pick, err := sc.pickChunk(tx.eng, size, exclude)
		if err != nil {
			return nil, nil, err
		}
		bound, more = sc.nextBound()
		// Room in the read set for what the chunk reads and for the
		// forwarding words leaveUnread may add after the last one.
		tx.optReads = slices.Grow(tx.optReads, len(pick)+len(sc.stubFree))
		tx.readPicked(sc, pick, true)
		if err := tx.associateHandled(sc); err != nil {
			return nil, nil, err
		}
		for _, i := range pick {
			if sc.verts[i].dup {
				continue
			}
			n := len(sc.matched)
			if err := match(i); err != nil {
				return nil, nil, err
			}
			read++
			if len(sc.matched) > n {
				hits++
			}
		}
	}
	tx.leaveUnread(sc)
	sc.seen.clear()
	sc.fed.reset()
	return clone(sc.matched), sc.projected(project), nil
}

// arena checks the transaction and cons, and returns the transaction's
// frontier arena, which its first hop takes from the pool, with an empty
// set and no feed: a hop that failed leaves both as it stopped. A nil arena
// means there is nothing to do: an empty frontier, or the error.
func (tx *Tx) arena(frontier []fabric.DPtr, cons *constraint.Constraint) (*frontierScratch, error) {
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
	tx.frontier.seen.clear()
	tx.frontier.fed.reset()
	return tx.frontier, nil
}

// startHop takes the arena and gathers the frontier into sc.cands. A nil
// arena means there is nothing to do: an empty frontier, or the error.
func (tx *Tx) startHop(frontier []fabric.DPtr, cons *constraint.Constraint) (*frontierScratch, error) {
	sc, err := tx.arena(frontier, cons)
	if sc == nil {
		return nil, err
	}
	if err := sc.gather(tx.eng, frontier); err != nil {
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
	// cands holds the distinct DPtrs of an expanding hop's frontier, in
	// frontier order (gather); a filter hop's candidates are fed instead.
	cands []fabric.DPtr
	verts []frontierVertex // the records: every candidate's, or a filter hop's few
	// index maps a vertex ID to its record, for the resolutions that name a
	// vertex under another ID than its frontier entry (forwarding stubs) and
	// for a filter hop's stamped candidates: built on first use in a hop
	// (indexRecords).
	index   dptrTable[int32]
	indexed bool
	// seen dedups the frontier, then the neighbors harvested: listed in
	// next, or, fed, the candidates of a filter hop, read off its bits.
	seen      dptrSet
	at        fabric.DPtr         // a filter hop's cursor: the candidates below it are picked
	found     dptrTable[struct{}] // a filter hop's matched IDs
	view      holder.View
	pick      []int32 // vertices to read
	resolving []int32 // vertices in the AssociateVertices batch
	// stubFree is, per rank, a filter hop's view of its stubs: its forwarding
	// word read 0, so its candidates are known by their DPtrs and have no
	// record until they are picked.
	stubFree []bool
	// fed is a fed harvest's bound and the runs it paused there. They alias
	// the streams of the layer it harvested, so while any is paused, a read
	// carves its streams in behind those rather than over them (readPicked).
	fed fedRuns
	// The hop's results, built here and copied out (clone, projected):
	// nothing of the arena aliases what a hop returns. A fed hop lists
	// nothing in next; matched is then the filter hop's, deduped in found.
	// A projecting hop's values are aligned with matched: value k is
	// vals[spans[k-1].end:spans[k].end].
	matched, next []fabric.DPtr
	vals          []byte
	spans         []valSpan
}

// valSpan is where a projected value ends in the arena's vals, and whether
// its vertex has the property.
type valSpan struct {
	end uint32
	ok  bool
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
	clear(sc.fed.paused)
	sc.view = holder.View{}
	sc.fed.decoded = 0
	select {
	case e.frontiers <- sc:
	default:
	}
}

// footprint is the arena's size in bytes: the capacity of every slice it
// keeps.
func (sc *frontierScratch) footprint() int {
	r := &sc.chainReader
	hop := arrayBytes(sc.cands) + arrayBytes(sc.verts) + arrayBytes(sc.index.slots) + arrayBytes(sc.seen.pages) +
		arrayBytes(sc.seen.order) + arrayBytes(sc.seen.index.slots) + arrayBytes(sc.found.slots) + arrayBytes(sc.pick) + arrayBytes(sc.resolving) +
		arrayBytes(sc.stubFree) + arrayBytes(sc.fed.paused) + arrayBytes(sc.matched) + arrayBytes(sc.next) + arrayBytes(sc.vals) +
		arrayBytes(sc.spans)
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

// gather starts an expanding hop on e, which reads every candidate: it
// dedups frontier into sc.cands (first occurrence wins). A frontier ID that
// names no block of the pool is an ErrBadArgument.
func (sc *frontierScratch) gather(e *Engine, frontier []fabric.DPtr) error {
	sc.startRecords(e)
	for _, dp := range frontier {
		if !e.store.InPool(dp) {
			return errNoBlock(dp)
		}
	}
	sc.cands = sc.seen.addRun(append(sc.cands[:0], frontier...))
	sc.seen.clear()
	return nil
}

// startRecords recycles the records of the previous hop, whose views are
// dead, for a hop on e.
func (sc *frontierScratch) startRecords(e *Engine) {
	n := e.fab.Size()
	sc.stubFree = slices.Grow(sc.stubFree[:0], n)[:n]
	clear(sc.stubFree)
	sc.verts = reuse(sc.verts)
	sc.indexed = false
}

// fedAt returns the smallest candidate at or after the cursor; ok is false
// when there is none, or, while a run is paused, none at most the feed's
// bound, sc.fed.top.
func (sc *frontierScratch) fedAt() (dp fabric.DPtr, ok bool) {
	dp, ok = sc.seen.next(sc.at)
	if !ok || dp > sc.fed.top && len(sc.fed.paused) > 0 {
		return fabric.NullDPtr, false
	}
	return dp, true
}

// nextBound returns the smallest candidate past the cursor or, when every
// one fed so far is picked and runs are paused, the smallest one they may
// yet feed, top+1; more is false when there is none.
func (sc *frontierScratch) nextBound() (bound fabric.DPtr, more bool) {
	if dp, ok := sc.fedAt(); ok {
		return dp, true
	}
	if len(sc.fed.paused) > 0 {
		return sc.fed.top + 1, true
	}
	return fabric.NullDPtr, false
}

// fedOn reports whether a candidate at or after from lies on rank.
func (sc *frontierScratch) fedOn(rank int, from fabric.DPtr) bool {
	dp, ok := sc.seen.next(max(from, fabric.MakeDPtr(fabric.Rank(rank), 0)))
	return ok && int(dp.Rank()) == rank
}

// stampFrontier is the first look of an expanding hop: each candidate
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

// vouch is a filter hop's first look at its candidates. It loads the
// forwarding word of every live rank that owns one, or may own a record of a
// paused run, one load per rank: a rank whose word reads 0 has never held a
// forwarding stub, so its candidates are known by their DPtrs
// (block.ForwardingWord). Only when some such rank is dead or not stub-free,
// or the transaction must see vertices through handles (refuses), does it
// walk the candidates one by one. Such a candidate's ID may sort anywhere,
// so the harvest first feeds every paused run to its end. Then a refused
// candidate, and every one of a rank not stub-free, leaves the set for a
// record; the latter are stamped (stampRecords), and those the stamp vouches
// for rejoin the set. A candidate that names no block of the pool fails the
// hop before any of them is stamped.
func (tx *Tx) vouch(sc *frontierScratch, exclude []fabric.DPtr) error {
	e := tx.eng
	r := &sc.chainReader
	r.dps = r.dps[:0]
	stamping := false
	paused := sc.fed.lowestRank(len(sc.stubFree))
	for rank := range sc.stubFree {
		switch {
		case rank < paused && !sc.fedOn(rank, fabric.NullDPtr):
		case e.isDead(fabric.Rank(rank)):
			stamping = true
		default:
			r.dps = append(r.dps, block.ForwardingGuard(fabric.Rank(rank)))
		}
	}
	for k, w := range r.load(e, tx.rank) {
		sc.stubFree[r.dps[k].Rank()] = w == 0
		stamping = stamping || w != 0
	}
	followers, wrote := tx.readsFollowers(), len(tx.dirtyList) > 0
	if !stamping && !followers && !wrote {
		return nil
	}
	if err := sc.raiseTo(maxDPtr, exclude); err != nil {
		return err
	}
	var bad error
	record := func(dp fabric.DPtr) bool {
		switch {
		case bad != nil:
		case !e.store.InPool(dp):
			bad = errOffPool(dp)
		case tx.refuses(dp, followers, wrote):
			sc.verts = append(sc.verts, frontierVertex{head: dp, verdict: readRefused})
		case !sc.stubFree[dp.Rank()]:
			sc.verts = append(sc.verts, frontierVertex{head: dp})
		default:
			return false
		}
		return true
	}
	sc.seen.dropFunc(record)
	if bad != nil {
		return bad
	}
	tx.stampRecords(sc)
	for i := range sc.verts {
		if v := &sc.verts[i]; v.verdict == readStamped {
			sc.seen.or(v.head)
		}
	}
	return nil
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

// pickChunk takes the next size candidates off the cursor and lists in
// sc.pick their records: a stamped candidate's record, and a new one,
// unstamped, for a candidate of a stub-free rank. It skips a candidate that
// a resolution already stands for. Past the last candidate fed, it raises
// the feed's bound until one is fed or no run is paused. A candidate that
// names no block of the pool, which only a corrupt edge record can feed,
// fails the hop: it may be the largest DPtr, past which the cursor cannot
// move.
func (sc *frontierScratch) pickChunk(e *Engine, size int, exclude []fabric.DPtr) ([]int32, error) {
	sc.pick = sc.pick[:0]
	for range size {
		dp, ok := sc.fedAt()
		for !ok && len(sc.fed.paused) > 0 {
			if err := sc.raise(e, exclude); err != nil {
				return nil, err
			}
			dp, ok = sc.fedAt()
		}
		if !ok {
			break
		}
		if !e.store.InPool(dp) {
			return nil, errOffPool(dp)
		}
		sc.at = dp + 1
		if !sc.stubFree[dp.Rank()] {
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
	return sc.pick, nil
}

// errOffPool is the error of a hop fed a candidate that names no block of
// the pool, which only a corrupt edge record can feed.
func errOffPool(dp fabric.DPtr) error {
	return fmt.Errorf("%w: an edge record names %v, no block of the pool", ErrNotFound, dp)
}

// leaveUnread puts what a filter hop left unread into the read set: a stamped
// record at its stamped version, and the candidates of a stub-free rank
// past the cursor as one entry, the rank's forwarding word at 0. A paused
// run's records lie at or above its head, so every rank from the lowest
// head's on may hold some.
func (tx *Tx) leaveUnread(sc *frontierScratch) {
	for i := range sc.verts {
		if v := &sc.verts[i]; v.verdict == readStamped && !v.dup {
			tx.optReads = append(tx.optReads, optRead{v.head, locks.Version(v.stamp)})
		}
	}
	paused := sc.fed.lowestRank(len(sc.stubFree))
	for rank, free := range sc.stubFree {
		if free && (rank >= paused || sc.fedOn(rank, sc.at)) {
			tx.optReads = append(tx.optReads, optRead{block.ForwardingGuard(fabric.Rank(rank)), 0})
		}
	}
}

// readPicked reads the stamped vertices pick lists in one seqlock batch,
// reaching the end of the entry region when entriesOnly and the whole chain
// otherwise, under the stamps the stamp train loaded; the head round loads
// the stamps of unstamped vertices. The batch recycles the streams of the
// last one, whose vertices have been evaluated, unless paused runs alias
// them: it then carves its streams in behind. Each vertex read OK joins the
// read set.
func (tx *Tx) readPicked(sc *frontierScratch, pick []int32, entriesOnly bool) {
	if len(pick) == 0 {
		return
	}
	r := &sc.chainReader
	r.items = slices.Grow(reuse(r.items), len(pick))
	if len(sc.fed.paused) == 0 {
		r.bytes.reset()
	}
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
// once it is, a filter hop's new records join it as they are made.
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

// evalFrontier filters the resolved frontier by cons into sc.matched, in
// frontier order, and, when mask is non-zero, harvests the matched vertices'
// neighbors a run at a time into the hop's set (harvestRuns): on the encoded
// stream for the vertices the lean route read, over the state's records for
// the others. The harvest lists its new keys in sc.next, or, fed, lists
// none and feeds the set up to the bound sc.fed.top; the caller ends the
// set's use.
func (tx *Tx) evalFrontier(sc *frontierScratch, mask DirMask, cons *constraint.Constraint, feed bool) (err error) {
	sc.startMatched()
	view := &sc.view
	var fed *fedRuns
	if feed {
		fed = &sc.fed
	}
	for i := range sc.verts {
		if sc.verts[i].dup {
			continue
		}
		id, ok, err := tx.evalItem(sc, i, cons)
		if err != nil {
			return err
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
		if sc.next, err = harvestRuns(&c, deg, mask, &sc.seen, sc.next, fed, far); err != nil {
			if c.Err() != nil {
				err = fmt.Errorf("%w: holder %v: %v", ErrNotFound, id, err)
			}
			return err
		}
	}
	return nil
}

// startMatched empties the hop's results before it filters.
func (sc *frontierScratch) startMatched() {
	sc.matched, sc.vals, sc.spans = sc.matched[:0], sc.vals[:0], sc.spans[:0]
}

// keep adds id, vertex i's, to the hop's matched IDs and, when project is
// not 0, its value of project to sc.vals: off the state of its handle, if
// it has one, or else off the entries evalItem just left sc.view on.
func (sc *frontierScratch) keep(i int, id fabric.DPtr, project lpg.PTypeID) {
	sc.matched = append(sc.matched, id)
	if project == 0 {
		return
	}
	var region []byte
	if h := sc.verts[i].h; h != nil {
		region = h.st.entryRegion()
	} else {
		region = sc.view.Entries()
	}
	val, ok := propertyIn(region, project)
	sc.vals = append(sc.vals, val...)
	sc.spans = append(sc.spans, valSpan{uint32(len(sc.vals)), ok})
}

// projected copies the hop's projected values out of the arena, all into one
// buffer: nil when project is 0.
func (sc *frontierScratch) projected(project lpg.PTypeID) []Projected {
	if project == 0 {
		return nil
	}
	out := make([]Projected, len(sc.spans))
	buf := append([]byte(nil), sc.vals...)
	start := uint32(0)
	for k, s := range sc.spans {
		if s.end > start {
			out[k].Value = buf[start:s.end:s.end]
		}
		out[k].OK, start = s.ok, s.end
	}
	return out
}

// clone copies s out of the arena: nil when s is empty.
func clone(s []fabric.DPtr) []fabric.DPtr { return append([]fabric.DPtr(nil), s...) }

// harvestRuns adds to seen the neighbors under mask of the records c walks,
// at most deg of them. Unfed, it appends to next, in record order, the keys
// seen did not hold yet; fed (fed not nil), it ORs the keys in and lists
// none. It walks a run at a time. Unfed, a light run that mask selects is
// decoded by StepRun straight into the tail of next, which is then cut back
// in place to the new keys (the first occurrence wins). Fed, a light run is
// fed up to the bound fed.top, and one of pauseMin records or more that
// stops at a neighbor above it joins fed.paused (fedRuns.feed), and, when it
// is the walk's last run, ends the walk unread; a shorter one is fed whole.
// A heavy run goes record by record, each record's neighbor being the far
// end far resolves from its edge holder (ok false: a deleted edge, which
// yields nothing). A run mask drops is passed over. It stops at the first
// error: far's, or the corruption the walk met (c.Err), and returns next as
// far as it got.
func harvestRuns(c *holder.EdgeCursor, deg int, mask DirMask, seen *dptrSet, next []fabric.DPtr, fed *fedRuns, far func(fabric.DPtr) (nb fabric.DPtr, ok bool, err error)) ([]fabric.DPtr, error) {
	feed := fed != nil
	if !feed {
		// The cursor yields at most deg records, so with this much room the
		// tail always has space for the rest of a run.
		next = slices.Grow(next, deg)
	}
	for c.NextRun() {
		if !mask.matches(c.Rec.Dir) {
			continue // NextRun passes over the rest of the run
		}
		if c.Rec.Heavy {
			for ok := true; ok; ok = c.Step() {
				if feed {
					fed.decoded++
				}
				nb, kept, err := far(c.Rec.Neighbor)
				switch {
				case err != nil:
					return next, err
				case !kept:
				case feed:
					seen.or(nb)
				case seen.add(nb):
					next = append(next, nb)
				}
			}
			continue
		}
		if feed {
			top := fed.top
			if 1+c.RunLeft() < pauseMin {
				top = maxDPtr
			}
			fed.decoded++
			if fed.feed(c, seen, top) {
				fed.paused = append(fed.paused, c.RestOfRun())
				if c.LastRun() {
					break // the rest of the run is the paused cursor's to read
				}
			}
			continue
		}
		tail := len(next)
		next = append(next, c.Rec.Neighbor)
		for n := c.StepRun(next[len(next):cap(next)]); n > 0; n = c.StepRun(next[len(next):cap(next)]) {
			next = next[:len(next)+n]
		}
		next = next[:tail+len(seen.addRun(next[tail:]))]
	}
	return next, c.Err()
}

// maxDPtr is the bound of a feed that bounds nothing.
const maxDPtr = fabric.DPtr(math.MaxUint64)

// pauseMin is the shortest light run a bounded feed pauses: a shorter one is
// fed whole, since its pause and resumption would cost more than decoding
// it.
const pauseMin = 8

// fedRuns is the state of a fed harvest that is resumable. Every record of
// the layer it harvested whose neighbor is at most top has been fed; so has
// every record of a heavy run or of a light run shorter than pauseMin. Each
// longer light run that met a neighbor above top is paused: a cursor over
// the rest of the run (holder.EdgeCursor.RestOfRun), whose Rec, the run's
// head, is that neighbor, decoded but not fed, and every record behind it
// lies at or above it. A paused cursor aliases the stream the hop read its
// run from, and records corruption on itself. A feed with top maxDPtr, the
// default, pauses nothing: it is the full harvest.
type fedRuns struct {
	top    fabric.DPtr
	paused []holder.EdgeCursor
	// The bound's place in the block order of the pool (rank·BlocksPerRank
	// + offset): top is the last DPtr below lo + span, and each raise
	// doubles span. limit sizes the first span.
	lo, span uint64
	limit    int
	// decoded counts the edge records the transaction's fed harvests have
	// decoded, paused heads included (Tx.DecodedRecords).
	decoded int
}

// reset ends whatever feed the last hop left: no run is paused, and the
// next harvest feeds to no bound unless its hop sets one.
func (f *fedRuns) reset() {
	f.paused = reuse(f.paused)
	f.top, f.lo, f.span, f.limit = maxDPtr, 0, 0, 0
}

// feed feeds the light run c stands at, from its head c.Rec on, up to top:
// it adds each neighbor at most top (dptrSet.addRun), and reports whether
// the run stopped at one above top, which c then holds as its head.
func (f *fedRuns) feed(c *holder.EdgeCursor, seen *dptrSet, top fabric.DPtr) bool {
	if c.Rec.Neighbor > top {
		return true
	}
	var nbrs [64]fabric.DPtr
	nbrs[0] = c.Rec.Neighbor
	for k := 1; ; k = 0 {
		n, over := c.StepUpTo(nbrs[k:], top)
		k += n
		f.decoded += n
		seen.addRun(nbrs[:k])
		if over {
			f.decoded++
			return true
		}
		if k < len(nbrs) {
			return false
		}
	}
}

// raiseTo feeds every paused run up to top, and drops the runs it spends. It
// stops at a run's corruption.
func (f *fedRuns) raiseTo(top fabric.DPtr, seen *dptrSet) error {
	f.top = top
	kept := f.paused[:0]
	for i := range f.paused {
		c := &f.paused[i]
		paused := f.feed(c, seen, top)
		if err := c.Err(); err != nil {
			return err
		}
		if paused {
			kept = append(kept, *c)
		}
	}
	clear(f.paused[len(kept):])
	f.paused = kept
	return nil
}

// lowestRank returns the rank of the lowest paused head, or n when no run is
// paused: a paused run's records lie on that rank or above.
func (f *fedRuns) lowestRank(n int) int {
	for i := range f.paused {
		n = min(n, int(f.paused[i].Rec.Neighbor.Rank()))
	}
	return n
}

// raise raises the feed's bound on e's pool and feeds the paused runs up to
// it. The first bound spans 2×limit blocks from the lowest head on: a vertex
// takes a block at least, so no fewer can hold the first chunk's 2×limit
// candidates. Each later raise doubles the span, and past the pool's last
// block lifts the bound.
func (sc *frontierScratch) raise(e *Engine, exclude []fabric.DPtr) error {
	f := &sc.fed
	per := uint64(e.store.BlocksPerRank())
	end := uint64(e.fab.Size()) * per
	if f.span == 0 {
		f.lo, f.span = end, uint64(2*f.limit)
		for i := range f.paused {
			head := f.paused[i].Rec.Neighbor
			f.lo = min(f.lo, uint64(head.Rank())*per+head.Off())
		}
	} else {
		f.span *= 2
	}
	top := maxDPtr
	if p := f.lo + f.span; p < end {
		top = fabric.MakeDPtr(fabric.Rank(p/per), p%per) - 1
	}
	return sc.raiseTo(top, exclude)
}

// raiseTo feeds the paused runs up to top, and drops exclude's keys, which
// the feed may have added again.
func (sc *frontierScratch) raiseTo(top fabric.DPtr, exclude []fabric.DPtr) error {
	if err := sc.fed.raiseTo(top, &sc.seen); err != nil {
		return fmt.Errorf("%w: a paused edge run: %v", ErrNotFound, err)
	}
	sc.seen.dropAll(exclude)
	return nil
}

// dptrSet is the set of DPtrs a hop dedups against: a bitmap over the DPtr
// space, whose bit order is DPtr order, kept in pages of 512 bits (64 bytes)
// that exist only where a key falls, so that a use costs the pages its keys
// fall on, not the pool's size. A page is found through a table
// keyed by its number + 1: page 0, which holds NullDPtr, would collide with
// the table's empty key. The set reads its keys back in ascending order
// (next, dropFunc) off its list of pages, which it sorts when asked; a page
// added after that below the list's last marks it unsorted again. A use
// ends with clear; one that fails leaves its keys to the next hop's start
// (Tx.arena), which clears them.
type dptrSet struct {
	pages  []setPage
	order  []pageRef        // one per page; sorted by page number when sorted is set
	index  dptrTable[int32] // page number + 1 → the page's index in pages
	sorted bool
	at     int // the entry of order at which next last stopped
}

// pageShift is the log2 of the set's bits per page. A key alone on its page,
// as when a hop's keys spread over many ranks, costs the page, two table
// slots (the table is at most half full) and a list entry: 112 bytes at 512
// bits. Pages of 4 096 bits expanded two hops up to 8 % faster on 4 ranks,
// but on 2 048 ranks their 512 bytes a key pushed the arena past its pool
// budget (pooledFrontierBytes).
const pageShift = 9

type setPage [1 << pageShift / 64]uint64

// pageRef names page pages[i], the page of the keys whose DPtr >> pageShift
// is num.
type pageRef struct {
	num uint64
	i   int32
}

// page returns page num, which it adds, empty, if the set has none.
func (s *dptrSet) page(num uint64) *setPage {
	i, dup := s.index.getOrPut(fabric.DPtr(num+1), int32(len(s.pages)))
	if !dup {
		s.sorted = s.sorted && (len(s.order) == 0 || s.order[len(s.order)-1].num < num)
		s.pages = append(s.pages, setPage{})
		s.order = append(s.order, pageRef{num, i})
	}
	return &s.pages[i]
}

// word returns the word of key's bit, on a page it adds if the set has
// none, and the bit's mask.
func (s *dptrSet) word(key fabric.DPtr) (*uint64, uint64) {
	b := uint64(key) & (1<<pageShift - 1)
	return &s.page(uint64(key) >> pageShift)[b/64], 1 << (b % 64)
}

// add adds key and reports whether it was new.
func (s *dptrSet) add(key fabric.DPtr) bool {
	w, m := s.word(key)
	if *w&m != 0 {
		return false
	}
	*w |= m
	return true
}

// or adds key.
func (s *dptrSet) or(key fabric.DPtr) {
	w, m := s.word(key)
	*w |= m
}

// addRun adds keys and cuts them back in place to those that were new (the
// first occurrence wins). It looks a page up only where the keys leave the
// last one, and keeps the page and its number in registers while they stay
// on it: for ascending keys, a run's neighbors, once a page.
func (s *dptrSet) addRun(keys []fabric.DPtr) []fabric.DPtr {
	num, pg := uint64(math.MaxUint64), (*setPage)(nil)
	kept := keys[:0]
	for _, key := range keys {
		if uint64(key)>>pageShift != num {
			num = uint64(key) >> pageShift
			pg = s.page(num)
		}
		b := uint64(key) & (1<<pageShift - 1)
		if w, m := &pg[b/64], uint64(1)<<(b%64); *w&m == 0 {
			*w |= m
			kept = append(kept, key)
		}
	}
	return kept
}

// drop removes key.
func (s *dptrSet) drop(key fabric.DPtr) {
	if i, ok := s.index.get(fabric.DPtr(uint64(key)>>pageShift + 1)); ok {
		b := uint64(key) & (1<<pageShift - 1)
		s.pages[i][b/64] &^= 1 << (b % 64)
	}
}

// dropAll removes keys.
func (s *dptrSet) dropAll(keys []fabric.DPtr) {
	for _, key := range keys {
		s.drop(key)
	}
}

// sort sorts the list of pages, unless it is sorted.
func (s *dptrSet) sort() {
	if !s.sorted {
		slices.SortFunc(s.order, func(a, b pageRef) int { return cmp.Compare(a.num, b.num) })
		s.sorted = true
	}
}

// next returns the smallest key at or after from; ok is false when there is
// none. It resumes its walk of the sorted pages at the one where it last
// stopped, unless from lies before it, so that calls with ascending from
// walk each page once.
func (s *dptrSet) next(from fabric.DPtr) (key fabric.DPtr, ok bool) {
	s.sort()
	num := uint64(from) >> pageShift
	k := s.at
	if k >= len(s.order) || s.order[k].num > num {
		k, _ = slices.BinarySearchFunc(s.order, num, func(r pageRef, num uint64) int { return cmp.Compare(r.num, num) })
	}
	for ; k < len(s.order); k++ {
		r := s.order[k]
		b := uint64(0)
		switch {
		case r.num < num:
			continue
		case r.num == num:
			b = uint64(from) & (1<<pageShift - 1)
		}
		if b, ok := s.pages[r.i].next(b); ok {
			s.at = k
			return fabric.DPtr(r.num<<pageShift | b), true
		}
	}
	s.at = k
	return fabric.NullDPtr, false
}

// next returns the first set bit of the page at or after bit b.
func (pg *setPage) next(b uint64) (uint64, bool) {
	w := b / 64
	word := pg[w] &^ (1<<(b%64) - 1)
	for word == 0 {
		if w++; w == uint64(len(pg)) {
			return 0, false
		}
		word = pg[w]
	}
	return w*64 + uint64(bits.TrailingZeros64(word)), true
}

// dropFunc calls drop for every key, in ascending order, and removes those
// it reports true for.
func (s *dptrSet) dropFunc(drop func(fabric.DPtr) bool) {
	s.sort()
	for _, r := range s.order {
		pg := &s.pages[r.i]
		for w := range pg {
			for word := pg[w]; word != 0; word &= word - 1 {
				b := uint64(bits.TrailingZeros64(word))
				if drop(fabric.DPtr(r.num<<pageShift | uint64(w)*64 + b)) {
					pg[w] &^= 1 << b
				}
			}
		}
	}
}

// clear empties the set, in time linear in its pages, not in its table's
// size: it finds the slot of every page before it empties any, since an
// emptied slot cuts the probe path through it, and keeps each one's index in
// its pageRef, which it no longer needs.
func (s *dptrSet) clear() {
	for k, r := range s.order {
		s.order[k].i = int32(s.index.find(fabric.DPtr(r.num + 1)))
	}
	for _, r := range s.order {
		s.index.slots[r.i] = dptrSlot[int32]{}
	}
	s.index.used = 0
	s.pages, s.order, s.sorted, s.at = s.pages[:0], s.order[:0], true, 0
}

// dptrTable is an open-addressing hash table keyed by DPtr, reset — not
// reallocated — from use to use: one slice however many keys, and a probe is
// a multiply and a compare. NullDPtr, which no frontier and no edge record
// carries, marks the empty slot. With V = struct{} it is a set of eight bytes
// a slot. A zero table takes its first slots at its first getOrPut.
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

// find returns the index of the slot holding key, or of the empty one where
// it belongs.
func (t *dptrTable[V]) find(key fabric.DPtr) uint64 {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == key || s.key.IsNull() {
			return i
		}
	}
}

// slot returns the slot holding key, or the empty one where it belongs.
func (t *dptrTable[V]) slot(key fabric.DPtr) *dptrSlot[V] { return &t.slots[t.find(key)] }

// getOrPut returns key's value if the table holds it; otherwise it stores
// val under key and reports dup = false.
func (t *dptrTable[V]) getOrPut(key fabric.DPtr, val V) (got V, dup bool) {
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]dptrSlot[V], max(16, 2*len(old)))
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
