package core

import (
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
	sc.seen.begin(tx.eng)
	if err := tx.evalFrontier(sc, mask, cons, false); err != nil {
		return nil, nil, err
	}
	sc.seen.end(sc.next)
	return clone(sc.matched), clone(sc.next), nil
}

// FilterNeighbors is a k-hop's final round in one call: it filters frontier
// by cons, as ExpandFrontier does, harvests the matched vertices' neighbors
// under mask, less the DPtrs exclude names (the layers before the last), and
// returns what FilterFrontier(neighbors, exclude, last, limit) would. The
// harvest never lists the neighbors: it ORs each into the hop's bitmap
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
	sc.beginFeed(tx.eng, exclude)
	if limit > 0 {
		sc.fed.top, sc.fed.limit = 0, limit
	}
	if err := tx.evalFrontier(sc, mask, cons, true); err != nil {
		return nil, nil, err
	}
	sc.endFeed(exclude)
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
// width of the frontier: it ORs the frontier into the hop's bitmap, one bit
// per pool block of every rank, and reads its candidates off the bits, whose
// order is ascending DPtr order (filterFed). A negative limit is an
// ErrBadArgument.
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
	sc.beginFeed(tx.eng, exclude)
	for _, dp := range frontier {
		if dp.IsNull() {
			return nil, nil, errNullFrontier
		}
		sc.feed(dp)
	}
	sc.endFeed(exclude)
	return tx.filterFed(sc, cons, limit, project, exclude)
}

// errNullFrontier is a frontier that names NullDPtr.
var errNullFrontier = fmt.Errorf("%w: NULL vertex ID in a frontier", ErrBadArgument)

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
// hop's set: the bits of the bitmap and, for keys off it, the list sc.next.
// Every filter-only hop but ExpandFrontier's ends here. The candidates are
// read in ascending DPtr order, which is the order of the bits, the list
// sorted and merged in (fedAt): a candidate is an 8-byte DPtr until the hop
// stamps, resolves or reads it, and only then gets a record in the arena.
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
// the bitmap words the feed touched, and no run paused.
//
// matched is a set, since a vertex resolved late may turn out to be one an
// earlier chunk already counted. Each matched ID's value of project is
// copied as it joins the set.
func (tx *Tx) filterFed(sc *frontierScratch, cons *constraint.Constraint, limit int, project lpg.PTypeID, exclude []fabric.DPtr) ([]fabric.DPtr, []Projected, error) {
	sc.startRecords(tx.eng)
	sc.at = fedCursor{}
	if err := tx.vouch(sc, exclude); err != nil {
		return nil, nil, err
	}
	slices.Sort(sc.next)
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
	sc.seen.clearSpan()
	sc.fed.reset()
	return clone(sc.matched), sc.projected(project), nil
}

// arena checks the transaction and cons, and returns the transaction's
// frontier arena, which its first hop takes from the pool. A nil arena means
// there is nothing to do: an empty frontier, or the error.
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
	// seen dedups the frontier, then holds the neighbors harvested: listed
	// in next, or fed, the candidates of the last layer (beginFeed).
	seen      dptrSet
	at        fedCursor           // a filter hop's cursor: the candidates before it are picked
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
	// nothing of the arena aliases what a hop returns. A fed hop lists in
	// next only the neighbors off the bitmap; matched is then the filter
	// hop's, deduped in found. A projecting hop's values are aligned with
	// matched: value k is vals[spans[k-1].end:spans[k].end].
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
	hop := arrayBytes(sc.cands) + arrayBytes(sc.verts) + arrayBytes(sc.index.slots) + arrayBytes(sc.seen.bits) +
		arrayBytes(sc.seen.spill.slots) + arrayBytes(sc.found.slots) + arrayBytes(sc.pick) + arrayBytes(sc.resolving) +
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
// dedups frontier into sc.cands (first occurrence wins).
func (sc *frontierScratch) gather(e *Engine, frontier []fabric.DPtr) error {
	sc.startRecords(e)
	sc.cands = slices.Grow(sc.cands[:0], len(frontier))
	sc.seen.begin(e)
	for _, dp := range frontier {
		if dp.IsNull() {
			return errNullFrontier
		}
		if sc.seen.add(dp) {
			sc.cands = append(sc.cands, dp)
		}
	}
	sc.seen.end(sc.cands)
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

// beginFeed starts a feed of the hop's set, less what exclude names:
// exclude's keys enter the set first, so that the feed does not list those
// off the bitmap, and endFeed drops those on it.
func (sc *frontierScratch) beginFeed(e *Engine, exclude []fabric.DPtr) {
	sc.seen.begin(e)
	sc.next = sc.next[:0]
	for _, dp := range exclude {
		sc.seen.add(dp)
	}
}

// feed adds a candidate to the hop's set: its bit, or, off the bitmap, an
// entry in the table and in the list sc.next, unless the table holds it.
func (sc *frontierScratch) feed(dp fabric.DPtr) {
	if sc.seen.take(dp, true) {
		sc.next = append(sc.next, dp)
	}
}

// endFeed ends a feed begun with exclude: it drops exclude's bits, which the
// feed may have set again.
func (sc *frontierScratch) endFeed(exclude []fabric.DPtr) {
	for _, dp := range exclude {
		sc.seen.drop(dp)
	}
}

// fedCursor is a position among the candidates a feed left: a bit of the
// bitmap and an index into the sorted list of the keys off it.
type fedCursor struct {
	bit   uint64
	spill int
}

// fedAt returns the smallest candidate at or after c, and the cursor past
// it; ok is false when there is none, or, while a run is paused, none at
// most the feed's bound, sc.fed.top.
func (sc *frontierScratch) fedAt(c fedCursor) (dp fabric.DPtr, past fedCursor, ok bool) {
	b, onBits := sc.seen.nextBit(c.bit)
	switch {
	case c.spill < len(sc.next) && (!onBits || sc.next[c.spill] < sc.seen.key(b)):
		dp, past = sc.next[c.spill], fedCursor{c.bit, c.spill + 1}
	case onBits:
		dp, past = sc.seen.key(b), fedCursor{b + 1, c.spill}
	default:
		return fabric.NullDPtr, c, false
	}
	if dp > sc.fed.top && len(sc.fed.paused) > 0 {
		return fabric.NullDPtr, c, false
	}
	return dp, past, true
}

// nextBound returns the smallest candidate past the cursor or, when every
// one fed so far is picked and runs are paused, the smallest one they may
// yet feed, top+1; more is false when there is none.
func (sc *frontierScratch) nextBound() (bound fabric.DPtr, more bool) {
	if dp, _, ok := sc.fedAt(sc.at); ok {
		return dp, true
	}
	if len(sc.fed.paused) > 0 {
		return sc.fed.top + 1, true
	}
	return fabric.NullDPtr, false
}

// fedOn reports whether a candidate at or after c lies on rank.
func (sc *frontierScratch) fedOn(rank int, c fedCursor) bool {
	s := &sc.seen
	lo, hi := uint64(rank)*s.blocks, uint64(rank+1)*s.blocks
	if b, ok := s.nextBit(max(lo, c.bit)); ok && b < hi {
		return true
	}
	return slices.ContainsFunc(sc.next[c.spill:], func(dp fabric.DPtr) bool { return int(dp.Rank()) == rank })
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
// for rejoin the set.
func (tx *Tx) vouch(sc *frontierScratch, exclude []fabric.DPtr) error {
	e := tx.eng
	r := &sc.chainReader
	r.dps = r.dps[:0]
	stamping := false
	paused := sc.fed.lowestRank(len(sc.stubFree))
	for rank := range sc.stubFree {
		switch {
		case rank < paused && !sc.fedOn(rank, fedCursor{}):
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
	record := func(dp fabric.DPtr) bool {
		switch {
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
	sc.next = slices.DeleteFunc(sc.next, record)
	tx.stampRecords(sc)
	for i := range sc.verts {
		if v := &sc.verts[i]; v.verdict == readStamped && !sc.seen.or(v.head) {
			sc.next = append(sc.next, v.head)
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
// the feed's bound until one is fed or no run is paused.
func (sc *frontierScratch) pickChunk(e *Engine, size int, exclude []fabric.DPtr) ([]int32, error) {
	sc.pick = sc.pick[:0]
	for range size {
		dp, past, ok := sc.fedAt(sc.at)
		for !ok && len(sc.fed.paused) > 0 {
			if err := sc.raise(e, exclude); err != nil {
				return nil, err
			}
			dp, past, ok = sc.fedAt(sc.at)
		}
		if !ok {
			break
		}
		sc.at = past
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
// the others. The set lists its new keys in sc.next, or, fed, only those off
// its bitmap, up to the bound sc.fed.top; the caller begins and ends its
// use.
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
// at most deg of them, and appends to next, in record order, those it lists:
// the keys seen did not hold yet, or, when fed is not nil, only those of them
// off seen's bitmap, whose bits it just ORs in (dptrSet.take). It walks a run
// at a time. Unfed, a light run that mask selects is decoded by StepRun
// straight into the tail of next, which is then cut back in place to the
// keys it lists (the first occurrence wins). Fed, a light run is fed up to
// the bound fed.top, and one of pauseMin records or more that stops at a
// neighbor above it joins fed.paused (fedRuns.feed), and, when it is the
// walk's last run, ends the walk unread; a shorter one is fed whole. A
// heavy run goes record by record, each record's neighbor being the
// far end far resolves from its edge holder (ok false: a deleted edge, which
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
				if err != nil {
					return next, err
				}
				if kept && seen.take(nb, feed) {
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
			var paused bool
			if next, paused = fed.feed(c, seen, next, top); paused {
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
// it ORs in or lists each neighbor at most top (dptrSet.feedRun), appending
// the keys it lists to next, and reports whether the run stopped at one
// above top, which c then holds as its head.
func (f *fedRuns) feed(c *holder.EdgeCursor, seen *dptrSet, next []fabric.DPtr, top fabric.DPtr) ([]fabric.DPtr, bool) {
	if c.Rec.Neighbor > top {
		return next, true
	}
	var nbrs [64]fabric.DPtr
	nbrs[0] = c.Rec.Neighbor
	for k := 1; ; k = 0 {
		n, over := c.StepUpTo(nbrs[k:], top)
		k += n
		f.decoded += n
		next = append(next, nbrs[:seen.feedRun(nbrs[:k])]...)
		if over {
			f.decoded++
			return next, true
		}
		if k < len(nbrs) {
			return next, false
		}
	}
}

// raiseTo feeds every paused run up to top, appending the keys it lists to
// next, and drops the runs it spends. It stops at a run's corruption.
func (f *fedRuns) raiseTo(top fabric.DPtr, seen *dptrSet, next []fabric.DPtr) ([]fabric.DPtr, error) {
	f.top = top
	kept := f.paused[:0]
	for i := range f.paused {
		c := &f.paused[i]
		var paused bool
		next, paused = f.feed(c, seen, next, top)
		if err := c.Err(); err != nil {
			return next, err
		}
		if paused {
			kept = append(kept, *c)
		}
	}
	clear(f.paused[len(kept):])
	f.paused = kept
	return next, nil
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

// raiseTo feeds the paused runs up to top. The keys it lists off the
// bitmap all lie above the old bound, past the cursor, so it sorts them
// into the unread part of sc.next; and it drops exclude's bits, which the
// feed may have set again.
func (sc *frontierScratch) raiseTo(top fabric.DPtr, exclude []fabric.DPtr) error {
	next, err := sc.fed.raiseTo(top, &sc.seen, sc.next)
	if sc.next = next; err != nil {
		return fmt.Errorf("%w: a paused edge run: %v", ErrNotFound, err)
	}
	slices.Sort(sc.next[sc.at.spill:])
	for _, dp := range exclude {
		sc.seen.drop(dp)
	}
	return nil
}

// dptrSet is the set of DPtrs a hop dedups against: one bit per pool block
// of every rank — a test and a set on a bitmap that stays in cache, however
// many keys — and a hash table for the keys off the pool, or for every key
// on an engine whose bitmap would pass setBitsMax. A user brackets its keys
// with begin and end, and end clears just the bits of the keys it names: a
// one-key use costs one bit, whatever the pool's size. A fed use instead
// ORs its keys on the bitmap in without a test (take), reads them back in
// bit order, which is DPtr order (nextBit), and ends with one clear of the
// words it touched (clearSpan). A use that ends without end or clearSpan (an
// error) leaves the set dirty, and the next begin clears it whole.
type dptrSet struct {
	bits   []uint64 // bit rank·blocks + offset
	blocks uint64   // the pool blocks per rank the bits are laid out for; 0: no bitmap
	ranks  int
	lo, hi uint64 // the span of words a fed use touched: bits[lo:hi]
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
	s.lo, s.hi = uint64(len(s.bits)), 0
	s.null, s.dirty = false, true
}

// bit returns the index of key's word in the bitmap and the mask of its
// bit; ok is false for a key the bitmap does not cover.
func (s *dptrSet) bit(key fabric.DPtr) (w, m uint64, ok bool) {
	off, r := key.Off(), uint64(key.Rank())
	if off >= s.blocks || r >= uint64(s.ranks) {
		return 0, 0, false
	}
	i := r*s.blocks + off
	return i / 64, 1 << (i % 64), true
}

// add adds key and reports whether it was new.
func (s *dptrSet) add(key fabric.DPtr) bool {
	if w, m, ok := s.bit(key); ok {
		if s.bits[w]&m != 0 {
			return false
		}
		s.bits[w] |= m
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

// or sets key's bit and widens the span to its word; on is false for a key
// the bitmap does not cover, which it leaves alone.
func (s *dptrSet) or(key fabric.DPtr) (on bool) {
	w, m, on := s.bit(key)
	if on {
		s.bits[w] |= m
		s.lo, s.hi = min(s.lo, w), max(s.hi, w+1)
	}
	return on
}

// feedRun is take over keys in a fed use: it ORs in the keys on the bitmap,
// and moves those off it that are new to the front of keys, in order, and
// returns how many it moved. The loop over the bitmap's keys makes no call,
// so that the bitmap, its layout and the span stay in registers; the keys
// off the bitmap, if any, take a second pass.
func (s *dptrSet) feedRun(keys []fabric.DPtr) int {
	bits, blocks, ranks := s.bits, s.blocks, uint64(s.ranks)
	lo, hi := s.lo, s.hi
	spilled := false
	for _, key := range keys {
		off, r := key.Off(), uint64(key.Rank())
		if off >= blocks || r >= ranks {
			spilled = true
			continue
		}
		i := r*blocks + off
		w := i / 64
		bits[w] |= 1 << (i % 64)
		lo, hi = min(lo, w), max(hi, w+1)
	}
	s.lo, s.hi = lo, hi
	if !spilled {
		return 0
	}
	n := 0
	for _, key := range keys {
		if _, _, on := s.bit(key); !on && s.add(key) {
			keys[n] = key
			n++
		}
	}
	return n
}

// take adds key and reports whether the caller lists it: when it was new,
// or, in a fed use (feed), when it was new and off the bitmap.
func (s *dptrSet) take(key fabric.DPtr, feed bool) bool {
	if feed && s.or(key) {
		return false
	}
	return s.add(key)
}

// drop removes key from the bitmap; the table empties at the next begin.
func (s *dptrSet) drop(key fabric.DPtr) {
	if w, m, ok := s.bit(key); ok {
		s.bits[w] &^= m
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

// nextBit returns the first set bit at or after bit i within the span.
func (s *dptrSet) nextBit(i uint64) (uint64, bool) {
	w := i / 64
	if w < s.lo {
		w, i = s.lo, s.lo*64
	}
	if w >= s.hi {
		return 0, false
	}
	word := s.bits[w] &^ (1<<(i%64) - 1)
	for word == 0 {
		if w++; w >= s.hi {
			return 0, false
		}
		word = s.bits[w]
	}
	return w*64 + uint64(bits.TrailingZeros64(word)), true
}

// key returns the DPtr whose bit is bit i.
func (s *dptrSet) key(i uint64) fabric.DPtr {
	return fabric.MakeDPtr(fabric.Rank(i/s.blocks), i%s.blocks)
}

// dropFunc calls drop for the key of every set bit in the span, in bit
// order, and clears the bits it reports true for.
func (s *dptrSet) dropFunc(drop func(fabric.DPtr) bool) {
	for w := s.lo; w < s.hi; w++ {
		for word := s.bits[w]; word != 0; word &= word - 1 {
			b := uint64(bits.TrailingZeros64(word))
			if drop(s.key(w*64 + b)) {
				s.bits[w] &^= 1 << b
			}
		}
	}
}

// clearSpan ends a fed use: it clears the words the use touched, and the
// set is empty again.
func (s *dptrSet) clearSpan() {
	if s.lo < s.hi {
		clear(s.bits[s.lo:s.hi])
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
