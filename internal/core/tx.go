package core

import (
	"fmt"
	"slices"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
)

// Mode distinguishes read-only from read-write transactions (§3.3): GDI
// separates them so read-only transactions can skip write-path machinery.
type Mode uint8

const (
	// ReadOnly transactions reject mutations.
	ReadOnly Mode = iota
	// ReadWrite transactions may mutate graph data.
	ReadWrite
)

// guard is what a transaction knows of the lock word guarding one holder:
// the version it read the holder at, and, once the commit's lock train holds
// the word, the version the train took it at.
type guard struct {
	ver     uint64 // the version the holder was read at; 0 for a holder this transaction created
	lockVer uint64 // the version the lock train took the word at, while held
	held    bool
}

// vertexState is a transaction's cached copy of one vertex holder, its lock
// and dirtiness bookkeeping (the paper's per-transaction hashmaps plus dirty
// vector, §5.6), and the vertex's handle.
//
// A fetched state is clean until its first mutation: v is nil, and every
// read — labels, properties, Degree, Edges, the CSR build — is served in
// place from the fetched stream through view, with no decoded copy. The
// first mutation (ensureWrite, or DeleteEdge) pays one materialize, which
// builds v with its edge list, the block list and origLabel from the view.
// A vertex this transaction created has v from the start.
type vertexState struct {
	primary fabric.DPtr
	v       *holder.Vertex // the mutable form; nil while clean
	blocks  []fabric.DPtr  // all blocks incl. primary; nil while clean and for fresh vertices
	guard
	dirty     bool
	isNew     bool
	deleted   bool
	origLabel []lpg.LabelID // labels at fetch time, for index diffs

	view   holder.View // over stream
	stream []byte      // the fetched holder stream, which view aliases
	h      VertexHandle
}

// newState returns a state for the vertex at primary, with its handle.
func (tx *Tx) newState(primary fabric.DPtr) *vertexState {
	st := &vertexState{primary: primary}
	st.h = VertexHandle{tx: tx, st: st}
	return st
}

// appID returns the vertex's application-level ID.
func (st *vertexState) appID() uint64 {
	if st.v == nil {
		return st.view.AppID()
	}
	return st.v.AppID
}

// isIdentity reports whether dp names this vertex: its current primary or
// any former home block (edge records written before a live migration keep
// pointing at the old primary, so sibling matching must accept every
// identity the vertex has ever had).
func (st *vertexState) isIdentity(dp fabric.DPtr) bool {
	switch {
	case dp == st.primary:
		return true
	case st.v == nil:
		return st.view.HasHome(dp)
	}
	return slices.Contains(st.v.Homes, dp)
}

// edgeState caches one heavy-edge holder.
type edgeState struct {
	primary fabric.DPtr
	e       *holder.Edge
	blocks  []fabric.DPtr
	guard
	dirty   bool
	isNew   bool
	deleted bool
}

// Tx is one GDI transaction. A Tx belongs to the rank that started it and
// must not be shared between ranks (handles are process-local, §3.5). Any
// rank may run arbitrarily many concurrent transactions.
type Tx struct {
	eng        *Engine
	rank       fabric.Rank
	mode       Mode
	collective bool
	metaVer    uint64

	verts     map[fabric.DPtr]*vertexState
	edges     map[fabric.DPtr]*edgeState  // made by the first heavy edge
	newByApp  map[uint64]fabric.DPtr      // own uncommitted vertices, by app ID
	dirtyList []fabric.DPtr               // commit write-back order (the paper's vector)
	pending   []*VertexFuture             // queued non-blocking associations
	optReads  []optRead                   // the read set Commit validates
	moved     map[fabric.DPtr]fabric.DPtr // migration aliases chased: old -> new primary
	frontier  *frontierScratch            // ExpandFrontier's arena, from the first expansion until close
	run       commitRun                   // Commit's record
	critical  error                       // sticky transaction-critical failure
	closed    bool
}

// optRead is one entry of the read set: a holder (a vertex by primary DPtr,
// also when a follower copy served the read, or a heavy-edge holder) and the
// guard version its content was validated at. A holder read twice appears
// twice; both versions must still hold at commit.
type optRead struct {
	dp  fabric.DPtr
	ver uint64
}

// StartLocal begins a single-process transaction (GDI_StartTransaction).
// O(1) work and depth.
func (e *Engine) StartLocal(rank fabric.Rank, mode Mode) *Tx {
	return &Tx{
		eng: e, rank: rank, mode: mode,
		metaVer: e.regs[rank].Version(),
		verts:   make(map[fabric.DPtr]*vertexState),
	}
}

// StartCollective begins a collective transaction
// (GDI_StartCollectiveTransaction): every rank must call it. The state is
// replicated per process; a barrier delimits the epoch. Read-only
// collective transactions skip per-vertex locking entirely — GDI specifies
// that read transactions may assume no participant modifies the data
// (§3.3), which is what makes large OLAP scans cheap.
func (e *Engine) StartCollective(rank fabric.Rank, mode Mode) *Tx {
	e.comm.Barrier(rank)
	tx := e.StartLocal(rank, mode)
	tx.collective = true
	return tx
}

// Rank returns the owning rank of the transaction.
func (tx *Tx) Rank() fabric.Rank { return tx.rank }

// Mode returns the transaction's read/write mode.
func (tx *Tx) Mode() Mode { return tx.mode }

// Collective reports whether this is a collective transaction
// (GDI_GetTypeOfTransaction).
func (tx *Tx) Collective() bool { return tx.collective }

// Critical returns the sticky transaction-critical error, if any.
func (tx *Tx) Critical() error { return tx.critical }

func (tx *Tx) fail(err error) error {
	wrapped := fmt.Errorf("%w: %w", ErrTxCritical, err)
	if tx.critical == nil {
		tx.critical = wrapped
	}
	return wrapped
}

func (tx *Tx) check() error {
	if tx.closed {
		return ErrTxClosed
	}
	if tx.critical != nil {
		return tx.critical
	}
	return nil
}

// optimistic reports whether this transaction reads optimistically (§3.8),
// as every transaction but a collective read-only one does. It takes no
// read locks: a holder read is accepted only when its guard word shows the
// same version (write bit clear) on both sides of the read, the (holder,
// version) pair joins the read set, and Commit validates the whole read set,
// aborting with a transaction-critical error when any version moved. A write
// defers its exclusive lock to the commit's lock train. Collective read-only
// transactions keep their own lock-free path: §3.3 lets them assume no
// concurrent writers, so they need neither locks nor validation.
func (tx *Tx) optimistic() bool { return !tx.collective || tx.mode == ReadWrite }

// readMode is how the transaction reads holder chains: under the seqlock, or
// stable in a collective read epoch.
func (tx *Tx) readMode() readMode {
	if tx.optimistic() {
		return readSeqlock
	}
	return readStable
}

// registry returns the rank-local metadata replica.
func (tx *Tx) registry() *metadata.Registry { return tx.eng.regs[tx.rank] }

// MetadataStale reports whether replicated metadata changed under this
// transaction (the eventual-consistency detection hook of §3.8).
func (tx *Tx) MetadataStale() bool { return tx.registry().Version() != tx.metaVer }

// TranslateVertexID resolves an application-level vertex ID to the internal
// DPtr (GDI_TranslateVertexID) and associates the vertex, so the
// AssociateVertex that normally follows is served by the transaction at no
// cost. Vertices created by this transaction are visible before commit
// (read-your-own-writes).
//
// A local transaction first asks its rank's translation cache. A hit is a
// speculative association: the vertex is associated at the cached DPtr as
// AssociateVertex would (a read-set entry), and the translation is served
// only if the guard still carries the cached version, the head block is a
// primary vertex head with the requested application ID, and the owner rank
// is alive. A hit costs 0 round trips
// beyond that association. Anything else — a miss, a moved version, a dead
// rank — takes one DHT lookup (two round trips), associates its answer and
// refreshes the cache; ErrNotFound comes back exactly when the index has no
// entry. An index entry naming a holder that was deleted or reused since is
// looked up again; one that keeps doing so past the lock retry budget fails
// the transaction like lock contention. Collective transactions translate
// through the index alone and associate nothing.
func (tx *Tx) TranslateVertexID(appID uint64) (fabric.DPtr, error) {
	if err := tx.check(); err != nil {
		return fabric.NullDPtr, err
	}
	if dp, ok := tx.newByApp[appID]; ok {
		if tx.verts[dp] != nil && tx.verts[dp].deleted {
			return fabric.NullDPtr, errNoVertex(appID)
		}
		return dp, nil
	}
	if tx.collective {
		v, ok := tx.eng.index.Lookup(tx.rank, appID)
		if st := tx.verts[fabric.DPtr(v)]; !ok || st != nil && st.deleted {
			return fabric.NullDPtr, errNoVertex(appID)
		}
		return fabric.DPtr(v), nil
	}
	xc := &tx.eng.xlate[tx.rank]
	if dp, ver, ok := xc.get(appID); ok && !tx.eng.isDead(dp.Rank()) {
		// A fresh association passed the version and head checks in the
		// flush; one the transaction already held is in its read set,
		// whatever the version.
		st, fresh, err := tx.associateState(dp, true, ver)
		switch {
		case err == nil && st.appID() == appID:
			tx.eng.xlateHits.Add(1)
			if st.deleted {
				return fabric.NullDPtr, errNoVertex(appID)
			}
			return st.primary, nil
		case err == nil && fresh:
			tx.forget(st)
		}
	}
	tx.eng.xlateMisses.Add(1)
	// The index's answer is associated and checked like a hit. A holder that
	// was deleted, or taken over by another vertex, between the lookup and
	// the read sends the walk round again: the index soon drops or re-points
	// the entry.
	for range tx.eng.cfg.LockTries {
		v, ok := tx.eng.index.Lookup(tx.rank, appID)
		if !ok {
			return fabric.NullDPtr, errNoVertex(appID)
		}
		dp := fabric.DPtr(v)
		st, fresh, err := tx.associateState(dp, false, 0)
		switch {
		case tx.critical != nil:
			// The association failed the transaction, which can no longer
			// commit; the AssociateVertex that follows reports why.
			return dp, nil
		case err != nil:
		case st.deleted:
			return fabric.NullDPtr, errNoVertex(appID)
		case st.appID() == appID:
			xc.put(appID, st.primary, st.ver)
			return st.primary, nil
		case fresh:
			tx.forget(st)
		}
	}
	return fabric.NullDPtr, tx.fail(fmt.Errorf("translating vertex app ID %d: its index entry keeps naming a deleted or another vertex: %w",
		appID, locks.ErrContended))
}

func errNoVertex(app uint64) error {
	return fmt.Errorf("%w: vertex app ID %d", ErrNotFound, app)
}

// associateState associates dp like AssociateVertex, without building a
// handle, and reports whether this call installed the state (fresh) rather
// than finding it in the transaction. A speculative call (spec) expects dp's
// guard at version expect and, before reading any block, fails with
// errStaleTranslation when it is elsewhere.
func (tx *Tx) associateState(dp fabric.DPtr, spec bool, expect uint64) (st *vertexState, fresh bool, err error) {
	if st, ok := tx.verts[tx.chaseAlias(dp)]; ok {
		return st, false, nil
	}
	n := len(tx.verts)
	f := VertexFuture{tx: tx, dp: dp}
	tx.flush([]*VertexFuture{&f}, spec, expect)
	if f.err != nil {
		return nil, false, f.err
	}
	return f.st, len(tx.verts) > n, nil
}

// forget undoes an association this transaction no longer wants, one that
// named another vertex than the translation asked for: it leaves the
// transaction and the read set, as if never read.
func (tx *Tx) forget(st *vertexState) {
	delete(tx.verts, st.primary)
	if n := len(tx.optReads); n > 0 && tx.optReads[n-1].dp == st.primary {
		tx.optReads = tx.optReads[:n-1]
	}
}

// AssociateVertex creates (or returns the cached) process-local handle for
// vertex dp (GDI_AssociateVertex). It reads the holder optimistically and
// adds it to the read set Commit validates; a mutation defers the vertex's
// exclusive lock to the commit's lock train. O(b) block gets for a b-block
// holder, with the guard word loaded inside the same trains.
//
// It is a thin blocking wrapper over the non-blocking tier: the call queues
// the fetch and immediately waits, which also flushes any other
// associations the transaction has queued (a blocking operation implies
// progress, exactly as in MPI). Latency-sensitive traversals should prefer
// AssociateVertices or AssociateVertexAsync to amortize remote round-trips.
func (tx *Tx) AssociateVertex(dp fabric.DPtr) (*VertexHandle, error) {
	if len(tx.pending) > 0 {
		return tx.AssociateVertexAsync(dp).Wait()
	}
	// With nothing else queued, the future never leaves this call: a cached
	// vertex, or a one-vertex flush, costs no heap future.
	f := VertexFuture{tx: tx, dp: dp}
	if !tx.begin(&f) {
		tx.flush([]*VertexFuture{&f}, false, 0)
	}
	return f.Wait()
}

// ensureWrite marks st dirty, which defers its exclusive lock to the
// commit's lock train, seeded with the version st was read at. Mutations
// (and the commit re-encode they lead to) work on the materialized vertex,
// which a clean state builds first.
func (tx *Tx) ensureWrite(st *vertexState) error {
	if tx.mode == ReadOnly {
		return ErrReadOnly
	}
	if err := st.materialize(); err != nil {
		return err
	}
	if !st.dirty {
		st.dirty = true
		tx.dirtyList = append(tx.dirtyList, st.primary)
	}
	return nil
}

// materialize builds a clean state's mutable form from its view: the
// decoded vertex with its edge list, the chain's blocks and the labels at
// fetch time. Idempotent, and free for a materialized or fresh state. The
// edge walk is also the edge region's validation (install only vouched for
// the entries), so a corrupt region surfaces here, as the ErrNotFound a
// corrupt holder has always been.
func (st *vertexState) materialize() error {
	if st.v != nil {
		return nil
	}
	v, err := st.view.DecodeMeta()
	if err == nil {
		v.Edges = st.view.AppendEdges(nil)
		err = st.view.Err()
	}
	if err != nil {
		return fmt.Errorf("%w: holder %v: %v", ErrNotFound, st.primary, err)
	}
	st.blocks = make([]fabric.DPtr, st.view.NumBlocks())
	st.blocks[0] = st.primary
	for i := 1; i < len(st.blocks); i++ {
		st.blocks[i] = holder.TableEntry(st.stream, i-1)
	}
	st.v, st.origLabel = v, slices.Clone(v.Labels)
	return nil
}

// CreateVertex allocates a new vertex with the given application-level ID,
// placed on OwnerOf(appID), and returns its internal ID. The vertex becomes
// visible to other transactions at commit, when it is published in the
// internal index. O(1) work and depth.
func (tx *Tx) CreateVertex(appID uint64) (fabric.DPtr, error) {
	if err := tx.check(); err != nil {
		return fabric.NullDPtr, err
	}
	if tx.mode == ReadOnly {
		return fabric.NullDPtr, ErrReadOnly
	}
	owner := tx.eng.OwnerOf(appID)
	primary, err := tx.eng.store.AcquireBlock(tx.rank, owner)
	if err != nil {
		return fabric.NullDPtr, tx.fail(ErrNoMemory)
	}
	st := tx.newState(primary)
	st.v, st.isNew = &holder.Vertex{AppID: appID}, true
	// The exclusive lock on a fresh vertex is taken by the commit-time lock
	// train: the vertex is unpublished until commit, so nothing can touch it
	// before then.
	st.dirty = true
	tx.dirtyList = append(tx.dirtyList, primary)
	tx.verts[primary] = st
	if tx.newByApp == nil {
		tx.newByApp = make(map[uint64]fabric.DPtr)
	}
	tx.newByApp[appID] = primary
	return primary, nil
}

// DeleteVertex removes a vertex and all of its edges. Every neighbor's
// holder is updated, so the operation write-locks the neighborhood — the
// "demanding vertex deletions" of §6.4. O(deg(v)) holder updates; the
// neighbors — the light ones, and the far endpoint of every heavy edge,
// which keeps a record of the edge holder — are associated in one flush, so
// the neighborhood costs one guarded GET train per owner rank and round,
// whatever the degree. The walk then runs in edge order and returns its
// first error.
func (tx *Tx) DeleteVertex(dp fabric.DPtr) error {
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		return err
	}
	st := h.st
	if err := tx.ensureWrite(st); err != nil {
		return err
	}
	futs := make([]*VertexFuture, len(st.v.Edges))
	errs := make([]error, len(st.v.Edges))
	for i, rec := range st.v.Edges {
		nb := rec.Neighbor
		if rec.Heavy {
			if nb, errs[i] = tx.heavySibling(st, rec.Neighbor); errs[i] != nil {
				continue
			}
		}
		if !nb.IsNull() && !st.isIdentity(nb) {
			futs[i] = tx.AssociateVertexAsync(nb)
		}
	}
	tx.flushPending()
	// Remove the sibling record at every neighbor.
	for i, rec := range st.v.Edges {
		if errs[i] != nil {
			return errs[i]
		}
		if rec.Heavy {
			if err := tx.dropEdgeHolder(rec.Neighbor); err != nil {
				return err
			}
		}
		if futs[i] == nil { // a self-loop: both records live here
			continue
		}
		nh, err := futs[i].Wait()
		if err != nil {
			return err
		}
		if err := tx.ensureWrite(nh.st); err != nil {
			return err
		}
		if rec.Heavy {
			nh.st.v.Edges = removeFirstMatch(nh.st.v.Edges, matchHeavySibling(rec.Neighbor))
		} else {
			nh.st.v.Edges = removeSiblings(nh.st.v.Edges, st)
		}
	}
	st.v.Edges = nil
	st.deleted = true
	return nil
}

// heavySibling returns the endpoint other than st of the heavy edge whose
// holder is hp — st itself for a self-loop — or the null DPtr when this
// transaction already deleted the holder.
func (tx *Tx) heavySibling(st *vertexState, hp fabric.DPtr) (fabric.DPtr, error) {
	es, err := tx.fetchEdgeState(hp)
	if err != nil || es.deleted {
		return fabric.NullDPtr, err
	}
	return heavyNeighbor(es.e, st), nil
}

// removeSiblings drops every record pointing at the deleted vertex, under
// any of its identities (current primary or a pre-migration home).
func removeSiblings(recs []holder.EdgeRec, gone *vertexState) []holder.EdgeRec {
	out := recs[:0]
	for _, r := range recs {
		if !r.Heavy && gone.isIdentity(r.Neighbor) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// dropEdgeHolder marks a heavy-edge holder deleted.
func (tx *Tx) dropEdgeHolder(dp fabric.DPtr) error {
	es, err := tx.fetchEdgeState(dp)
	if err != nil {
		return err
	}
	es.deleted = true
	es.dirty = true
	return nil
}

// fetchEdgeState returns the transaction's state of the heavy-edge holder at
// dp. The first use reads the holder as an association reads a vertex: on
// the seqlock tier, read again while torn or write-held, and added to the
// read set; stable in a collective read-only transaction. The chain is read
// like any untrusted bytes: a reused block yields ErrNotFound, not a panic.
func (tx *Tx) fetchEdgeState(dp fabric.DPtr) (*edgeState, error) {
	if es, ok := tx.edges[dp]; ok {
		return es, nil
	}
	fs := getReadScratch()
	defer fs.release()
	r := &fs.chainReader
	r.items = append(r.items[:0], chainItem{head: dp, want: holder.IsEdgeHolder})
	it := &r.items[0]
	mode := tx.readMode()
	for attempts := 1; ; attempts++ {
		if mode == readStable || attempts > 1 {
			r.stamp(tx.eng, tx.rank)
		}
		r.read(tx.eng, tx.rank, mode, false, true)
		if it.verdict != readHeld && it.verdict != readTorn {
			break
		}
		if attempts >= tx.eng.cfg.LockTries {
			tx.eng.optAborts.Add(1)
			return nil, tx.fail(fmt.Errorf("optimistic read of edge holder %v still torn after %d attempts: %w", dp, attempts, locks.ErrContended))
		}
		it.verdict, it.stamped = unread, false
	}
	if it.verdict != readOK {
		return nil, fmt.Errorf("%w: edge holder %v is gone (deleted, or its block reused)", ErrNotFound, dp)
	}
	e, err := holder.DecodeEdge(it.buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	es := &edgeState{primary: dp, e: e, blocks: it.chain()}
	es.ver = locks.Version(it.stamp)
	tx.addEdgeState(es)
	if tx.optimistic() {
		tx.optReads = append(tx.optReads, optRead{dp, es.ver})
	}
	return es, nil
}

// addEdgeState makes es the transaction's.
func (tx *Tx) addEdgeState(es *edgeState) {
	if tx.edges == nil {
		tx.edges = make(map[fabric.DPtr]*edgeState)
	}
	tx.edges[es.primary] = es
}
