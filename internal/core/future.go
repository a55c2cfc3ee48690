package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
)

// VertexFuture is the non-blocking counterpart of AssociateVertex
// (GDI_AssociateVertex's non-blocking tier). Creating a future queues the
// fetch; the remote accesses of every queued future are issued together on
// the next flush — triggered by Wait on any future of the transaction or by
// AssociateVertices — grouped by owner rank into vectored RMA reads. Under
// injected remote latency a flush therefore pays one round-trip per owner
// rank touched instead of one per vertex (§5.6's pipelined one-sided
// accesses).
//
// Futures follow the handle rules of §3.5: they are only meaningful on the
// process that created them and must not be shared between ranks. A future
// left unwaited when its transaction closes is cancelled; Wait then reports
// ErrTxClosed.
type VertexFuture struct {
	tx   *Tx
	dp   fabric.DPtr
	done bool
	st   *vertexState
	err  error
}

// Test reports whether the future has completed — either satisfied from the
// per-transaction cache at creation or resolved by a flush — without
// triggering any communication (MPI_Test semantics).
func (f *VertexFuture) Test() bool { return f.done }

// Wait blocks until the future completes and returns its handle or error
// (MPI_Wait semantics). Waiting on one future flushes every fetch the
// transaction has queued, so a loop that creates N futures and then waits on
// them pays the batched cost once, on the first Wait.
func (f *VertexFuture) Wait() (*VertexHandle, error) {
	if !f.done {
		f.tx.flushPending()
	}
	if !f.done {
		// The future was detached from its transaction's queue (it can only
		// happen through misuse across goroutines); fail it rather than spin.
		f.fail(fmt.Errorf("%w: future lost by its transaction", ErrTxCritical))
	}
	if f.st == nil {
		return nil, f.err
	}
	return &f.st.h, nil
}

func (f *VertexFuture) fail(err error) {
	f.done = true
	f.err = err
}

// resolveState completes the future from a cached or freshly installed
// vertex state.
func (f *VertexFuture) resolveState(st *vertexState) {
	f.done = true
	if st.deleted {
		f.err = fmt.Errorf("%w: vertex %v deleted in this transaction", ErrNotFound, f.dp)
		return
	}
	f.st = st
}

// AssociateVertexAsync begins a non-blocking vertex association. The
// returned future completes immediately when dp is already cached in this
// transaction (or is invalid); otherwise the fetch is queued until the next
// flush. Queueing performs no communication.
func (tx *Tx) AssociateVertexAsync(dp fabric.DPtr) *VertexFuture {
	f := &VertexFuture{tx: tx, dp: dp}
	if !tx.begin(f) {
		tx.pending = append(tx.pending, f)
	}
	return f
}

// begin completes f at once where no read is needed — a closed or failed
// transaction, a NULL ID, a vertex the transaction holds — and reports
// whether it did.
func (tx *Tx) begin(f *VertexFuture) bool {
	if err := tx.check(); err != nil {
		f.fail(err)
	} else if f.dp.IsNull() {
		f.fail(fmt.Errorf("%w: NULL vertex ID", ErrBadArgument))
	} else if st := tx.cached(f.dp); st != nil {
		f.resolveState(st)
	}
	return f.done
}

// cached returns the state this transaction holds for dp, or nil: a stale
// DPtr of a vertex this transaction already chased through its forwarding
// stub resolves to the current primary's state without communication.
func (tx *Tx) cached(dp fabric.DPtr) *vertexState {
	if st, ok := tx.verts[dp]; ok {
		return st
	}
	if a := tx.chaseAlias(dp); a != dp {
		return tx.verts[a]
	}
	return nil
}

// AssociateVertices materializes handles for a whole set of vertices at once
// — the batch entry point frontier expansions use. Fetches are grouped by
// owner rank and issued as vectored RMA reads, so a batch spanning k ranks
// pays k remote round-trips of injected latency rather than len(dps).
//
// The returned slice is aligned with dps: handles[i] belongs to dps[i], and
// duplicates in dps resolve to the same per-transaction state. A vertex that
// does not exist (or was deleted by this transaction) yields a nil entry
// rather than failing the batch; transaction-level failures — closed
// transaction, transaction-critical lock contention, a NULL vertex ID —
// return a non-nil error.
func (tx *Tx) AssociateVertices(dps []fabric.DPtr) ([]*VertexHandle, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	futs := make([]*VertexFuture, len(dps))
	for i, dp := range dps {
		futs[i] = tx.AssociateVertexAsync(dp)
	}
	tx.flushPending()
	out := make([]*VertexHandle, len(dps))
	for i, f := range futs {
		h, err := f.Wait()
		switch {
		case err == nil:
			out[i] = h
		case errors.Is(err, ErrNotFound):
			// Missing vertices are reported positionally as nil handles.
		default:
			return nil, err
		}
	}
	return out, nil
}

// maxForwardHops bounds how many migration forwarding stubs one association
// may chase before the transaction gives up (a chain longer than the rank
// count cannot arise from well-formed migrations, so hitting the bound means
// the vertex is migrating faster than we can follow — contention).
const maxForwardHops = 8

// assoc is one distinct vertex of a flush generation and the futures
// awaiting it: pending[first], then along the flush's links to
// pending[last]. Reading it settles it: st installed, a forwarding stub to
// chase at fwd, or err.
type assoc struct {
	dp          fabric.DPtr
	first, last int32
	st          *vertexState
	follow      replicaEntry // the local follower copy the read goes to; a null head when none
	fwd         fabric.DPtr
	err         error
}

// flushPending completes every queued association (the Flush of the op
// queue). Each generation of the flush reads its vertices in one batch of
// the chain reader ("Life of a holder read" in ARCHITECTURE.md), installs
// each holder into the per-transaction cache, and re-queues the vertices
// that turned out to be forwarding stubs at their current primary.
func (tx *Tx) flushPending() {
	pending := tx.pending
	tx.pending = nil
	tx.flush(pending, false, 0)
}

// flush completes the given associations (flushPending's protocol). A
// speculative flush (spec) is a translation-cache hit being checked: its
// holders must still carry guard version expect, free of writers, and a
// primary vertex head, or their futures fail with errStaleTranslation: when
// the version moved or the word marks a forwarding stub, the flush refuses
// after the head round, whose train loaded the word, and drops what that
// round read. Its scratch comes from readerPool, and it keeps no pointer to
// a future past its return.
func (tx *Tx) flush(pending []*VertexFuture, spec bool, expect uint64) {
	if len(pending) == 0 {
		return
	}
	if err := tx.check(); err != nil {
		for _, f := range pending {
			f.fail(err)
		}
		return
	}
	fs := getReadScratch()
	defer fs.release()
	fs.link = slices.Grow(fs.link[:0], len(pending))[:len(pending)]
	w := waiters{pending, fs.link}

	// Deduplicate by DPtr (resolving migration aliases this transaction has
	// already chased); cache hits resolve without communication. The dedup
	// map is built lazily on the second distinct fetch, so the dominant
	// single-vertex point read allocates no map at all. A multi-hop frontier
	// that revisits an already-chased stale DPtr in a later hop resolves
	// here through chaseAlias + the installed state — no fresh chase
	// generation, no second ForwardedReads count, no traffic
	// (TestMultiHopRevisitOfMigratedVertexUsesAliasMap).
	gen, spare := fs.gen[:0], fs.next[:0]
	var uniq map[fabric.DPtr]int
	// enqueue adds the futures from pending[first] to pending[last] to the
	// generation being built, at dp.
	enqueue := func(dp fabric.DPtr, first, last int32) {
		dp = tx.chaseAlias(dp)
		if st, ok := tx.verts[dp]; ok {
			w.resolve(first, st)
			return
		}
		if uniq == nil && len(gen) > 0 {
			uniq = make(map[fabric.DPtr]int, len(pending))
			for i := range gen {
				uniq[gen[i].dp] = i
			}
		}
		if i, ok := uniq[dp]; ok {
			w.link[gen[i].last], gen[i].last = first, last
			return
		}
		if uniq != nil {
			uniq[dp] = len(gen)
		}
		gen = append(gen, assoc{dp: dp, first: first, last: last})
	}
	for i, f := range pending {
		w.link[i] = -1
		if !f.done {
			enqueue(f.dp, int32(i), int32(i))
		}
	}

	// Each generation reads one hop of the (normally trivial) forwarding
	// graph: vertices that land on a migration stub re-queue at their current
	// primary and go around again, bounded by maxForwardHops. A generation
	// installs its states before the next is queued, so a chase that arrives
	// at a vertex this flush already read resolves to its state.
	defer func() { fs.gen, fs.next = gen, spare }()
	for hop := 0; len(gen) > 0; hop++ {
		if hop > maxForwardHops {
			crit := tx.fail(fmt.Errorf("associating %d vertices: migration forwarding chain exceeded %d hops: %w",
				len(gen), maxForwardHops, locks.ErrContended))
			for i := range gen {
				w.fail(gen[i].first, crit)
			}
			return
		}
		tx.readGeneration(&fs.chainReader, gen, spec, expect)
		cur := gen
		gen, uniq = spare[:0], nil
		for i := range cur {
			a := &cur[i]
			switch {
			case a.err != nil:
				w.fail(a.first, a.err)
			case !a.fwd.IsNull():
				tx.eng.forwards.Add(1)
				tx.addAlias(a.dp, a.fwd)
				enqueue(a.fwd, a.first, a.last)
			default:
				w.resolve(a.first, a.st)
			}
		}
		spare = cur
	}
}

// waiters are the futures of a flush, each linked to the next one awaiting
// the same vertex (-1 ends a list).
type waiters struct {
	pending []*VertexFuture
	link    []int32
}

// fail fails the list that starts at pending[first].
func (w waiters) fail(first int32, err error) {
	for i := first; i >= 0; i = w.link[i] {
		w.pending[i].fail(err)
	}
}

// resolve completes the list that starts at pending[first] with st.
func (w waiters) resolve(first int32, st *vertexState) {
	for i := first; i >= 0; i = w.link[i] {
		w.pending[i].resolveState(st)
	}
}

// readGeneration reads and settles every vertex of gen. In a local
// read-only transaction a vertex this rank holds a follower copy of is read
// from that copy, an item of the same batch guarded by its own word, and
// recorded in the read set against the primary; a copy that cannot serve is
// dropped from the directory (unless it was merely busy) and the primary is
// read instead. A read-write transaction reads primaries only: a mutation
// writes back into the chain its state was read from. Seqlock items that
// were torn or write-held are read again, up to the transaction's retry
// budget, each retry behind a stamp train: a guard still write-held costs
// its load, not its blocks. A speculative batch is checked on each item's
// stamp (chainReader.admit).
func (tx *Tx) readGeneration(r *chainReader, gen []assoc, spec bool, expect uint64) {
	e := tx.eng
	var want func([]byte) bool
	if spec {
		want = isPrimaryHead
	}
	followers := tx.readsFollowers()
	r.items = r.items[:0]
	for i := range gen {
		a := &gen[i]
		a.st = tx.newState(a.dp)
		it := chainItem{head: a.dp, want: want}
		if followers {
			if ent, ok := e.repl[tx.rank].lookup(a.dp); ok {
				a.follow = ent
				it.head, it.want, it.follower = ent.head, holder.IsReplicaBlock, true
			}
		}
		r.items = append(r.items, it)
	}
	mode := tx.readMode()
	r.spec, r.expect = spec, expect
	for attempts := 0; ; {
		if mode == readStable || attempts > 0 {
			r.stamp(e, tx.rank)
		}
		r.read(e, tx.rank, mode, false, true)
		torn, again := false, false
		for _, i := range r.batch {
			a, it := &gen[i], &r.items[i]
			busy := it.verdict == readHeld || it.verdict == readTorn
			switch {
			case it.verdict == readOK && tx.install(a, it):
			case it.verdict == readStale:
				// Stale whatever else could read it: a follower copy stays.
				a.err = errStaleTranslation
			case !a.follow.head.IsNull():
				// The copy cannot serve: drop it unless it was merely busy,
				// and read the primary.
				if !busy {
					e.repl[tx.rank].drop(a.dp)
				}
				a.follow = replicaEntry{}
				*it, again = chainItem{head: a.dp, want: want}, true
			case busy:
				it.verdict, it.stamped, torn, again = unread, false, true, true
			case it.verdict == readStub:
				a.fwd = holder.MovedTarget(it.buf)
			case it.verdict == readRefused:
				a.err = errStaleTranslation
			default:
				a.err = fmt.Errorf("%w: holder %v is deleted, reused or corrupt", ErrNotFound, a.dp)
			}
		}
		if !again {
			return
		}
		if torn {
			if attempts++; attempts >= e.cfg.LockTries {
				// An optimistic abort like the commit-time one, surfaced at
				// read time: count it so the abort reports stay
				// self-describing.
				e.optAborts.Add(1)
				crit := tx.fail(fmt.Errorf("optimistic read of a vertex still torn after %d attempts: %w", attempts, locks.ErrContended))
				for i := range r.items {
					if r.items[i].verdict == unread {
						gen[i].err = crit
					}
				}
				return
			}
		}
	}
}

// readsFollowers reports whether the transaction's reads may be served by
// this rank's follower copies: a local read-only one's, while the rank holds
// any.
func (tx *Tx) readsFollowers() bool {
	return tx.mode == ReadOnly && !tx.collective && tx.eng.repl[tx.rank].size() > 0
}

// install makes an item read OK a's state and the transaction's. The state
// keeps the stream behind its view, which every read accessor is served
// from; nothing is decoded to the heap until a mutation needs it
// (materialize). The header, the fixed regions and the entry region are
// checked here, so those reads cannot fail later; the edge region is checked
// by the walk that reads it. It returns false for a stream that does not
// check, or a follower copy that is not this vertex's.
func (tx *Tx) install(a *assoc, it *chainItem) bool {
	st := a.st
	if st.view.Reset(it.buf) != nil || !entriesValid(st.view.Entries()) {
		return false
	}
	if !a.follow.head.IsNull() {
		if !st.view.IsReplica() || st.view.AppID() != a.follow.app {
			return false
		}
		tx.eng.replicaReads.Add(1)
	}
	st.stream, st.ver = it.buf, locks.Version(it.stamp)
	tx.verts[a.dp] = st
	// a.dp is the vertex's primary — the post-chase one when the read went
	// through a forwarding stub, the primary a follower copy stands for — so
	// heat lands against its current owner, not a vacated or follower rank.
	tx.eng.recordHeat(tx.rank, st.view.AppID(), a.dp.Rank())
	if tx.optimistic() {
		tx.optReads = append(tx.optReads, optRead{a.dp, st.ver})
	}
	return true
}

// entriesValid reports whether a label/property entry region decodes: every
// entry well formed, and every label entry's payload one exact uvarint.
func entriesValid(region []byte) bool {
	it := lpg.IterEntries(region)
	for id, payload, ok := it.Next(); ok; id, payload, ok = it.Next() {
		if id != lpg.IDLabel {
			continue
		}
		if _, ok := lpg.EntryLabel(payload); !ok {
			return false
		}
	}
	return it.Err() == nil
}

// chaseAlias resolves dp through the migration aliases this transaction has
// discovered (old primary → current primary), bounded against cycles a
// migrate-back can form.
func (tx *Tx) chaseAlias(dp fabric.DPtr) fabric.DPtr {
	for i := 0; i < maxForwardHops; i++ {
		next, ok := tx.moved[dp]
		if !ok {
			return dp
		}
		dp = next
	}
	return dp
}

// addAlias records that dp's holder moved to next.
func (tx *Tx) addAlias(dp, next fabric.DPtr) {
	if tx.moved == nil {
		tx.moved = make(map[fabric.DPtr]fabric.DPtr)
	}
	tx.moved[dp] = next
}
