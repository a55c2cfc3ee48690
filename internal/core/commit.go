package core

import (
	"fmt"
	"slices"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
)

// writeEntry is one holder of a commit's write set: a vertex (vs), a
// heavy-edge holder (es), or — both nil — a forwarding stub that a deleted,
// migrated vertex retires. A rewrite lays stream over blocks, fans it out to
// the kept follower groups and retires the dropped ones. A deletion has a
// nil stream: it poisons its head (unless this transaction created the
// holder, so nobody else can see it), retires every follower group and
// frees its whole chain.
type writeEntry struct {
	vs     *vertexState
	es     *edgeState
	g      *guard // the head's lock word: vs's, es's, or the stub's own
	head   fabric.DPtr
	stream []byte          // nil: a deletion
	blocks []fabric.DPtr   // a rewrite's chain: its old one until layout fits it
	free   []fabric.DPtr   // freed after the release: a rewrite's excess blocks, a deletion's chain
	fan    [][]fabric.DPtr // follower groups rewritten in lockstep
	drop   [][]fabric.DPtr // follower groups this commit retires
	poison bool            // a deletion others can see: its head is zeroed
}

// commitRun is the record of one Commit: the write set, what its prepare
// half took (the lock words the write set's guards record, the blocks layout
// acquired, the index entries reserved) and the follower words its apply
// half marked. It is a field of the Tx, so the prepare loop's indirect calls
// move no record to the heap.
type commitRun struct {
	*Tx
	ws       []writeEntry
	rewrites int           // ws[:rewrites] are rewrites
	acquired []fabric.DPtr // blocks layout took, returned by a failed prepare
	reserved int           // the new vertices of ws[:reserved] hold index entries
	mirWords []locks.Word  // the marked follower words, for the release
	mirVers  []uint64
}

// prepare is Commit's prepare half, in order. Each phase may fail, and none
// writes anything; of what abortLocked reads, only the lock train's holds
// change, and the abort releases them, so a failure unwinds through
// commitRun.unwind alone.
var prepare = [...]func(*commitRun) error{
	(*commitRun).validate,
	(*commitRun).lock,
	(*commitRun).validateReads,
	(*commitRun).layout,
	(*commitRun).reserve,
}

// Commit makes the transaction's changes durable and visible
// (GDI_CloseTransaction with commit semantics). It has two halves (§5.6).
// The prepare half may fail: it checks the transaction, takes every
// exclusive lock the write set needs, validates the read set, encodes each
// rewrite and acquires its blocks, and reserves the index entries of new
// vertices. A failure there has written nothing and unwinds through one
// path, the abort's. The apply
// half cannot fail: it writes every holder back, retires dropped follower
// groups, logs deltas, updates the indexes, releases the locks and frees
// the retired blocks. Either every dirty holder is written back or none is.
//
// Everything the commit writes is one write set: one entry per rewritten
// or deleted holder, plus one per forwarding stub a deletion retires. Each
// phase walks it once, and each phase's remote traffic is one train per
// owner rank: the lock train is one vectored CAS train, the read-set
// validation one load train for the words the lock train does not hold, the
// write-back one vectored PUT train, and the release, shared with Abort, one
// write train.
//
// Work: O(Σ dirty holder blocks); depth: O(1) per holder after the
// sequential prepare walk. Collective transactions add two O(log P)
// barriers.
func (tx *Tx) Commit() error {
	if tx.closed {
		return ErrTxClosed
	}
	if tx.collective {
		tx.eng.comm.Barrier(tx.rank)
		defer tx.eng.comm.Barrier(tx.rank)
	}
	r := &tx.run
	r.Tx = tx
	r.collect()
	for _, phase := range prepare {
		if err := phase(r); err != nil {
			return r.unwind(err)
		}
	}
	// HTAP gate: the whole apply half — first write-back PUT through the
	// final lock release — runs under the commit gate in read mode.
	// AcquireCut holds the gate exclusively while every rank stamps its
	// shard, so a cut never observes a commit whose writes have partially
	// landed. Lock waits stay outside the gate: a prepared commit holds
	// locks but has written nothing, which stamping tolerates.
	if tx.eng.snap != nil {
		tx.eng.htapGate.RLock()
		defer tx.eng.htapGate.RUnlock()
	}
	r.mark()
	r.writeBack()
	r.dropFollowers()
	r.publish()
	r.release()
	r.free()
	tx.noteCommitted(r.ws)
	tx.close()
	return nil
}

// unwind ends a failed prepare: it returns the blocks layout acquired and
// the index entries reserve took, fails the transaction with err and aborts
// it, which releases every lock the transaction holds.
func (r *commitRun) unwind(err error) error {
	r.eng.releaseBlocks(r.rank, r.acquired)
	for _, w := range r.ws[:r.reserved] {
		if w.vs != nil && w.vs.isNew {
			r.eng.index.Delete(r.rank, w.vs.v.AppID)
		}
	}
	r.fail(err)
	r.abortLocked()
	return r.critical
}

// validate fails a transaction that is already critical, and a write
// transaction that raced a metadata change (metadata is only eventually
// consistent, §3.8).
func (r *commitRun) validate() error {
	if r.critical != nil {
		return r.critical
	}
	if len(r.ws) > 0 && r.MetadataStale() {
		return fmt.Errorf("metadata changed during transaction")
	}
	return nil
}

// collect builds the write set: rewrites first (vertices in write-back
// order, then edge holders), then deletions, then the stubs of deleted
// vertices that migrated in their lifetime. A deleted holder is dirty, so
// the dirty vector and the edge map name every holder the commit touches.
func (r *commitRun) collect() {
	var dels, stubs []writeEntry
	for _, primary := range r.dirtyList {
		st := r.verts[primary]
		if !st.deleted {
			r.ws = append(r.ws, writeEntry{vs: st, g: &st.guard, head: primary, blocks: chainOf(primary, st.blocks)})
			continue
		}
		dels = append(dels, writeEntry{vs: st, g: &st.guard, head: primary, free: chainOf(primary, st.blocks), drop: st.v.Replicas, poison: !st.isNew})
		for _, h := range st.v.Homes {
			stubs = append(stubs, writeEntry{g: new(guard), head: h, free: []fabric.DPtr{h}, poison: true})
		}
	}
	for _, es := range r.edges {
		switch {
		case es.deleted:
			dels = append(dels, writeEntry{es: es, g: &es.guard, head: es.primary, free: chainOf(es.primary, es.blocks), poison: !es.isNew})
		case es.dirty:
			r.ws = append(r.ws, writeEntry{es: es, g: &es.guard, head: es.primary, blocks: chainOf(es.primary, es.blocks)})
		}
	}
	r.rewrites = len(r.ws)
	r.ws = append(append(r.ws, dels...), stubs...)
}

// lock write-locks the whole write set — every rewritten or deleted vertex
// and heavy-edge holder, and the stub words of deleted vertices — as one
// vectored CAS train per owner rank, in globally sorted (deadlock-free)
// order. Each word is seeded with the version its holder was read at (a
// holder this transaction created, and a stub, at 0), so an uncontended
// train takes one round per owner rank. A stub is locked so that the
// release of its poison bumps its version and every cached or optimistic
// reader of it revalidates. Contention fails the whole train, which rolls
// its partial acquisitions back itself. The train takes a word at whatever
// version it finds; validateReads fails the commit when that is not the
// version read.
// Each guard remembers the version it is held at: the release train seeds
// its CAS with it and converges in one round per rank.
func (r *commitRun) lock() error {
	train := make([]locks.TrainLock, len(r.ws))
	for i, w := range r.ws {
		train[i] = locks.TrainLock{Word: r.eng.lockWordOf(w.head), Ver: w.g.ver}
	}
	vers, err := locks.AcquireWriteTrain(r.rank, train, r.eng.cfg.LockTries)
	if err != nil {
		return fmt.Errorf("commit lock train over %d words: %w", len(train), err)
	}
	for i, w := range r.ws {
		w.g.held, w.g.lockVer = true, vers[i]
	}
	return nil
}

// validateReads validates the read set: the transaction serializes at this
// instant iff every holder it read still carries the version it was read at.
// A word the lock train holds passes when the train took it at that version;
// every other word is loaded, one atomic-load train per owner rank. A
// version that moved means a writer committed since the read — the
// optimistic abort of §3.8. A word another transaction holds at the version
// read fails a writing transaction, which could otherwise serialize both
// before and after that writer; a read-only one passes, since the content it
// read is still the latest committed state and it serializes before the
// writer (torn reads were already rejected by the seqlock double-check).
// An entry may name a rank's forwarding word at version 0 (a LIMIT hop's
// unread vertices, Tx.FilterFrontier): it rides that rank's train, and any
// stub published on the rank since fails it.
func (r *commitRun) validateReads() error {
	reads := r.optReads
	if len(r.ws) > 0 {
		// Drop the entries the lock train vouches for (in place: the
		// transaction ends with this commit).
		reads = reads[:0]
		for _, rd := range r.optReads {
			g := r.heldGuard(rd.dp)
			switch {
			case g == nil:
				reads = append(reads, rd)
			case g.lockVer != rd.ver:
				return r.readMoved(rd, g.lockVer)
			}
		}
	}
	if len(reads) == 0 {
		return nil
	}
	// A transaction that expanded frontiers validates out of the arena it
	// already holds; any other takes a pooled reader.
	var cr *chainReader
	if r.frontier != nil {
		cr = &r.frontier.chainReader
	} else {
		fs := getReadScratch()
		defer fs.release()
		cr = &fs.chainReader
	}
	cr.dps = cr.dps[:0]
	for _, rd := range reads {
		cr.dps = append(cr.dps, rd.dp)
	}
	words := cr.load(r.eng, r.rank)
	writes := len(r.ws) > 0
	for i, rd := range reads {
		if got := words[i]; locks.Version(got) != rd.ver || writes && locks.WriteHeld(got) {
			return r.readMoved(rd, locks.Version(got))
		}
	}
	return nil
}

// heldGuard returns the guard of the holder at dp when this commit's lock
// train holds its word, and nil otherwise.
func (r *commitRun) heldGuard(dp fabric.DPtr) *guard {
	if st := r.verts[dp]; st != nil && st.held {
		return &st.guard
	}
	if es := r.edges[dp]; es != nil && es.held {
		return &es.guard
	}
	return nil
}

// readMoved fails the validation of read-set entry rd, whose word now
// carries version got (or a foreign writer).
func (r *commitRun) readMoved(rd optRead, got uint64) error {
	r.eng.optAborts.Add(1)
	if rd.dp.Off() == 0 {
		return fmt.Errorf("validating rank %d's forwarding word: version %d, read at 0: %w", rd.dp.Rank(), got, locks.ErrContended)
	}
	return fmt.Errorf("validating the read of %v: version %d, read at %d: %w", rd.dp, got, rd.ver, locks.ErrContended)
}

// layout encodes every rewrite and acquires the extra blocks its new
// encoding needs.
func (r *commitRun) layout() (err error) {
	bs := r.eng.cfg.BlockSize
	for i := range r.ws[:r.rewrites] {
		w := &r.ws[i]
		if w.vs != nil {
			w.stream, w.fan, w.drop = r.encodeForCommit(w.vs, bs)
		} else {
			w.stream = holder.EncodeEdge(w.es.e, bs)
		}
		if w.blocks, w.free, err = r.eng.layoutChain(r.rank, w.head.Rank(), w.stream, w.blocks, &r.acquired); err != nil {
			return err
		}
	}
	return nil
}

// reserve reserves the internal-index entries of the new vertices. It is
// the last step that can fail (the DHT heap is finite), so it sits here,
// where failure still unwinds cleanly, and not in the publish step after
// the write-back, where a full index used to leave a stored vertex nobody
// could find. A reader that finds an entry early runs into the vertex's
// exclusive lock, held since the lock train, exactly as it does between
// publish and release.
func (r *commitRun) reserve() error {
	for i, w := range r.ws[:r.rewrites] {
		if w.vs != nil && w.vs.isNew && !r.eng.index.Insert(r.rank, w.vs.v.AppID, uint64(w.head)) {
			return fmt.Errorf("%w: internal index full publishing vertex %d", ErrNoMemory, w.vs.v.AppID)
		}
		r.reserved = i + 1
	}
	return nil
}

// mark mirror-marks the follower words of every kept follower group — one
// vectored CAS train per follower rank across the whole transaction. The
// primary write locks are already held, so no competing mirror train can
// race; a mark that fails means the follower fell out of lockstep (reseed
// raced, earlier fan-out died) and that group is skipped and its directory
// entry dropped — the commit itself never blocks on a follower. Its stale
// listing in the primary's group table is harmless: every later fan-out
// fails the same CAS and drops it again. Marked groups get the new content
// through the same write-back as the primary blocks and are
// released to the primary's new version after the primary's own release:
// primary-then-follower order end to end.
func (r *commitRun) mark() {
	for _, w := range r.ws {
		for _, g := range w.fan {
			r.mirWords, r.mirVers = append(r.mirWords, r.eng.lockWordOf(g[0])), append(r.mirVers, w.vs.lockVer)
		}
	}
	marked := r.eng.markFollowers(r.rank, r.mirWords, r.mirVers)
	r.mirWords, r.mirVers, _ = splitHeld(r.mirWords, r.mirVers, marked)
	for i := range r.ws {
		w := &r.ws[i]
		var kept [][]fabric.DPtr
		for _, g := range w.fan {
			if marked[0] {
				kept = append(kept, g)
			} else {
				// Out of lockstep, or on a dead rank: retire the copy.
				if fr, pr := g[0].Rank(), w.head; !r.eng.isDead(fr) {
					runIsolated(func() { r.eng.replDirDrop(r.rank, fr, pr) })
				}
				r.eng.replicaDrops.Add(1)
			}
			marked = marked[1:]
		}
		w.fan = kept
	}
}

// writeBack writes every rewrite with its follower fan-out, every deletion
// poison (a zeroed primary header, so stale DPtrs fail cleanly), and a
// poisoned head for every follower group a rewrite reshapes away or a
// deletion takes with it (a local replica read then fails the replica-flag
// check and falls back). The transaction lands its whole write set itself,
// as one isolated vectored PUT train per owner rank (writeBackByRank).
func (r *commitRun) writeBack() {
	bs := r.eng.cfg.BlockSize
	var wb writeList
	for _, w := range r.ws {
		if w.stream != nil {
			wb.appendChainWrites(w.stream, w.blocks, w.fan, bs)
		} else if w.poison {
			wb.put(w.head, make([]byte, holder.HeaderSize))
		}
		for _, g := range w.drop {
			if len(g) > 0 && !r.eng.isDead(g[0].Rank()) {
				wb.put(g[0], make([]byte, holder.HeaderSize))
			}
		}
	}
	r.eng.writeBackByRank(r.rank, &wb)
}

// dropFollowers retires the dropped follower groups once their poison has
// landed: it returns their blocks and clears the follower ranks' directory
// entries.
func (r *commitRun) dropFollowers() {
	for _, w := range r.ws {
		r.eng.dropFollowerGroups(r.rank, w.head, w.drop)
	}
}

// publish adds new and relabeled vertices to the explicit indexes and
// retracts deleted ones from both indexes — all under the vertices'
// exclusive locks, which is what lets migration assume the internal index
// changes a key only under its vertex's lock. New vertices have been
// findable through the internal index since prepare, but no reader gets
// past their locks before the release. The stored labels are the fetched
// view's; a vertex whose labels were edited diffs them against its region.
func (r *commitRun) publish() {
	var was, is [8]lpg.LabelID
	for _, w := range r.ws {
		if st := w.vs; st != nil {
			switch {
			case w.stream == nil && !st.isNew:
				r.eng.index.Delete(r.rank, st.v.AppID)
				r.eng.idxRemoveVertex(r.rank, st.primary, lpg.AppendLabels(was[:0], st.view.Entries()))
			case w.stream == nil:
			case st.isNew:
				r.eng.idxAddVertex(r.rank, st.primary, st.v.AppID, lpg.AppendLabels(is[:0], st.v.Entries))
			case st.relabeled:
				old, cur := lpg.AppendLabels(was[:0], st.view.Entries()), lpg.AppendLabels(is[:0], st.v.Entries)
				if !slices.Equal(old, cur) {
					r.eng.idxUpdateLabels(r.rank, st.primary, old, cur)
				}
			}
			st.blocks = w.blocks
		} else if w.es != nil {
			w.es.blocks = w.blocks
		}
	}
}

// release drops every held lock, bumping each word whose block the
// write-back wrote (the retired stubs with their stub bit cleared, so a
// recycler of the block finds a plain word); then the marked follower words
// move to the version the primaries' release just published — one CAS train
// per follower rank, after every primary word is free. A follower rank that
// died mid-commit is absorbed: its words stay marked and promotion's steal
// path (or a reseed) reclaims them.
func (r *commitRun) release() {
	r.eng.fab.FlushAll(r.rank)
	r.releaseLocks(true)
	r.eng.releaseFollowers(r.rank, r.mirWords, r.mirVers, nil)
}

// free returns the excess blocks of reshaped chains and the whole chains of
// deleted holders to their pools only now, so a recycler of a freed primary
// never contends with this commit's lock words.
func (r *commitRun) free() {
	for _, w := range r.ws {
		r.eng.releaseBlocks(r.rank, w.free)
	}
}

// chainOf returns a holder's known chain, or just its primary block for a
// holder this transaction created (whose chain is not laid out yet).
func chainOf(primary fabric.DPtr, blocks []fabric.DPtr) []fabric.DPtr {
	if blocks == nil {
		return []fabric.DPtr{primary}
	}
	return blocks
}

// encodeForCommit encodes a dirty vertex for write-back — its stored edge
// runs copied as they stand, with its appended tail encoded behind them —
// and decides the fate of its follower groups. A
// same-shape rewrite keeps them — the fan-out lands the new content on
// every follower inside this commit. A reshape
// (block count changed) strips the groups from the encoding and retires
// them instead of resizing remote chains on the commit path; a later
// seeding round restores k. The stripped encoding is made from a copy of
// the vertex: until the apply half runs, the groups are still the vertex's,
// and an abort leaves them in lockstep with the primary it did not write.
func (tx *Tx) encodeForCommit(st *vertexState, bs int) (stream []byte, fan, drop [][]fabric.DPtr) {
	stored := &st.stored
	if len(st.v.Replicas) == 0 || st.blocks != nil && holder.VertexBlocksAfter(st.v, stored, bs) == len(st.blocks) {
		return holder.EncodeVertexAfter(st.v, stored, bs), st.v.Replicas, nil
	}
	bare := *st.v
	bare.Replicas = nil
	return holder.EncodeVertexAfter(&bare, stored, bs), nil, st.v.Replicas
}

// Abort discards the transaction (GDI_CloseTransaction with abort
// semantics): new holders' blocks are returned, all locks released, all
// cached state dropped. O(|touched holders|).
func (tx *Tx) Abort() {
	if tx.closed {
		return
	}
	if tx.collective {
		tx.eng.comm.Barrier(tx.rank)
		defer tx.eng.comm.Barrier(tx.rank)
	}
	tx.abortLocked()
}

func (tx *Tx) abortLocked() {
	tx.releaseLocks(false)
	for _, st := range tx.verts {
		if st.isNew {
			tx.eng.store.ReleaseBlock(tx.rank, st.primary)
		}
	}
	for _, es := range tx.edges {
		if es.isNew {
			tx.eng.store.ReleaseBlock(tx.rank, es.primary)
		}
	}
	tx.close()
}

// releaseLocks is the one release path of Commit and Abort: every word the
// commit's lock train holds — its holders' and the stubs its deletions
// retire — drops as one train per owner rank. A word bumps iff applied
// wrote its block: a stream or a poison (a retired stub's word also clears
// its stub bit). A failed prepare wrote nothing, and neither did the
// deletion of a holder created in the same transaction, so their words drop
// at the version they were taken at and no reader of them revalidates. The
// train is seeded with the versions the words are held at, so it converges
// in one round per rank. A transaction that never reached its lock train
// holds nothing.
func (tx *Tx) releaseLocks(applied bool) {
	var words []locks.Word
	var vers []uint64
	var marks []locks.ReleaseMark // nil: every word Written
	for _, w := range tx.run.ws {
		if !w.g.held {
			continue
		}
		w.g.held = false
		words, vers = append(words, tx.eng.lockWordOf(w.head)), append(vers, w.g.lockVer)
		mark := locks.Unwritten
		switch {
		case !applied:
		case w.vs == nil && w.es == nil:
			mark = locks.StubClear
		case w.stream != nil || w.poison:
			mark = locks.Written
		}
		if mark != locks.Written && marks == nil {
			marks = make([]locks.ReleaseMark, len(words)-1, len(tx.run.ws))
		}
		if marks != nil {
			marks = append(marks, mark)
		}
	}
	locks.ReleaseWriteTrainMarked(tx.rank, words, vers, marks)
}

// close marks the transaction finished and returns its frontier arena to the
// pool: a closed Tx someone still holds pins no holder bytes, and the next
// transaction's first hop starts warm.
func (tx *Tx) close() {
	tx.closed = true
	if tx.frontier != nil {
		tx.frontier.release(tx.eng)
		tx.frontier = nil
	}
}
