package core

import (
	"fmt"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/snapshot"
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
	head   fabric.DPtr
	stream []byte          // nil: a deletion
	blocks []fabric.DPtr   // a rewrite's final chain
	free   []fabric.DPtr   // freed after the release: a rewrite's excess blocks, a deletion's chain
	fan    [][]fabric.DPtr // follower groups rewritten in lockstep
	drop   [][]fabric.DPtr // follower groups this commit retires
	poison bool            // a deletion others can see: its head is zeroed
}

// Commit makes the transaction's changes durable and visible
// (GDI_CloseTransaction with commit semantics). The protocol preserves
// atomicity by splitting into a prepare phase that can fail (taking the
// exclusive locks and acquiring every block the write-back needs) and an
// apply phase that cannot: either all dirty holders are written back or
// none (§5.6).
//
// Everything the commit writes is one write set: one entry per rewritten
// or deleted holder, plus one per forwarding stub a deletion retires. Each
// phase walks it once, and each phase's remote traffic is one train per
// owner rank: the deferred upgrades, fresh-vertex locks and stub words
// resolve as one vectored CAS train; every rewrite, poison and follower
// copy flushes as one vectored PUT train — coalesced with concurrent
// committers of the same rank by the engine's group committer; and the
// release, shared with Abort, is one write train and one read train.
// Blocks are freed only after the release.
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
	if tx.critical != nil {
		tx.abortLocked()
		return tx.critical
	}
	if tx.mode == ReadWrite && tx.hasWrites() && tx.MetadataStale() {
		// Metadata is only eventually consistent; a write transaction that
		// raced a metadata change must abort (§3.8).
		tx.fail(fmt.Errorf("metadata changed during transaction"))
		tx.abortLocked()
		return tx.critical
	}
	if err := tx.validateOptimistic(); err != nil {
		tx.abortLocked()
		return tx.critical
	}

	// The write set: rewrites first (vertices in write-back order, then edge
	// holders), then deletions, then the stubs of deleted vertices that
	// migrated in their lifetime. A deleted holder is dirty, so the dirty
	// vector and the edge map name every holder the commit touches.
	var ws, dels, stubs []writeEntry
	for _, primary := range tx.dirtyList {
		st := tx.verts[primary]
		if !st.deleted {
			ws = append(ws, writeEntry{vs: st, head: primary})
			continue
		}
		dels = append(dels, writeEntry{vs: st, head: primary, free: chainOf(primary, st.blocks), drop: st.v.Replicas, poison: !st.isNew})
		for _, h := range st.v.Homes {
			stubs = append(stubs, writeEntry{head: h, free: []fabric.DPtr{h}, poison: true})
		}
	}
	for _, es := range tx.edges {
		switch {
		case es.deleted:
			dels = append(dels, writeEntry{es: es, head: es.primary, free: chainOf(es.primary, es.blocks), poison: !es.isNew})
		case es.dirty:
			ws = append(ws, writeEntry{es: es, head: es.primary})
		}
	}
	rewrites := len(ws)
	ws = append(append(ws, dels...), stubs...)

	// Prepare, lock train: every deferred exclusive lock — upgrades of
	// read-held words, fresh locks of new vertices, and the stub words of
	// deleted vertices — resolves as one vectored CAS train per owner rank,
	// in globally sorted (deadlock-free) order. A stub is locked so that its
	// poison below bumps its version and every cached or optimistic reader of
	// it revalidates. Contention fails the whole train, which rolls its
	// partial acquisitions back itself; the abort below then drops the
	// still-held read locks. Each upgrade is seeded with the version its read
	// lock was granted at, which cannot have moved since, so an uncontended
	// train takes one round per owner rank.
	var train []locks.TrainLock
	var members []*vertexState // the train's vertices, whose versions it learns
	for _, w := range ws {
		switch st := w.vs; {
		case st == nil && w.es == nil:
			train = append(train, locks.TrainLock{Word: tx.eng.lockWordOf(w.head)})
		case st == nil:
		case st.lock == lockUpgrade:
			train = append(train, locks.TrainLock{Word: tx.eng.lockWordOf(st.primary), FromRead: true, Ver: st.ver})
			members = append(members, st)
		case st.lock == lockNone && st.isNew:
			train = append(train, locks.TrainLock{Word: tx.eng.lockWordOf(st.primary)})
			members = append(members, st)
		}
	}
	vers, err := locks.AcquireWriteTrain(tx.rank, train, tx.eng.cfg.LockTries)
	if err != nil {
		tx.fail(fmt.Errorf("commit lock train over %d words: %w", len(train), err))
		tx.abortLocked()
		return tx.critical
	}
	// Remember each word's version: the release train seeds its CAS with it
	// and converges in one round per rank instead of re-learning values this
	// train already observed. Stub words come last in the train.
	for i, st := range members {
		st.lock = lockWrite
		st.lockVer = vers[i]
	}
	for i := len(members); i < len(train); i++ {
		tx.stubWords = append(tx.stubWords, train[i].Word)
		tx.stubVers = append(tx.stubVers, vers[i])
	}

	// Prepare: encode every rewrite and acquire the extra blocks the new
	// encodings need. Nothing is written yet, so failure aborts cleanly.
	var acquired []fabric.DPtr // for rollback of a failed prepare
	bs := tx.eng.cfg.BlockSize
	fail := func(err error) error {
		for _, dp := range acquired {
			tx.eng.store.ReleaseBlock(tx.rank, dp)
		}
		tx.fail(err)
		tx.abortLocked()
		return tx.critical
	}
	for i := range ws[:rewrites] {
		w := &ws[i]
		var old []fabric.DPtr
		if w.vs != nil {
			w.stream, w.fan, w.drop = tx.encodeForCommit(w.vs, bs)
			old = w.vs.blocks
		} else {
			w.stream, old = holder.EncodeEdge(w.es.e, bs), w.es.blocks
		}
		if w.blocks, w.free, err = tx.eng.layoutChain(tx.rank, w.head.Rank(), w.stream, chainOf(w.head, old), &acquired); err != nil {
			return fail(err)
		}
	}

	// Prepare, index: reserve the internal-index entries of the new vertices.
	// It is the last step that can fail (the DHT heap is finite), so it sits
	// here, where failure still aborts cleanly, and not in the publish step
	// after the write-back, where a full index used to leave a stored vertex
	// nobody could find. A reader that finds an entry early runs into the
	// vertex's exclusive lock, held since the lock train above, exactly as it
	// does between publish and release.
	for i, w := range ws[:rewrites] {
		if w.vs == nil || !w.vs.isNew {
			continue
		}
		if !tx.eng.index.Insert(tx.rank, w.vs.v.AppID, uint64(w.head)) {
			for _, done := range ws[:i] {
				if done.vs != nil && done.vs.isNew {
					tx.eng.index.Delete(tx.rank, done.vs.v.AppID)
				}
			}
			return fail(fmt.Errorf("%w: internal index full publishing vertex %d", ErrNoMemory, w.vs.v.AppID))
		}
	}

	// HTAP gate: the whole apply phase — first write-back PUT through the
	// final lock release, plus the delta-log append — runs under the commit
	// gate in read mode. AcquireCut holds the gate exclusively while every
	// rank stamps its shard, so a cut never observes a commit whose writes
	// have partially landed or whose delta records straddle the cut's log
	// position. Lock waits above stay outside the gate: a prepare-stage
	// commit holds locks but has written nothing, which stamping tolerates.
	if tx.eng.snap != nil {
		tx.eng.htapGate.RLock()
		defer tx.eng.htapGate.RUnlock()
	}

	// Replica fan-out, mark: mirror-mark the follower words of every kept
	// follower group — one vectored CAS train per follower rank across the
	// whole transaction. The primary write locks are already held, so no
	// competing mirror train can race; a mark that fails means the follower
	// fell out of lockstep (reseed raced, earlier fan-out died) and that
	// group is skipped and its directory entry dropped — the commit itself
	// never blocks on a follower. Its stale listing in the primary's group
	// table is harmless: every later fan-out fails the same CAS and drops it
	// again. Marked groups get the new content through the same
	// group-committer train as the primary blocks below and are released to
	// the primary's new version after the primary's own release:
	// primary-then-follower order end to end.
	var fanWords []locks.Word
	var fanVers []uint64
	for _, w := range ws {
		for _, g := range w.fan {
			fanWords, fanVers = append(fanWords, tx.eng.lockWordOf(g[0])), append(fanVers, w.vs.lockVer)
		}
	}
	marked := tx.eng.markFollowers(tx.rank, fanWords, fanVers)
	var mirWords []locks.Word // the marked follower words, for the release
	var mirVers []uint64
	at := 0
	for i := range ws {
		w := &ws[i]
		var kept [][]fabric.DPtr
		for _, g := range w.fan {
			if marked[at] {
				kept = append(kept, g)
				mirWords, mirVers = append(mirWords, fanWords[at]), append(mirVers, fanVers[at])
			} else {
				// Out of lockstep, or on a dead rank: retire the copy.
				if fr, pr := g[0].Rank(), w.head; !tx.eng.isDead(fr) {
					runIsolated(func() { tx.eng.replDirDrop(tx.rank, fr, pr) })
				}
				tx.eng.replicaDrops.Add(1)
			}
			at++
		}
		w.fan = kept
	}

	// Apply, write-back: every rewrite with its follower fan-out, every
	// deletion poison (a zeroed primary header, so stale DPtrs fail
	// cleanly), and a poisoned head for every follower group a rewrite
	// reshapes away or a deletion takes with it (a local replica read then
	// fails the replica-flag check and falls back). This phase cannot fail.
	// The transaction's whole write set goes to the rank's group committer,
	// which flushes it — merged with any concurrently committing
	// transactions of this rank — as one vectored PUT train per owner rank.
	var wb writeList
	for _, w := range ws {
		if w.stream != nil {
			wb.appendChainWrites(w.stream, w.blocks, w.fan, bs)
		} else if w.poison {
			wb.put(w.head, make([]byte, holder.HeaderSize))
		}
		for _, g := range w.drop {
			if len(g) > 0 && !tx.eng.isDead(g[0].Rank()) {
				wb.put(g[0], make([]byte, holder.HeaderSize))
			}
		}
	}
	tx.eng.groupWriteBack(tx.rank, wb.dps, wb.data)

	// Retire dropped follower groups now that their poison has landed: return
	// the blocks and clear the follower ranks' directory entries.
	for _, w := range ws {
		tx.eng.dropFollowerGroups(tx.rank, w.head, w.drop)
	}

	// Delta log: one record per created, rewritten, or deleted vertex,
	// routed to the rank owning its primary block. The record carries the
	// committed holder's full inline edge list verbatim, so the incremental
	// CSR fold replaces adjacency wholesale without diffing. Appended inside
	// the gate, after the write-back, so the records and the block state a
	// cut observes always agree.
	if snap := tx.eng.snap; snap != nil {
		byRank := make(map[fabric.Rank][]snapshot.Record)
		for _, w := range ws {
			st := w.vs
			if st == nil || w.stream == nil && st.isNew {
				continue
			}
			rec := snapshot.Record{Kind: snapshot.KindUpdate, DP: st.primary, App: st.v.AppID, Edges: st.v.Edges}
			switch {
			case w.stream == nil:
				rec.Kind, rec.Edges = snapshot.KindDelete, nil
			case st.isNew:
				rec.Kind = snapshot.KindCreate
			}
			byRank[st.primary.Rank()] = append(byRank[st.primary.Rank()], rec)
		}
		for r, recs := range byRank {
			snap.AppendDeltas(r, recs)
		}
	}

	// Apply, index: publish new and relabeled vertices in the explicit
	// indexes and retract deleted ones from both indexes — all under the
	// vertices' exclusive locks, which is what lets migration assume the
	// internal index changes a key only under its vertex's lock. New
	// vertices have been findable through the internal index since prepare,
	// but no reader gets past their locks before the release below.
	for _, w := range ws {
		if st := w.vs; st != nil {
			switch {
			case w.stream == nil && !st.isNew:
				tx.eng.index.Delete(tx.rank, st.v.AppID)
				tx.eng.idxRemoveVertex(tx.rank, st.primary, st.origLabel)
			case w.stream == nil:
			case st.isNew:
				tx.eng.idxAddVertex(tx.rank, st.primary, st.v.AppID, st.v.Labels)
			case !labelSetsEqual(st.origLabel, st.v.Labels):
				tx.eng.idxUpdateLabels(tx.rank, st.primary, st.origLabel, st.v.Labels)
			}
			st.blocks = w.blocks
		} else if w.es != nil {
			w.es.blocks = w.blocks
		}
	}

	// Release: every held lock drops (the retired stubs with their stub bit
	// cleared, so a recycler of the block finds a plain word); then the
	// marked follower words move to the version the primaries' release just
	// published — one CAS train per follower rank, after every primary word
	// is free. A follower rank that died mid-commit is absorbed: its words
	// stay marked and promotion's steal path (or a reseed) reclaims them.
	tx.eng.fab.FlushAll(tx.rank)
	tx.releaseLocks(locks.StubClear)
	tx.eng.releaseFollowers(tx.rank, mirWords, mirVers)

	// Free: the excess blocks of reshaped chains and the whole chains of
	// deleted holders go back to their pools only now, so a recycler of a
	// freed primary never contends with this commit's lock words.
	for _, w := range ws {
		for _, dp := range w.free {
			tx.eng.store.ReleaseBlock(tx.rank, dp)
		}
	}
	tx.noteCommitted(members)
	tx.close()
	return nil
}

// chainOf returns a holder's known chain, or just its primary block for a
// holder this transaction created (whose chain is not laid out yet).
func chainOf(primary fabric.DPtr, blocks []fabric.DPtr) []fabric.DPtr {
	if blocks == nil {
		return []fabric.DPtr{primary}
	}
	return blocks
}

// encodeForCommit encodes a dirty vertex for write-back and decides the fate
// of its follower groups. A same-shape rewrite under a train-acquired write
// lock keeps them — the fan-out lands the new content on every follower
// inside this commit. A reshape (block count changed) strips the groups
// from the encoding and retires them instead of resizing remote chains on
// the commit path; a later seeding round restores k.
func (tx *Tx) encodeForCommit(st *vertexState, bs int) (stream []byte, fan, drop [][]fabric.DPtr) {
	if len(st.v.Replicas) == 0 {
		return holder.EncodeVertex(st.v, bs), nil, nil
	}
	if st.lock == lockWrite && st.blocks != nil && holder.VertexBlocks(st.v, bs) == len(st.blocks) {
		return holder.EncodeVertex(st.v, bs), st.v.Replicas, nil
	}
	drop = st.v.Replicas
	st.v.Replicas = nil
	return holder.EncodeVertex(st.v, bs), nil, drop
}

// validateOptimistic is the commit-time check of the optimistic read tier:
// one atomic-load train per owner rank re-reads the guard word of every
// vertex the transaction fetched, and the transaction serializes at this
// instant iff every recorded version is unchanged. A version that moved
// means a writer committed since the fetch — the optimistic abort of §3.8.
// A guard currently write-held with an unchanged version still validates:
// that writer has not released, so the content this transaction read is
// still the latest committed state and the transaction serializes before
// the writer (torn in-flight fetches were already rejected by the seqlock
// double-check at read time).
func (tx *Tx) validateOptimistic() error {
	if !tx.optimistic() || len(tx.optReads) == 0 {
		return nil
	}
	// A transaction that expanded frontiers validates out of the arena it
	// already holds; any other takes a pooled reader.
	var cr *chainReader
	if tx.frontier != nil {
		cr = &tx.frontier.chainReader
	} else {
		fs := getReadScratch()
		defer fs.release()
		cr = &fs.chainReader
	}
	cr.dps = cr.dps[:0]
	for _, r := range tx.optReads {
		cr.dps = append(cr.dps, r.dp)
	}
	words := cr.load(tx.eng, tx.rank)
	for i, r := range tx.optReads {
		if got := locks.Version(words[i]); got != r.ver {
			tx.eng.optAborts.Add(1)
			return tx.fail(fmt.Errorf("optimistic validation of %v: version %d, read at %d: %w",
				r.dp, got, r.ver, locks.ErrContended))
		}
	}
	return nil
}

func (tx *Tx) hasWrites() bool {
	if len(tx.dirtyList) > 0 {
		return true
	}
	for _, es := range tx.edges {
		if es.dirty || es.deleted {
			return true
		}
	}
	for _, st := range tx.verts {
		if st.deleted {
			return true
		}
	}
	return false
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
	// An aborted write release bumps the primary's version without changing
	// content; lockstep followers track the bump so they keep serving reads
	// (read releases don't bump, so lockUpgrade is exempt).
	var bump []*vertexState
	var fresh []fabric.DPtr
	for _, st := range tx.verts {
		if st.isNew {
			fresh = append(fresh, st.primary)
		} else if st.lock == lockWrite && len(st.v.Replicas) > 0 {
			bump = append(bump, st)
		}
	}
	tx.releaseLocks(locks.StubKeep)
	for _, st := range bump {
		tx.eng.bumpMirrors(tx.rank, st.v, st.lockVer)
	}
	for _, dp := range fresh {
		tx.eng.store.ReleaseBlock(tx.rank, dp)
	}
	for _, es := range tx.edges {
		if es.isNew {
			tx.eng.store.ReleaseBlock(tx.rank, es.primary)
		}
	}
	tx.close()
}

// releaseLocks is the one release path of Commit and Abort: every word the
// transaction holds drops, the write-held ones — its vertices and the stubs
// its deletions locked, whose stub bit is published as stub asks — as one
// marked train per owner rank, then the read-held ones as one train per
// owner rank. Each train is seeded with the versions the words are held at,
// so it converges in one round per rank.
func (tx *Tx) releaseLocks(stub locks.StubMark) {
	var wWords, rWords []locks.Word
	var wVers, rVers []uint64
	for _, st := range tx.verts {
		switch st.lock {
		case lockWrite:
			wWords = append(wWords, tx.eng.lockWordOf(st.primary))
			wVers = append(wVers, st.lockVer)
		case lockRead, lockUpgrade: // an upgrade not yet granted holds a read lock
			rWords = append(rWords, tx.eng.lockWordOf(st.primary))
			rVers = append(rVers, st.ver)
		default:
			continue
		}
		st.lock = lockNone
	}
	var marks []locks.StubMark // nil: every stub bit is kept
	if len(tx.stubWords) > 0 {
		marks = make([]locks.StubMark, len(wWords), len(wWords)+len(tx.stubWords))
		for range tx.stubWords {
			marks = append(marks, stub)
		}
		wWords = append(wWords, tx.stubWords...)
		wVers = append(wVers, tx.stubVers...)
		tx.stubWords, tx.stubVers = nil, nil
	}
	locks.ReleaseWriteTrainMarked(tx.rank, wWords, wVers, marks)
	locks.ReleaseReadTrainAt(tx.rank, rWords, rVers)
}

// close marks the transaction finished and lets go of its frontier arena: a
// closed Tx someone still holds pins no holder bytes.
func (tx *Tx) close() {
	tx.closed = true
	tx.frontier = nil
}

func labelSetsEqual(a, b []lpg.LabelID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
