package core

import (
	"fmt"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/snapshot"
)

// Commit makes the transaction's changes durable and visible
// (GDI_CloseTransaction with commit semantics). The protocol preserves
// atomicity by splitting into a prepare phase that can fail (taking the
// exclusive locks and acquiring every block the write-back needs) and an
// apply phase that cannot: either all dirty holders are written back or
// none (§5.6).
//
// The remote traffic of a commit is organized into per-owner-rank trains
// instead of per-word and per-block round-trips: deferred lock upgrades and
// fresh-vertex locks resolve as one vectored CAS train per owner rank, dirty
// holder blocks flush as one vectored PUT train per owner rank — coalesced
// with concurrent committers of the same rank by the engine's group
// committer — and the final lock release is again one train per rank.
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

	// Prepare, lock train: resolve every deferred exclusive lock — upgrades
	// of read-held words and fresh locks of new vertices — as one vectored
	// CAS train per owner rank, in globally sorted (deadlock-free) order.
	// Contention fails the whole train, which rolls its partial
	// acquisitions back itself; the abort below then drops the still-held
	// read locks. Each upgrade is seeded with the version its read lock was
	// granted at, which cannot have moved since, so an uncontended train
	// takes one round per owner rank.
	var members []*vertexState // the train's vertices, whose versions it learns
	if !tx.skipLocks() {
		var train []locks.TrainLock
		for _, primary := range tx.dirtyList {
			st := tx.verts[primary]
			if st == nil {
				continue
			}
			switch {
			case st.lock == lockUpgrade:
				train = append(train, locks.TrainLock{Word: tx.eng.lockWordOf(primary), FromRead: true, Ver: st.ver})
				members = append(members, st)
			case st.lock == lockNone && st.isNew:
				train = append(train, locks.TrainLock{Word: tx.eng.lockWordOf(primary)})
				members = append(members, st)
			}
		}
		vers, err := locks.AcquireWriteTrain(tx.rank, train, tx.eng.cfg.LockTries)
		if err != nil {
			tx.fail(fmt.Errorf("commit lock train over %d vertices: %w", len(train), err))
			tx.abortLocked()
			return tx.critical
		}
		// Remember each word's version: the release trains below seed their
		// CAS with it and converge in one round per rank instead of
		// re-learning values this train already observed.
		for i, st := range members {
			st.lock = lockWrite
			st.lockVer = vers[i]
		}
	}

	// Prepare, stub train: a deleted vertex that migrated in its lifetime
	// still owns the forwarding stubs at its former homes. Deletion retires
	// them with the same discipline as the holder itself: write-lock each
	// stub word (so the poison below bumps its version and every cached or
	// optimistic reader of the stub revalidates), poison in the apply phase,
	// release, and free the blocks. Acquisition can fail, so it belongs to
	// prepare.
	var stubWords []locks.Word
	var stubVers []uint64
	var stubBlocks []fabric.DPtr
	if !tx.skipLocks() {
		var stubTrain []locks.TrainLock
		for _, st := range tx.verts {
			if !st.deleted || st.isNew || st.v == nil {
				continue
			}
			for _, h := range st.v.Homes {
				stubTrain = append(stubTrain, locks.TrainLock{Word: tx.eng.lockWordOf(h)})
				stubBlocks = append(stubBlocks, h)
			}
		}
		if len(stubTrain) > 0 {
			vers, err := locks.AcquireWriteTrain(tx.rank, stubTrain, tx.eng.cfg.LockTries)
			if err != nil {
				tx.fail(fmt.Errorf("commit stub train over %d blocks: %w", len(stubTrain), err))
				tx.abortLocked()
				return tx.critical
			}
			stubVers = vers
			for _, l := range stubTrain {
				stubWords = append(stubWords, l.Word)
			}
		}
	}

	// Prepare: encode every dirty holder and acquire the extra blocks the
	// new encodings need. Nothing is written yet, so failure aborts cleanly.
	type plan struct {
		vs      *vertexState
		es      *edgeState
		stream  []byte
		blocks  []fabric.DPtr   // final block list
		release []fabric.DPtr   // excess blocks to free after apply
		fan     [][]fabric.DPtr // follower groups to rewrite in lockstep
		drop    [][]fabric.DPtr // follower groups this commit retires
	}
	var plans []plan
	var acquired []fabric.DPtr // for rollback of a failed prepare
	bs := tx.eng.cfg.BlockSize

	fail := func(err error) error {
		for _, dp := range acquired {
			tx.eng.store.ReleaseBlock(tx.rank, dp)
		}
		locks.ReleaseWriteTrain(tx.rank, stubWords, stubVers)
		tx.fail(err)
		tx.abortLocked()
		return tx.critical
	}

	for _, primary := range tx.dirtyList {
		st := tx.verts[primary]
		if st == nil || !st.dirty || st.deleted {
			continue
		}
		stream, fan, drop := tx.encodeForCommit(st, bs)
		blocks, release, err := tx.eng.layoutChain(tx.rank, primary.Rank(), stream, chainOf(primary, st.blocks), &acquired)
		if err != nil {
			return fail(err)
		}
		plans = append(plans, plan{vs: st, stream: stream, blocks: blocks, release: release, fan: fan, drop: drop})
	}
	for _, es := range tx.edges {
		if !es.dirty || es.deleted {
			continue
		}
		stream := holder.EncodeEdge(es.e, bs)
		blocks, release, err := tx.eng.layoutChain(tx.rank, es.primary.Rank(), stream, chainOf(es.primary, es.blocks), &acquired)
		if err != nil {
			return fail(err)
		}
		plans = append(plans, plan{es: es, stream: stream, blocks: blocks, release: release})
	}

	// Prepare, index: reserve the internal-index entries of the new vertices.
	// It is the last step that can fail (the DHT heap is finite), so it sits
	// here, where failure still aborts cleanly, and not in the publish step
	// after the write-back, where a full index used to leave a stored vertex
	// nobody could find. A reader that finds an entry early runs into the
	// vertex's exclusive lock, held since the lock train above, exactly as it
	// does between publish and release.
	for pi, pl := range plans {
		if pl.vs == nil || !pl.vs.isNew {
			continue
		}
		if !tx.eng.index.Insert(tx.rank, pl.vs.v.AppID, uint64(pl.vs.primary)) {
			for _, done := range plans[:pi] {
				if done.vs != nil && done.vs.isNew {
					tx.eng.index.Delete(tx.rank, done.vs.v.AppID)
				}
			}
			return fail(fmt.Errorf("%w: internal index full publishing vertex %d", ErrNoMemory, pl.vs.v.AppID))
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
	// never blocks on a follower. Marked groups get the new content through
	// the same group-committer train as the primary blocks below and are
	// released to the primary's new version after the primary's own release:
	// primary-then-follower order end to end.
	type fanRef struct {
		pl    int
		g     int
		group []fabric.DPtr
	}
	fanHeld := make(map[int][][]fabric.DPtr) // plan index → marked groups
	var mirWords [][]locks.Word              // per follower rank, for release
	var mirVers [][]uint64
	if len(plans) > 0 {
		byRank := make(map[fabric.Rank][]fanRef)
		for pi := range plans {
			for gi, g := range plans[pi].fan {
				if len(g) == 0 {
					continue
				}
				fr := g[0].Rank()
				if tx.eng.isDead(fr) {
					tx.eng.replicaDrops.Add(1)
					continue
				}
				byRank[fr] = append(byRank[fr], fanRef{pl: pi, g: gi, group: g})
			}
		}
		for fr, refs := range byRank {
			words := make([]locks.Word, len(refs))
			vers := make([]uint64, len(refs))
			for i, ref := range refs {
				words[i] = tx.eng.lockWordOf(ref.group[0])
				vers[i] = plans[ref.pl].vs.lockVer
			}
			var held []bool
			if !runIsolated(func() { held = locks.AcquireMirrorTrain(tx.rank, words, vers) }) {
				tx.eng.replicaDrops.Add(int64(len(refs)))
				continue
			}
			hw, hv, _ := splitHeld(words, vers, held)
			for i, ref := range refs {
				if held[i] {
					fanHeld[ref.pl] = append(fanHeld[ref.pl], ref.group)
				} else {
					// Out of lockstep: retire the copy. Its stale listing in
					// the primary's group table is harmless — every later
					// fan-out fails the same CAS and drops it again.
					pr := plans[ref.pl].vs.primary
					runIsolated(func() { tx.eng.replDirDrop(tx.rank, fr, pr) })
					tx.eng.replicaDrops.Add(1)
				}
			}
			if len(hw) > 0 {
				mirWords = append(mirWords, hw)
				mirVers = append(mirVers, hv)
			}
		}
	}

	// Apply, write-back: every holder block and every deletion poison (a
	// zeroed primary header, so stale DPtrs fail cleanly). This phase
	// cannot fail. The transaction's whole write set goes to the rank's
	// group committer, which flushes it — merged with any concurrently
	// committing transactions of this rank — as one vectored PUT train per
	// owner rank.
	var wb writeList
	for pi, pl := range plans {
		// Follower fan-out: the marked groups receive the same stream as
		// replicas, riding the same write-back train.
		wb.appendChainWrites(pl.stream, pl.blocks, fanHeld[pi], bs)
		// Reshaped-away groups are poisoned at the head (a local replica read
		// then fails the replica-flag check and falls back) before their
		// blocks are returned below.
		for _, g := range pl.drop {
			if len(g) > 0 && !tx.eng.isDead(g[0].Rank()) {
				wb.put(g[0], make([]byte, holder.HeaderSize))
			}
		}
	}
	// Deleted replicated vertices retire their follower groups the same way:
	// poison the heads under the primary's lock, return the blocks after the
	// train lands.
	var delDrops []plan
	for _, st := range tx.verts {
		if st.deleted && !st.isNew {
			wb.put(st.primary, make([]byte, holder.HeaderSize))
			if st.v != nil && len(st.v.Replicas) > 0 {
				for _, g := range st.v.Replicas {
					if len(g) > 0 && !tx.eng.isDead(g[0].Rank()) {
						wb.put(g[0], make([]byte, holder.HeaderSize))
					}
				}
				delDrops = append(delDrops, plan{vs: st, drop: st.v.Replicas})
			}
		}
	}
	for _, es := range tx.edges {
		if es.deleted && !es.isNew {
			wb.put(es.primary, make([]byte, holder.HeaderSize))
		}
	}
	for _, h := range stubBlocks {
		wb.put(h, make([]byte, holder.HeaderSize))
	}
	tx.eng.groupWriteBack(tx.rank, wb.dps, wb.data)

	// Retire dropped follower groups now that their poison has landed: return
	// the blocks and clear the follower ranks' directory entries.
	for pi := range plans {
		if len(plans[pi].drop) > 0 {
			tx.eng.dropFollowerGroups(tx.rank, plans[pi].vs.primary, plans[pi].drop)
		}
	}
	for _, dd := range delDrops {
		tx.eng.dropFollowerGroups(tx.rank, dd.vs.primary, dd.drop)
	}

	// Delta log: one record per created, rewritten, or deleted vertex,
	// routed to the rank owning its primary block. The record carries the
	// committed holder's full inline edge list verbatim, so the incremental
	// CSR fold replaces adjacency wholesale without diffing. Appended inside
	// the gate, after the write-back, so the records and the block state a
	// cut observes always agree.
	if snap := tx.eng.snap; snap != nil {
		byRank := make(map[fabric.Rank][]snapshot.Record)
		for _, pl := range plans {
			if pl.vs == nil {
				continue
			}
			st := pl.vs
			kind := snapshot.KindUpdate
			if st.isNew {
				kind = snapshot.KindCreate
			}
			r := st.primary.Rank()
			byRank[r] = append(byRank[r], snapshot.Record{Kind: kind, DP: st.primary, App: st.v.AppID, Edges: st.v.Edges})
		}
		for _, st := range tx.verts {
			if st.deleted && !st.isNew {
				rec := snapshot.Record{Kind: snapshot.KindDelete, DP: st.primary}
				if st.v != nil {
					rec.App = st.v.AppID
				}
				r := st.primary.Rank()
				byRank[r] = append(byRank[r], rec)
			}
		}
		for r, recs := range byRank {
			snap.AppendDeltas(r, recs)
		}
	}

	// Apply, publish: release excess blocks and maintain the explicit
	// indexes. New vertices have been findable through the internal index
	// since prepare, but their exclusive locks are still held, so no reader
	// observes them before the write-back above has landed.
	for _, pl := range plans {
		for _, dp := range pl.release {
			tx.eng.store.ReleaseBlock(tx.rank, dp)
		}
		if pl.vs != nil {
			st := pl.vs
			if st.isNew {
				tx.eng.idxAddVertex(tx.rank, st.primary, st.v.AppID, st.v.Labels)
			} else if !labelSetsEqual(st.origLabel, st.v.Labels) {
				tx.eng.idxUpdateLabels(tx.rank, st.primary, st.origLabel, st.v.Labels)
			}
			st.blocks = pl.blocks
		} else {
			pl.es.blocks = pl.blocks
		}
	}

	// Deletions: retract from indexes, unlock (the poison has already been
	// written above, under the lock), then free the storage. Unlocking
	// before the block release keeps a recycler of the freed primary from
	// contending with our stale lock word. Every deleted vertex's exclusive
	// lock drops as one train per owner rank — the paper's demanding
	// deletions write-lock whole neighborhoods, so delete-heavy commits
	// would otherwise pay one release round-trip per vertex.
	var delWords []locks.Word
	var delVers []uint64
	for _, st := range tx.verts {
		if st.deleted && st.lock == lockWrite {
			delWords = append(delWords, tx.eng.lockWordOf(st.primary))
			delVers = append(delVers, st.lockVer)
			st.lock = lockNone
		}
	}
	locks.ReleaseWriteTrain(tx.rank, delWords, delVers)
	for _, st := range tx.verts {
		if !st.deleted {
			continue
		}
		if !st.isNew {
			tx.eng.index.Delete(tx.rank, st.v.AppID)
			tx.eng.idxRemoveVertex(tx.rank, st.primary, st.origLabel)
		}
		for _, dp := range chainOf(st.primary, st.blocks) {
			tx.eng.store.ReleaseBlock(tx.rank, dp)
		}
		st.blocks = nil
	}
	for _, es := range tx.edges {
		if !es.deleted {
			continue
		}
		for _, dp := range chainOf(es.primary, es.blocks) {
			tx.eng.store.ReleaseBlock(tx.rank, dp)
		}
		es.blocks = nil
	}
	// Retire the deleted vertices' forwarding stubs: unlock (the poison
	// above was written under these locks) with the stub bit cleared, so a
	// recycler of the block finds a plain word, then return the blocks.
	retired := make([]locks.StubMark, len(stubWords))
	for i := range retired {
		retired[i] = locks.StubClear
	}
	locks.ReleaseWriteTrainMarked(tx.rank, stubWords, stubVers, retired)
	for _, h := range stubBlocks {
		tx.eng.store.ReleaseBlock(tx.rank, h)
	}

	tx.eng.fab.FlushAll(tx.rank)

	// Release every remaining lock: the held words, partitioned by kind,
	// drop as one train per owner rank and kind, each seeded with the
	// version the word is held at.
	var wWords, rWords []locks.Word
	var wVers, rVers []uint64
	for _, st := range tx.verts {
		switch st.lock {
		case lockWrite:
			wWords = append(wWords, tx.eng.lockWordOf(st.primary))
			wVers = append(wVers, st.lockVer)
		case lockRead, lockUpgrade:
			rWords = append(rWords, tx.eng.lockWordOf(st.primary))
			rVers = append(rVers, st.ver)
		default:
			continue
		}
		st.lock = lockNone
	}
	locks.ReleaseWriteTrain(tx.rank, wWords, wVers)
	locks.ReleaseReadTrainAt(tx.rank, rWords, rVers)

	// Replica fan-out, release: the marked follower words move to the
	// version the primaries' release train just published — one CAS train
	// per follower rank, after every primary word is free. A follower rank
	// that died mid-commit is absorbed: its words stay marked and promotion's
	// steal path (or a reseed) reclaims them.
	for i := range mirWords {
		w, v := mirWords[i], mirVers[i]
		runIsolated(func() { locks.ReleaseMirrorTrain(tx.rank, w, v) })
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
	// already holds; a point read's one-entry read set is not worth one.
	var local chainReader
	cr := &local
	if tx.frontier != nil {
		cr = &tx.frontier.chainReader
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
	for _, st := range tx.verts {
		// An aborted write release bumps the primary's version without
		// changing content; lockstep followers track the bump so they keep
		// serving reads (read releases don't bump, so lockUpgrade is exempt).
		bump := st.lock == lockWrite && !st.isNew && st.v != nil && len(st.v.Replicas) > 0
		tx.unlockState(st)
		if bump {
			tx.eng.bumpMirrors(tx.rank, st.v, st.lockVer)
		}
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
