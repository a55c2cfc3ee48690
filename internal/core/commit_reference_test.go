package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// referenceCommit is the Commit the one-write-set commit replaced: deletions
// ride a second path — their own stub lock train, separate walks of the
// transaction's maps for poisons, follower drops and frees,
// and four write-release trains — and the index retract runs after the
// release. It is the oracle TestCommitMatchesReference checks Commit
// against; its failure paths abort through referenceAbort. Its releases
// follow the version rule Commit follows: a word bumps iff its block was
// written.
func referenceCommit(tx *Tx) error {
	if tx.closed {
		return ErrTxClosed
	}
	if tx.collective {
		tx.eng.comm.Barrier(tx.rank)
		defer tx.eng.comm.Barrier(tx.rank)
	}
	if tx.critical != nil {
		referenceAbort(tx)
		return tx.critical
	}
	if tx.mode == ReadWrite && tx.hasWrites() && tx.MetadataStale() {
		// Metadata is only eventually consistent; a write transaction that
		// raced a metadata change must abort (§3.8).
		tx.fail(fmt.Errorf("metadata changed during transaction"))
		referenceAbort(tx)
		return tx.critical
	}

	// Prepare, lock train: lock every dirty holder — the rewritten and
	// deleted vertices and heavy-edge holders, created ones included — as
	// one vectored CAS train per owner rank, in globally sorted
	// (deadlock-free) order, each word seeded with the version its holder
	// was read at. Contention fails the whole train, which rolls its partial
	// acquisitions back itself.
	var written []writeEntry // the train's vertices, for the translation cache
	var train []locks.TrainLock
	var guards []*guard
	for _, primary := range tx.dirtyList {
		st := tx.verts[primary]
		train = append(train, locks.TrainLock{Word: tx.eng.lockWordOf(primary), Ver: st.ver})
		guards = append(guards, &st.guard)
		written = append(written, writeEntry{vs: st})
	}
	for _, es := range tx.edges {
		if es.dirty || es.deleted {
			train = append(train, locks.TrainLock{Word: tx.eng.lockWordOf(es.primary), Ver: es.ver})
			guards = append(guards, &es.guard)
		}
	}
	vers, err := locks.AcquireWriteTrain(tx.rank, train, tx.eng.cfg.LockTries)
	if err != nil {
		tx.fail(fmt.Errorf("commit lock train over %d words: %w", len(train), err))
		referenceAbort(tx)
		return tx.critical
	}
	// Remember each word's version: the release trains below seed their
	// CAS with it and converge in one round per rank instead of
	// re-learning values this train already observed.
	for i, g := range guards {
		g.held, g.lockVer = true, vers[i]
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
			referenceAbort(tx)
			return tx.critical
		}
		stubVers = vers
		for _, l := range stubTrain {
			stubWords = append(stubWords, l.Word)
		}
	}

	// Prepare, validation: every holder read must still carry the version it
	// was read at. A word the lock train holds is checked against the
	// version the train took it at; the others are loaded, one load train
	// per owner rank, and a writing transaction also fails on a word another
	// writer holds.
	var reads []optRead
	for _, rd := range tx.optReads {
		var g *guard
		if st := tx.verts[rd.dp]; st != nil && st.held {
			g = &st.guard
		} else if es := tx.edges[rd.dp]; es != nil && es.held {
			g = &es.guard
		}
		switch {
		case g == nil:
			reads = append(reads, rd)
		case g.lockVer != rd.ver:
			return referenceReadMoved(tx, rd, g.lockVer, stubWords, stubVers)
		}
	}
	if len(reads) > 0 {
		dps := make([]fabric.DPtr, len(reads))
		for i, rd := range reads {
			dps[i] = rd.dp
		}
		words := make([]uint64, len(reads))
		var trains block.Trains
		tx.eng.store.LockStampsInto(tx.rank, dps, words, &trains)
		for i, rd := range reads {
			if locks.Version(words[i]) != rd.ver || len(train) > 0 && locks.WriteHeld(words[i]) {
				return referenceReadMoved(tx, rd, locks.Version(words[i]), stubWords, stubVers)
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
		locks.ReleaseWriteTrainMarked(tx.rank, stubWords, stubVers, unwritten(len(stubWords)))
		tx.fail(err)
		referenceAbort(tx)
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
	// final lock release — runs under the commit gate in read mode.
	// AcquireCut holds the gate exclusively while every rank stamps its
	// shard, so a cut never observes a commit whose writes have partially
	// landed. Lock waits above stay outside the gate: a prepare-stage
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
	// cannot fail. The transaction's whole write set lands as one isolated
	// vectored PUT train per owner rank.
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
	tx.eng.writeBackByRank(tx.rank, &wb)

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
			labels := lpg.AppendLabels(nil, st.v.Entries)
			if st.isNew {
				tx.eng.idxAddVertex(tx.rank, st.primary, st.v.AppID, labels)
			} else if old := lpg.AppendLabels(nil, st.view.Entries()); !slices.Equal(old, labels) {
				tx.eng.idxUpdateLabels(tx.rank, st.primary, old, labels)
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
	// A vertex created and deleted here was never written: its word drops
	// at the version it was taken at.
	var delWords []locks.Word
	var delVers []uint64
	var delMarks []locks.ReleaseMark
	for _, st := range tx.verts {
		if st.deleted && st.held {
			delWords = append(delWords, tx.eng.lockWordOf(st.primary))
			delVers = append(delVers, st.lockVer)
			delMarks = append(delMarks, writtenIf(!st.isNew))
			st.held = false
		}
	}
	locks.ReleaseWriteTrainMarked(tx.rank, delWords, delVers, delMarks)
	for _, st := range tx.verts {
		if !st.deleted {
			continue
		}
		if !st.isNew {
			tx.eng.index.Delete(tx.rank, st.v.AppID)
			tx.eng.idxRemoveVertex(tx.rank, st.primary, lpg.AppendLabels(nil, st.view.Entries()))
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
	retired := make([]locks.ReleaseMark, len(stubWords))
	for i := range retired {
		retired[i] = locks.StubClear
	}
	locks.ReleaseWriteTrainMarked(tx.rank, stubWords, stubVers, retired)
	for _, h := range stubBlocks {
		tx.eng.store.ReleaseBlock(tx.rank, h)
	}

	tx.eng.fab.FlushAll(tx.rank)

	// Release every remaining lock — the held vertices and heavy-edge
	// holders — as one train per owner rank, each word seeded with the
	// version it is held at; a heavy-edge holder created and deleted here
	// was never written.
	wWords, wVers, wMarks := referenceHeld(tx)
	locks.ReleaseWriteTrainMarked(tx.rank, wWords, wVers, wMarks)

	// Replica fan-out, release: the marked follower words move to the
	// version the primaries' release train just published — one CAS train
	// per follower rank, after every primary word is free. A follower rank
	// that died mid-commit is absorbed: its words stay marked and promotion's
	// steal path (or a reseed) reclaims them.
	for i := range mirWords {
		w, v := mirWords[i], mirVers[i]
		runIsolated(func() { locks.ReleaseMirrorTrain(tx.rank, w, v, nil) })
	}
	tx.noteCommitted(written)
	tx.close()
	return nil
}

// referenceAbort is the abort the shared release path replaced: one write
// release train per held holder. An abort wrote nothing, so every word drops
// at the version it was taken at and followers in lockstep stay there.
func referenceAbort(tx *Tx) {
	for _, st := range tx.verts {
		if st.held {
			locks.ReleaseWriteTrainMarked(tx.rank, []locks.Word{tx.eng.lockWordOf(st.primary)}, []uint64{st.lockVer}, unwritten(1))
			st.held = false
		}
		if st.isNew {
			tx.eng.store.ReleaseBlock(tx.rank, st.primary)
		}
	}
	for _, es := range tx.edges {
		if es.held {
			locks.ReleaseWriteTrainMarked(tx.rank, []locks.Word{tx.eng.lockWordOf(es.primary)}, []uint64{es.lockVer}, unwritten(1))
			es.held = false
		}
		if es.isNew {
			tx.eng.store.ReleaseBlock(tx.rank, es.primary)
		}
	}
	tx.close()
}

// referenceHeld returns the words of the vertices and heavy-edge holders a
// committing transaction holds, with their versions and release marks, and
// marks them released. A holder created and deleted here was never written.
func referenceHeld(tx *Tx) ([]locks.Word, []uint64, []locks.ReleaseMark) {
	var words []locks.Word
	var vers []uint64
	var marks []locks.ReleaseMark
	hold := func(dp fabric.DPtr, g *guard, gone bool) {
		if g.held {
			words, vers = append(words, tx.eng.lockWordOf(dp)), append(vers, g.lockVer)
			marks = append(marks, writtenIf(!gone))
			g.held = false
		}
	}
	for _, st := range tx.verts {
		hold(st.primary, &st.guard, st.deleted && st.isNew)
	}
	for _, es := range tx.edges {
		hold(es.primary, &es.guard, es.deleted && es.isNew)
	}
	return words, vers, marks
}

// writtenIf is the release mark of a word whose block was written iff
// written.
func writtenIf(written bool) locks.ReleaseMark {
	if written {
		return locks.Written
	}
	return locks.Unwritten
}

// unwritten marks n words Unwritten.
func unwritten(n int) []locks.ReleaseMark {
	marks := make([]locks.ReleaseMark, n)
	for i := range marks {
		marks[i] = locks.Unwritten
	}
	return marks
}

// referenceReadMoved fails a commit whose read-set entry rd moved to
// version got: it releases the stubs the commit locked and aborts.
func referenceReadMoved(tx *Tx, rd optRead, got uint64, stubWords []locks.Word, stubVers []uint64) error {
	tx.eng.optAborts.Add(1)
	locks.ReleaseWriteTrainMarked(tx.rank, stubWords, stubVers, unwritten(len(stubWords)))
	tx.fail(fmt.Errorf("validating the read of %v: version %d, read at %d: %w", rd.dp, got, rd.ver, locks.ErrContended))
	referenceAbort(tx)
	return tx.critical
}

// hasWrites reports whether the transaction wrote anything: Commit asks
// whether its write set is empty.
func (tx *Tx) hasWrites() bool {
	if len(tx.dirtyList) > 0 {
		return true
	}
	for _, es := range tx.edges {
		if es.dirty || es.deleted {
			return true
		}
	}
	return false
}

// commitOps is one implementation of a transaction's close: the engine's
// Commit and Abort, or the reference pair.
type commitOps struct {
	commit func(*Tx) error
	abort  func(*Tx)
}

var (
	liveOps = commitOps{(*Tx).Commit, (*Tx).Abort}
	refOps  = commitOps{referenceCommit, referenceAbort}
)

// commitWorld is the history every TestCommitMatchesReference scenario
// starts from, built on four ranks with every commit of the history closed
// by the implementation under test. Vertex k on rank r has application ID
// r + 4k and carries a 3-word payload. The hub, on rank 1, has light edges
// to vertex 1 of every rank and one heavy edge. The migrant moved from
// rank 2 to rank 3 and then to rank 0, so it owns forwarding stubs on two
// ranks. The replicated vertex, on rank 2, has a follower copy on rank 3.
type commitWorld struct {
	e                     *Engine
	ops                   commitOps
	pt                    lpg.PTypeID
	dps                   map[uint64]fabric.DPtr
	hub, migrant, replica fabric.DPtr
	heavy                 fabric.DPtr // the hub's heavy-edge holder
	heavyUID              holder.EdgeUID
}

func (w *commitWorld) v(r, k int) fabric.DPtr { return w.dps[uint64(r+4*k)] }

// run commits one step of the history.
func (w *commitWorld) run(t *testing.T, fn func(tx *Tx) error) {
	t.Helper()
	tx := w.e.StartLocal(0, ReadWrite)
	if err := fn(tx); err != nil {
		w.ops.abort(tx)
		t.Fatal(err)
	}
	if err := w.ops.commit(tx); err != nil {
		t.Fatal(err)
	}
}

// setPayload associates dp and sets its payload to words words of seq.
func (w *commitWorld) setPayload(tx *Tx, dp fabric.DPtr, seq uint64, words int) error {
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		return err
	}
	return h.SetProperty(w.pt, payloadPattern(seq, words))
}

// rewriteFrom commits, from rank r, a payload rewrite of dp: the write a
// concurrent transaction lands between another's read and its commit.
func (w *commitWorld) rewriteFrom(r fabric.Rank, dp fabric.DPtr) error {
	tx := w.e.StartLocal(r, ReadWrite)
	if err := w.setPayload(tx, dp, 9, 3); err != nil {
		w.ops.abort(tx)
		return err
	}
	return w.ops.commit(tx)
}

// fillIndexHome fills the internal-index home of app, so a commit that
// creates app fails reserving its entry.
func (w *commitWorld) fillIndexHome(app uint64) {
	home := w.e.index.HomeRank(app)
	for key := uint64(1 << 40); ; key++ {
		if w.e.index.HomeRank(key) == home && !w.e.index.Insert(0, key, 1) {
			return
		}
	}
}

// reshapeReplicaAndCreate grows the replicated vertex into a reshape, which
// drops its follower group from the encoding, and creates app 101.
func reshapeReplicaAndCreate(tx *Tx, w *commitWorld) error {
	if err := w.setPayload(tx, w.replica, 1, 40); err != nil {
		return err
	}
	_, err := tx.CreateVertex(101)
	return err
}

// drain empties rank r's block pool.
func (w *commitWorld) drain(r fabric.Rank) {
	for {
		if _, err := w.e.store.AcquireBlock(0, r); err != nil {
			return
		}
	}
}

func buildCommitWorld(t *testing.T, e *Engine, ops commitOps) *commitWorld {
	t.Helper()
	w := &commitWorld{e: e, ops: ops, pt: payloadPType(t, e), dps: make(map[uint64]fabric.DPtr)}
	w.run(t, func(tx *Tx) error {
		for app := uint64(0); app < 16; app++ {
			dp, err := tx.CreateVertex(app)
			if err != nil {
				return err
			}
			w.dps[app] = dp
			if err := w.setPayload(tx, dp, app, 3); err != nil {
				return err
			}
		}
		return nil
	})
	w.hub, w.migrant, w.replica = w.v(1, 0), w.v(2, 3), w.v(2, 1)
	w.run(t, func(tx *Tx) error {
		for r := 0; r < 4; r++ {
			if _, err := tx.CreateEdge(w.hub, w.v(r, 1), holder.DirOut, 0); err != nil {
				return err
			}
		}
		uid, err := tx.CreateRichEdge(w.hub, w.v(3, 2), holder.DirOut, nil, []lpg.Property{{PType: w.pt, Value: payloadPattern(7, 2)}})
		w.heavyUID = uid
		return err
	})
	w.run(t, func(tx *Tx) error {
		h, err := tx.AssociateVertex(w.hub)
		if err == nil {
			err = h.st.fold()
		}
		if err == nil {
			w.heavy = h.st.v.Edges[w.heavyUID.Index].Neighbor
			_, err = tx.CreateEdge(w.migrant, w.v(0, 1), holder.DirOut, 0)
		}
		if err == nil {
			_, err = tx.CreateEdge(w.replica, w.v(1, 2), holder.DirUndirected, 0)
		}
		return err
	})
	mustMigrate(t, e, 2+4*3, 3)
	w.migrant = mustMigrate(t, e, 2+4*3, 0)
	if e.replicateAll(3, []uint64{2 + 4*1}, 2) != 1 {
		t.Fatal("seeded no follower copy")
	}
	return w
}

// commitCase is one TestCommitMatchesReference scenario: prep runs outside
// the measured transaction, run mutates it, and the transaction is then
// committed — or aborted, when abort is set.
type commitCase struct {
	name    string
	htap    bool
	abort   bool
	wantErr error // what the commit fails with; nil: it succeeds
	// saved is how many fewer atomic trains the close issues than the
	// reference's: words the reference locks or releases in separate trains
	// share one train per owner rank.
	saved int64
	prep  func(t *testing.T, w *commitWorld)
	run   func(tx *Tx, w *commitWorld) error
}

var commitCases = []commitCase{
	{name: "create-across-ranks", run: func(tx *Tx, w *commitWorld) error {
		var fresh []fabric.DPtr
		for app := uint64(100); app < 104; app++ {
			dp, err := tx.CreateVertex(app)
			if err != nil {
				return err
			}
			fresh = append(fresh, dp)
		}
		for i, dp := range fresh {
			if _, err := tx.CreateEdge(dp, fresh[(i+1)%4], holder.DirOut, 0); err != nil {
				return err
			}
			if _, err := tx.CreateEdge(dp, w.v(i, 2), holder.DirUndirected, 0); err != nil {
				return err
			}
		}
		_, err := tx.CreateRichEdge(fresh[0], fresh[2], holder.DirOut, nil, nil)
		return err
	}},
	{name: "update-same-shape", run: func(tx *Tx, w *commitWorld) error {
		if _, err := tx.AssociateVertex(w.v(1, 2)); err != nil {
			return err
		}
		return w.setPayload(tx, w.v(3, 1), 1, 3)
	}},
	{name: "reshape-grow", run: func(tx *Tx, w *commitWorld) error {
		return w.setPayload(tx, w.v(1, 3), 1, 40)
	}},
	{name: "reshape-shrink",
		prep: func(t *testing.T, w *commitWorld) {
			w.run(t, func(tx *Tx) error { return w.setPayload(tx, w.v(1, 3), 1, 40) })
		},
		run: func(tx *Tx, w *commitWorld) error { return w.setPayload(tx, w.v(1, 3), 2, 1) }},
	{name: "heavy-rewrite", run: func(tx *Tx, w *commitWorld) error {
		h, err := tx.AssociateEdgeHolder(w.heavy)
		if err != nil {
			return err
		}
		return h.SetProperty(w.pt, payloadPattern(8, 20))
	}},
	{name: "heavy-delete", run: func(tx *Tx, w *commitWorld) error { return tx.DeleteEdge(w.heavyUID) }},
	{name: "delete-hub", saved: 1, // the hub's release joins its rank-1 neighbour's
		run: func(tx *Tx, w *commitWorld) error { return tx.DeleteVertex(w.hub) }},
	{name: "delete-migrated", run: func(tx *Tx, w *commitWorld) error { return tx.DeleteVertex(w.migrant) }},
	{name: "replica-update", run: func(tx *Tx, w *commitWorld) error { return w.setPayload(tx, w.replica, 1, 3) }},
	{name: "replica-reshape", run: func(tx *Tx, w *commitWorld) error { return w.setPayload(tx, w.replica, 1, 40) }},
	{name: "replica-delete", run: func(tx *Tx, w *commitWorld) error { return tx.DeleteVertex(w.replica) }},
	{name: "replica-abort", wantErr: ErrNoMemory,
		// The replicated vertex's lock is taken by the train; growing a
		// vertex into an empty pool then fails the commit, whose abort
		// releases that write lock unwritten, the follower's word untouched.
		prep: func(_ *testing.T, w *commitWorld) { w.drain(1) },
		run: func(tx *Tx, w *commitWorld) error {
			if err := w.setPayload(tx, w.replica, 1, 3); err != nil {
				return err
			}
			return w.setPayload(tx, w.v(1, 3), 1, 40)
		}},
	{name: "abort-after-writes", abort: true, // nothing is locked before the commit lock train
		run: func(tx *Tx, w *commitWorld) error {
			for r := 1; r < 4; r++ {
				if err := w.setPayload(tx, w.v(r, 2), 1, 3); err != nil {
					return err
				}
				if _, err := tx.AssociateVertex(w.v(r, 3)); err != nil {
					return err
				}
			}
			return nil
		}},
	{name: "fail-layout", wantErr: ErrNoMemory,
		prep: func(_ *testing.T, w *commitWorld) { w.drain(1) },
		run: func(tx *Tx, w *commitWorld) error {
			if _, err := tx.CreateVertex(102); err != nil {
				return err
			}
			if err := w.setPayload(tx, w.v(3, 1), 1, 3); err != nil {
				return err
			}
			return w.setPayload(tx, w.v(1, 3), 1, 40)
		}},
	{name: "fail-index", wantErr: ErrNoMemory,
		prep: func(_ *testing.T, w *commitWorld) { w.fillIndexHome(101) },
		run: func(tx *Tx, w *commitWorld) error {
			if _, err := tx.CreateVertex(101); err != nil {
				return err
			}
			if _, err := tx.AssociateVertex(w.v(2, 2)); err != nil {
				return err
			}
			return w.setPayload(tx, w.v(3, 1), 1, 3)
		}},
	{name: "fail-lock", wantErr: locks.ErrContended,
		// A committer on rank 2 holds the rank-1 vertex the measured
		// transaction wrote, so its lock train fails after taking the rank-3
		// vertex's and the fresh vertex's words, and rolls them back.
		run: func(tx *Tx, w *commitWorld) error {
			if _, err := tx.CreateVertex(102); err != nil {
				return err
			}
			if err := w.setPayload(tx, w.v(1, 2), 1, 3); err != nil {
				return err
			}
			if err := w.setPayload(tx, w.v(3, 1), 1, 3); err != nil {
				return err
			}
			return w.e.lockWordOf(w.v(1, 2)).TryAcquireWrite(2, 64)
		}},
	{name: "fail-validate-read", wantErr: locks.ErrContended,
		// A vertex the measured transaction only read is rewritten by a
		// commit on rank 1: the validation load train finds it moved, after
		// the lock train took the written vertex's word.
		run: func(tx *Tx, w *commitWorld) error {
			if _, err := tx.AssociateVertex(w.v(2, 2)); err != nil {
				return err
			}
			if err := w.setPayload(tx, w.v(3, 1), 1, 3); err != nil {
				return err
			}
			return w.rewriteFrom(1, w.v(2, 2))
		}},
	{name: "fail-validate-written", wantErr: locks.ErrContended,
		// A vertex the measured transaction wrote is rewritten first by a
		// commit on rank 1: the lock train takes its word at the version
		// that commit published, not the one read.
		run: func(tx *Tx, w *commitWorld) error {
			if err := w.setPayload(tx, w.v(3, 1), 1, 3); err != nil {
				return err
			}
			if err := w.setPayload(tx, w.v(1, 2), 1, 3); err != nil {
				return err
			}
			return w.rewriteFrom(1, w.v(3, 1))
		}},
	{name: "replica-reshape-abort", wantErr: ErrNoMemory,
		// The reshape leaves the follower group out of its encoding; the
		// index reservation then fails, and the abort leaves that follower
		// and its primary at the version they were read at.
		prep: func(_ *testing.T, w *commitWorld) { w.fillIndexHome(101) },
		run:  reshapeReplicaAndCreate},
	// The stubs on ranks 2 and 3 join the lock and release trains there.
	{name: "htap", htap: true, saved: 4, run: func(tx *Tx, w *commitWorld) error {
		dp, err := tx.CreateVertex(103)
		if err != nil {
			return err
		}
		if _, err := tx.CreateEdge(dp, w.v(2, 2), holder.DirOut, 0); err != nil {
			return err
		}
		if err := w.setPayload(tx, w.v(1, 3), 1, 40); err != nil {
			return err
		}
		return tx.DeleteVertex(w.migrant)
	}},
}

// TestCommitMatchesReference is the golden test of the one-write-set
// commit. Each scenario runs on twin engines, one closing every transaction
// of its history with Commit and Abort, the other with the reference pair.
// Both must return the same error and leave every window of every rank —
// block payloads, free lists, lock words, the internal index — identical,
// with HTAP on and off. The last close must issue the same
// remote traffic, less the atomic trains a scenario saves by locking or
// releasing in one train per owner rank what the reference splits.
func TestCommitMatchesReference(t *testing.T) {
	for _, c := range commitCases {
		t.Run(c.name, func(t *testing.T) {
			type outcome struct {
				log *windowLog
				err string
				tr  traffic
			}
			run := func(ops commitOps) outcome {
				log := &windowLog{Transport: rma.New(4)}
				e := NewEngine(log, Config{BlockSize: 64, BlocksPerRank: 1 << 10, LockTries: 64,
					DHTEntriesPerRank: 256, HTAPSnapshots: c.htap})
				w := buildCommitWorld(t, e, ops)
				if c.prep != nil {
					c.prep(t, w)
				}
				tx := e.StartLocal(0, ReadWrite)
				if err := c.run(tx, w); err != nil {
					t.Fatal(err)
				}
				var err error
				tr := measure(e, func() {
					if c.abort {
						ops.abort(tx)
					} else {
						err = ops.commit(tx)
					}
				})
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("commit returned %v, want %v", err, c.wantErr)
				}
				return outcome{log, fmt.Sprint(err), tr}
			}
			got, want := run(liveOps), run(refOps)
			if got.err != want.err {
				t.Errorf("returned %q, the reference %q", got.err, want.err)
			}
			gotBytes, gotWords := got.log.dump()
			wantBytes, wantWords := want.log.dump()
			if !reflect.DeepEqual(gotBytes, wantBytes) {
				t.Error("byte windows (block payloads) differ from the reference's")
			}
			if !reflect.DeepEqual(gotWords, wantWords) {
				t.Error("word windows (free lists, lock words, index) differ from the reference's")
			}
			if want.tr.atomTrains -= c.saved; got.tr != want.tr {
				t.Errorf("traffic %+v, want the reference's less %d atomic trains: %+v", got.tr, c.saved, want.tr)
			}
		})
	}
}

// TestAbortReleasesOneTrainPerRank is the release path's traffic contract.
// Rank 0 associates k vertices spread over three remote ranks. They hold no
// lock, so Abort issues no atomic, nor does the reference's. A commit that
// writes half of them, creates a local vertex and then fails reserving its
// index entry costs its lock train (one seeded round per rank), the load
// train that validates the half it only read, and one release train per
// rank, where the reference pays its lock and load trains and one release
// train per vertex. Both issue the same atomics. Both also keep the version
// contract: the failed commit wrote nothing, so every word it held is free
// at the version it was read at, and a commit that then writes the same
// half moves each of those words exactly one version up and no other.
func TestAbortReleasesOneTrainPerRank(t *testing.T) {
	const remotes = 3
	// abort associates k vertices on ranks 1, 2 and 3 and closes the
	// transaction with close. With fail set it writes half of them and
	// creates a vertex whose index entry cannot be reserved, then commits.
	abort := func(k int, fail bool, ops commitOps) traffic {
		e := NewEngine(rma.New(1+remotes), Config{BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 64, DHTEntriesPerRank: 256})
		label, err := e.DefineLabel("L")
		if err != nil {
			t.Fatal(err)
		}
		setup := e.StartLocal(0, ReadWrite)
		var dps []fabric.DPtr
		for i := 0; i < k; i++ {
			dp, err := setup.CreateVertex(uint64(1 + i%remotes + (1+remotes)*(i/remotes)))
			if err != nil {
				t.Fatal(err)
			}
			dps = append(dps, dp)
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		tx := e.StartLocal(0, ReadWrite)
		hs, err := tx.AssociateVertices(dps)
		if err != nil {
			t.Fatal(err)
		}
		if !fail {
			return measure(e, func() { ops.abort(tx) })
		}
		for _, h := range hs[:k/2] {
			if err := h.AddLabel(label); err != nil {
				t.Fatal(err)
			}
		}
		app := localApp(e)
		for key := uint64(1 << 40); ; key++ {
			if e.index.HomeRank(key) == 0 && !e.index.Insert(0, key, 1) {
				break
			}
		}
		if _, err := tx.CreateVertex(app); err != nil {
			t.Fatal(err)
		}
		read := make([]uint64, k)
		for i, dp := range dps {
			read[i] = versionAt(e, 0, dp)
		}
		// checkWords holds every word free at its read version, plus one for
		// the first written of them.
		checkWords := func(when string, written int) {
			t.Helper()
			for i, dp := range dps {
				want := read[i]
				if i < written {
					want++
				}
				if w := wordAt(e, dp).Stamp(0); locks.WriteHeld(w) || locks.Version(w) != want {
					t.Fatalf("k=%d: word of vertex %d is %#x after %s, want free at version %d", k, i, w, when, want)
				}
			}
		}
		var cerr error
		tr := measure(e, func() { cerr = ops.commit(tx) })
		if !errors.Is(cerr, ErrNoMemory) {
			t.Fatalf("k=%d: commit into a full index returned %v, want ErrNoMemory", k, cerr)
		}
		checkWords("the failed commit", 0)
		redo := e.StartLocal(0, ReadWrite)
		hs, err = redo.AssociateVertices(dps)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs[:k/2] {
			if err := h.AddLabel(label); err != nil {
				t.Fatal(err)
			}
		}
		if err := ops.commit(redo); err != nil {
			t.Fatalf("k=%d: committing the written half: %v", k, err)
		}
		checkWords("a commit writing the first half", k/2)
		return tr
	}
	for _, k := range []int{6, 48} {
		got, ref := abort(k, false, liveOps), abort(k, false, refOps)
		if got != (traffic{}) || ref != (traffic{}) {
			t.Errorf("k=%d: Abort %+v, the reference %+v, want no traffic", k, got, ref)
		}
		got, ref = abort(k, true, liveOps), abort(k, true, refOps)
		if got.atoms != ref.atoms || got.atomTrains != 3*remotes || ref.atomTrains != 2*remotes+int64(k/2) {
			t.Errorf("k=%d: failed commit issued %d remote atomics in %d trains, want %d in %d (the reference: %d in %d, want %d)",
				k, got.atoms, got.atomTrains, ref.atoms, 3*remotes, ref.atoms, ref.atomTrains, 2*remotes+k/2)
		}
	}
}

// TestAbortedReshapeKeepsFollowerInLockstep: a commit that reshapes a
// replicated vertex and then fails reserving an index entry releases the
// primary's write lock without a version bump, having written nothing. The
// follower group the reshape would have dropped is still the vertex's and
// still at the primary's version, so read-only transactions on the
// follower's rank keep validating.
func TestAbortedReshapeKeepsFollowerInLockstep(t *testing.T) {
	for _, c := range []struct {
		name string
		ops  commitOps
	}{{"commit", liveOps}, {"reference", refOps}} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(rma.New(4), Config{BlockSize: 64, BlocksPerRank: 1 << 10, LockTries: 64, DHTEntriesPerRank: 256})
			w := buildCommitWorld(t, e, c.ops)
			w.fillIndexHome(101)
			tx := e.StartLocal(0, ReadWrite)
			if err := reshapeReplicaAndCreate(tx, w); err != nil {
				t.Fatal(err)
			}
			if err := c.ops.commit(tx); !errors.Is(err, ErrNoMemory) {
				t.Fatalf("commit into a full index returned %v, want ErrNoMemory", err)
			}
			served := e.ReplicaReads()
			for i := 0; i < 3; i++ {
				ro := e.StartLocal(3, ReadOnly)
				if _, err := ro.AssociateVertex(w.replica); err != nil {
					t.Fatal(err)
				}
				if err := ro.Commit(); err != nil {
					t.Fatalf("read-only commit %d on the follower's rank: %v", i, err)
				}
			}
			if got := e.ReplicaReads() - served; got != 3 {
				t.Errorf("the follower served %d of 3 reads", got)
			}
			head := followerHead(t, e, 3, w.replica)
			if p, f := versionAt(e, 0, w.replica), versionAt(e, 0, head); f != p {
				t.Errorf("follower word at version %d, its primary's at %d", f, p)
			}
		})
	}
}
