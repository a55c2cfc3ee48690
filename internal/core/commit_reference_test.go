package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
	"github.com/gdi-go/gdi/internal/snapshot"
)

// referenceCommit is the Commit the one-write-set commit replaced: deletions
// ride a second path — their own stub lock train, separate walks of the
// transaction's maps for poisons, follower drops, delta records and frees,
// and four write-release trains — and the index retract runs after the
// release. It is the oracle TestCommitMatchesReference checks Commit
// against; its failure paths abort through referenceAbort.
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
	if err := tx.validateOptimistic(); err != nil {
		referenceAbort(tx)
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
			tx.fail(fmt.Errorf("commit lock train over %d words: %w", len(train), err))
			referenceAbort(tx)
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
				referenceAbort(tx)
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
			} else if !slices.Equal(st.origLabel, st.v.Labels) {
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

// referenceAbort is the abort the shared release path replaced: one read or
// write release train per held vertex, each replicated write followed by its
// mirror bump.
func referenceAbort(tx *Tx) {
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
			err = h.st.materialize()
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
		// releases that write lock and bumps the follower.
		prep: func(_ *testing.T, w *commitWorld) { w.drain(1) },
		run: func(tx *Tx, w *commitWorld) error {
			if err := w.setPayload(tx, w.replica, 1, 3); err != nil {
				return err
			}
			return w.setPayload(tx, w.v(1, 3), 1, 40)
		}},
	{name: "abort-after-upgrades", abort: true, saved: 2, // five read locks on three ranks: one train per rank
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
		// A reader on rank 2 holds the rank-1 vertex the measured
		// transaction upgrades, so its lock train fails after taking the
		// rank-3 upgrade and the fresh vertex's word, and rolls them back.
		prep: func(t *testing.T, w *commitWorld) {
			if _, err := w.e.StartLocal(2, ReadWrite).AssociateVertex(w.v(1, 2)); err != nil {
				t.Fatal(err)
			}
		},
		run: func(tx *Tx, w *commitWorld) error {
			if _, err := tx.CreateVertex(102); err != nil {
				return err
			}
			if err := w.setPayload(tx, w.v(1, 2), 1, 3); err != nil {
				return err
			}
			return w.setPayload(tx, w.v(3, 1), 1, 3)
		}},
	{name: "replica-reshape-abort", wantErr: ErrNoMemory,
		// The reshape leaves the follower group out of its encoding; the
		// index reservation then fails, and the abort bumps that follower
		// with its primary.
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
// block payloads, free lists, lock words, the internal index — and, with
// HTAP on, every delta log identical. The last close must issue the same
// remote traffic, less the atomic trains a scenario saves by locking or
// releasing in one train per owner rank what the reference splits.
func TestCommitMatchesReference(t *testing.T) {
	for _, c := range commitCases {
		t.Run(c.name, func(t *testing.T) {
			type outcome struct {
				log *windowLog
				e   *Engine
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
				return outcome{log, e, fmt.Sprint(err), tr}
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
			if !c.htap {
				return
			}
			for r := 0; r < 4; r++ {
				rank := fabric.Rank(r)
				gs, ws := got.e.Snapshots(), want.e.Snapshots()
				gd, gerr := gs.Deltas(rank, 0, gs.LogLen(rank))
				wd, werr := ws.Deltas(rank, 0, ws.LogLen(rank))
				if gerr != nil || werr != nil || !reflect.DeepEqual(gd, wd) {
					t.Errorf("rank %d: delta log of %d records differs from the reference's %d (%v, %v)", r, len(gd), len(wd), gerr, werr)
				}
			}
		})
	}
}

// TestAbortReleasesOneTrainPerRank is the release path's traffic contract.
// Rank 0 read-locks k vertices spread over three remote ranks. Abort drops
// them in one seeded read-release train per owner rank — 3 trains, k
// atomics — where the reference pays one train per vertex. A commit that
// upgrades half of them, creates a local vertex and then fails reserving
// its index entry costs its lock train (one seeded round per rank) and two
// release trains per rank, the write train and the read train, where the
// reference pays its lock train and one release train per vertex. Both
// issue the same atomics.
func TestAbortReleasesOneTrainPerRank(t *testing.T) {
	const remotes = 3
	// abort read-locks k vertices on ranks 1, 2 and 3 and closes the
	// transaction with close. With fail set it upgrades half of them and
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
		var cerr error
		tr := measure(e, func() { cerr = ops.commit(tx) })
		if !errors.Is(cerr, ErrNoMemory) {
			t.Fatalf("k=%d: commit into a full index returned %v, want ErrNoMemory", k, cerr)
		}
		return tr
	}
	for _, k := range []int{6, 48} {
		got, ref := abort(k, false, liveOps), abort(k, false, refOps)
		if want := (traffic{atoms: int64(k), atomTrains: remotes}); got != want {
			t.Errorf("k=%d: Abort %+v, want %+v", k, got, want)
		}
		if want := (traffic{atoms: int64(k), atomTrains: int64(k)}); ref != want {
			t.Errorf("k=%d: reference abort %+v, want %+v", k, ref, want)
		}
		got, ref = abort(k, true, liveOps), abort(k, true, refOps)
		if got.atoms != ref.atoms || got.atomTrains != 3*remotes || ref.atomTrains != remotes+int64(k) {
			t.Errorf("k=%d: failed commit issued %d remote atomics in %d trains, want %d in %d (the reference: %d in %d, want %d)",
				k, got.atoms, got.atomTrains, ref.atoms, 3*remotes, ref.atoms, ref.atomTrains, remotes+k)
		}
	}
}

// TestAbortedReshapeKeepsFollowerInLockstep: a commit that reshapes a
// replicated vertex and then fails reserving an index entry releases the
// primary's write lock with a version bump. The follower group the reshape
// would have dropped is still the vertex's, so the abort bumps it too, and
// read-only transactions on the follower's rank keep validating.
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
