package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// The placement writers the chain-move steps replaced, kept as the oracle
// TestPlacementMatchesReference checks MigrateVertices, replicateOne and
// promoteOne against. Each writer keeps its own rollback (referenceSkipMove,
// the bail and abandon closures), its own follower marks and its own release
// order; migration does not prune homes on dead ranks. The bodies are the
// engine's methods of before, with the receiver made a parameter and the
// version rule the engine follows: a release bumps a word iff the writer
// wrote its block, so what a writer gives up drops unchanged.

// refMigCand tracks one move through the phases of a migration train.
type refMigCand struct {
	mv       MigrationMove
	word     locks.Word // old primary's lock word
	ver      uint64     // its version while held
	old      chainItem  // the old chain, read under the lock
	v        *holder.Vertex
	dst      fabric.DPtr   // new primary on the destination rank
	homeDst  bool          // dst is a former home: the move overwrites its stub
	fresh    []fabric.DPtr // destination blocks acquired for the move (rollback list)
	secWords []locks.Word  // dst word + stub words of the other homes
	secVers  []uint64
	chain    []fabric.DPtr // the new chain, dst first
	stream   []byte
	ok       bool
	written  bool // its copy and stubs were published
}

// referenceSkipMove drops a candidate after its primary was locked. Its
// primary and the secondary words it took wait for the release train, which
// drops them unchanged, so only its destination blocks are rolled back.
func referenceSkipMove(e *Engine, me fabric.Rank, c *refMigCand) {
	e.migSkips.Add(1)
	for _, dp := range c.fresh {
		e.store.ReleaseBlock(me, dp)
	}
	c.fresh, c.ok = nil, false
}

// referenceMigrateVertices executes one batched migration train: every move must have
// Dest == me. The train write-locks the old primaries with one best-effort
// vectored CAS train (busy vertices are skipped, not retried forever), reads
// the surviving holder chains with batched GETs, locks the destination and
// stub words, publishes the copies plus forwarding stubs with one vectored
// PUT train per owner rank, CAS-swings the DHT entries, and releases all
// locks as one train. It returns how many vertices actually moved; skipped
// moves are counted on the engine (MigrationSkips).
func referenceMigrateVertices(e *Engine, me fabric.Rank, moves []MigrationMove) (int, error) {
	// Candidates: structurally valid moves targeting this rank.
	cands := make([]*refMigCand, 0, len(moves))
	for _, mv := range moves {
		if mv.Dest != me {
			return 0, fmt.Errorf("core: migration move of vertex %d targets rank %d, executed on %d",
				mv.App, mv.Dest, me)
		}
		if !e.validPoolDPtr(mv.Old) || mv.Old.Rank() == me {
			e.migSkips.Add(1)
			continue
		}
		cands = append(cands, &refMigCand{mv: mv, word: e.lockWordOf(mv.Old)})
	}
	if len(cands) == 0 {
		return 0, nil
	}

	// The whole train runs under the HTAP commit gate (read mode, like a
	// commit's apply phase): a cut must never stamp shards while copies,
	// stubs, and index swings have partially landed. The body
	// has no barriers, so gate holders never wait on other ranks.
	if e.snap != nil {
		e.htapGate.RLock()
		defer e.htapGate.RUnlock()
	}

	// Phase 1: best-effort exclusive lock train over the old primaries.
	// A contended vertex is skipped this round — migration is background
	// work and must not stall behind a hot lock.
	train := make([]locks.TrainLock, len(cands))
	for i, c := range cands {
		train[i] = locks.TrainLock{Word: c.word}
	}
	vers, held := locks.AcquireWriteTrainEach(me, train, e.cfg.LockTries)
	live := cands[:0]
	for i, c := range cands {
		if !held[i] {
			e.migSkips.Add(1)
			continue
		}
		c.ver = vers[i]
		live = append(live, c)
	}

	// Phase 2: read the old chains, batched. A poisoned (deleted), forwarded
	// (already migrated) or recycled block means the plan went stale between
	// planning and locking.
	heads := make([]fabric.DPtr, len(live))
	for i, c := range live {
		heads[i] = c.mv.Old
	}
	for i, it := range e.readChains(me, heads, isVertexHead) {
		c := live[i]
		c.old, c.ok = it, it.verdict == readOK
		if !c.ok {
			referenceSkipMove(e, me, c)
		}
	}

	// Phase 3: decode, confirm identity, pick the destination, and lock the
	// secondary words.
	referenceLockMoveTargets(e, me, live)

	// Phase 4: re-encode with the updated home list (the old primary joins
	// it) and lay the stream out over the destination chain.
	bs := e.cfg.BlockSize
	for _, c := range live {
		if !c.ok {
			continue
		}
		c.v.Homes = append(slices.DeleteFunc(c.v.Homes, func(h fabric.DPtr) bool { return h == c.dst }), c.mv.Old)
		c.stream = holder.EncodeVertex(c.v, bs)
		var err error
		if c.chain, _, err = e.layoutChain(me, me, c.stream, []fabric.DPtr{c.dst}, &c.fresh); err != nil {
			referenceSkipMove(e, me, c)
		}
	}

	// Phase 5: publish — the new chains plus a forwarding stub at every
	// vacated block (Homes now lists them all) go out as one vectored PUT
	// train per owner rank. The content lands before any pointer to it is
	// readable: the destination words are still write-held, and the DHT
	// swing below happens after the writes. The release marks every word
	// whose block now holds a stub, and clears the mark of a former home the
	// vertex moves back into; a skipped move's words keep theirs.
	var w writeList
	marks := make(map[locks.Word]locks.ReleaseMark)
	for _, c := range live {
		if !c.ok {
			continue
		}
		c.written = true
		w.appendChainWrites(c.stream, c.chain, nil, bs)
		// One stub buffer serves every vacated home: the batch only reads it.
		stub := holder.EncodeMoved(c.mv.App, c.dst, bs)
		for _, h := range c.v.Homes {
			w.put(h, stub)
			marks[e.lockWordOf(h)] = locks.StubSet
		}
		if c.homeDst {
			marks[e.lockWordOf(c.dst)] = locks.StubClear
		}
	}
	e.store.WriteBlocksBatch(me, w.dps, w.data)

	// Phase 6: swing the DHT entries and move the explicit-index postings.
	migrated, fatal := referenceSwingMoves(e, me, live)

	// Bump the forwarding word of every rank that gains a stub bit, once,
	// before the release shows the stub.
	bumped := make(map[fabric.Rank]bool)
	for w, m := range marks {
		if m == locks.StubSet && !bumped[w.Target] {
			bumped[w.Target] = true
			win, r, idx := e.store.ForwardingWord(w.Target)
			locks.Word{Win: win, Target: r, Idx: idx}.Bump(me)
		}
	}

	// Phase 7: release every lock (bumping the versions of the published
	// moves' words — the invalidation broadcast — and dropping the skipped
	// ones' unchanged), then retire the vacated continuation blocks. The old
	// primary and the other home blocks stay allocated as stubs.
	var relWords []locks.Word
	var relVers []uint64
	var relMarks []locks.ReleaseMark
	for _, c := range live {
		relWords = append(append(relWords, c.word), c.secWords...)
		relVers = append(append(relVers, c.ver), c.secVers...)
		for _, w := range relWords[len(relMarks):] {
			if c.written {
				relMarks = append(relMarks, marks[w])
			} else {
				relMarks = append(relMarks, locks.Unwritten)
			}
		}
	}
	locks.ReleaseWriteTrainMarked(me, relWords, relVers, relMarks)
	for _, c := range live {
		if !c.ok { // skipped, or not swung on the fatal path
			continue
		}
		for _, dp := range c.old.chain()[1:] {
			e.store.ReleaseBlock(me, dp)
		}
	}
	e.fab.FlushAll(me)
	e.migrations.Add(int64(migrated))
	return migrated, fatal
}

// referenceSwingMoves is phase 6 of a migration train: it CAS-swings each published
// move's DHT entry from the old primary to the new one and moves the
// explicit-index postings. It returns how many vertices moved.
func referenceSwingMoves(e *Engine, me fabric.Rank, live []*refMigCand) (migrated int, fatal error) {
	for _, c := range live {
		if !c.ok {
			continue
		}
		if fatal != nil {
			c.ok = false // written but not swung; its vacated chain must not be freed
			continue
		}
		if !e.index.Replace(me, c.mv.App, uint64(c.mv.Old), uint64(c.dst)) {
			// Unreachable while we hold the vertex's exclusive lock (the
			// index entry only changes under it); fail loudly if violated —
			// after the caller's release and block-retire phases, so neither
			// locks nor the already-migrated candidates' blocks leak.
			fatal = fmt.Errorf("core: DHT entry of vertex %d changed under its migration lock", c.mv.App)
			c.ok = false
			continue
		}
		labels := lpg.AppendLabels(nil, c.v.Entries)
		e.idxRemoveVertex(me, c.mv.Old, labels)
		e.local[me].addVertex(c.dst, c.v.AppID, labels)
		migrated++
	}
	return migrated, fatal
}

// referenceLockMoveTargets is phase 3 of a migration train: it decodes each read
// chain, confirms the vertex's identity against the chain and the index,
// picks the destination primary (the former home on this rank if there is
// one — the ABA path — else a fresh block), and write-locks the destination
// word plus every other home's stub word with one best-effort train. A
// candidate missing any of its secondary words is skipped.
func referenceLockMoveTargets(e *Engine, me fabric.Rank, live []*refMigCand) {
	apps := make([]uint64, len(live))
	for i, c := range live {
		apps[i] = c.mv.App
	}
	indexed, found := e.lookupVertices(me, apps)
	var secWords []locks.Word
	for i, c := range live {
		if !c.ok {
			continue
		}
		v, err := holder.DecodeVertex(c.old.buf)
		if err != nil || v.AppID != c.mv.App || !found[i] || indexed[i] != c.mv.Old {
			referenceSkipMove(e, me, c) // not this vertex, or the index no longer names this placement
			continue
		}
		c.v = v
		if len(v.Replicas) > 0 || v.IsReplica {
			// Replicated vertices are pinned in place: moving the primary
			// would strand every follower's lockstep version and directory
			// key. Rebalancing one means dropping its replicas first (a
			// commit-path reshape does that; a later seeding round restores
			// k elsewhere).
			referenceSkipMove(e, me, c)
			continue
		}
		for _, h := range v.Homes {
			if h.Rank() == me {
				c.dst, c.homeDst = h, true
				break
			}
		}
		if c.dst.IsNull() {
			dp, err := e.store.AcquireBlock(me, me)
			if err != nil {
				referenceSkipMove(e, me, c)
				continue
			}
			c.dst, c.fresh = dp, []fabric.DPtr{dp}
		}
		c.secWords = []locks.Word{e.lockWordOf(c.dst)}
		for _, h := range v.Homes {
			if h != c.dst {
				c.secWords = append(c.secWords, e.lockWordOf(h))
			}
		}
		secWords = append(secWords, c.secWords...)
	}
	secTrain := make([]locks.TrainLock, len(secWords))
	for i, w := range secWords {
		secTrain[i] = locks.TrainLock{Word: w}
	}
	secVers, secHeld := locks.AcquireWriteTrainEach(me, secTrain, e.cfg.LockTries)
	at := 0
	for _, c := range live {
		if !c.ok {
			continue
		}
		lo := at
		at += len(c.secWords)
		var all bool
		c.secWords, c.secVers, all = splitHeld(secWords[lo:at], secVers[lo:at], secHeld[lo:at])
		if !all {
			referenceSkipMove(e, me, c) // the release drops the subset it did get
		}
	}
}

// referenceReplicateOne pulls one follower copy of vertex app onto origin, leaving the
// vertex with at most k-1 follower groups. The primary is write-locked for
// the duration (best-effort — a contended vertex is skipped), the chain is
// re-encoded with the new group appended (which may grow the block count: the
// group region participates in the holder's fixed point, so the primary chain
// and every existing group grow in the same train), everything is published
// with one vectored PUT train per rank, and the fresh follower word enters
// lockstep at the version the primary's release bumps to.
func referenceReplicateOne(e *Engine, origin fabric.Rank, app uint64, primary fabric.DPtr, k int) bool {
	if k < 2 {
		return false
	}
	if primary.Rank() == origin || !e.validPoolDPtr(primary) || e.isDead(primary.Rank()) {
		return false
	}
	if _, dup := e.repl[origin].lookup(primary); dup {
		return false
	}
	bs := e.cfg.BlockSize

	word := e.lockWordOf(primary)
	vers, held := locks.AcquireWriteTrainEach(origin, []locks.TrainLock{{Word: word}}, e.cfg.LockTries)
	if !held[0] {
		return false
	}
	pv := vers[0]

	var fresh []fabric.DPtr // rollback list for every block acquired here
	bail := func() bool {
		for _, dp := range fresh {
			e.store.ReleaseBlock(origin, dp)
		}
		// Nothing was written: the primary drops at pv, and every existing
		// follower stays in lockstep with it.
		locks.ReleaseWriteTrainMarked(origin, []locks.Word{word}, []uint64{pv}, unwritten(1))
		return false
	}

	buf, chain := e.readChain(origin, primary, isVertexHead)
	if buf == nil {
		return bail()
	}
	v, err := holder.DecodeVertex(buf)
	if err != nil || v.AppID != app || v.IsReplica {
		return bail()
	}
	if len(v.Replicas) >= k-1 {
		return bail()
	}
	for _, g := range v.Replicas {
		if len(g) == 0 || g[0].Rank() == origin || e.isDead(g[0].Rank()) {
			return bail() // already following here, corrupt group, or dead follower
		}
	}

	// Fixed point with one more group, then allocate: the new group here,
	// plus growth blocks for the primary chain and every existing group when
	// the bigger group region pushed the holder over a block boundary.
	existing := len(v.Replicas)
	v.Replicas = append(v.Replicas, nil)
	need := holder.VertexBlocks(v, bs)
	group, _, err := e.fitChain(origin, origin, nil, need, &fresh)
	if err != nil {
		return bail()
	}
	if chain, _, err = e.fitChain(origin, primary.Rank(), chain, need, &fresh); err != nil {
		return bail()
	}
	for gi, g := range v.Replicas[:existing] {
		if v.Replicas[gi], _, err = e.fitChain(origin, g[0].Rank(), g, need, &fresh); err != nil {
			return bail()
		}
	}
	v.Replicas[existing] = group
	stream := holder.EncodeVertex(v, bs)
	setChainTable(stream, chain)

	// Version monotonicity guard: the fresh follower word will be stored to
	// pv+1. A recycled block whose word already sits above pv would rewind
	// it — skip the vertex instead (rare: most block words sit far below a
	// live vertex's version).
	headWord := e.lockWordOf(group[0])
	if locks.Version(headWord.Stamp(origin)) > pv {
		return bail()
	}

	// Mirror-mark the existing groups: their streams are rewritten too (the
	// group region changes with ours). A mark that fails means lockstep was
	// already broken — abort the seed and leave the vertex as it was.
	gWords := make([]locks.Word, existing)
	gVers := make([]uint64, existing)
	for gi := range gWords {
		gWords[gi] = e.lockWordOf(v.Replicas[gi][0])
		gVers[gi] = pv
	}
	if existing > 0 {
		marked, markedVers, all := splitHeld(gWords, gVers, locks.AcquireMirrorTrain(origin, gWords, gVers))
		if !all {
			locks.ReleaseMirrorTrain(origin, marked, markedVers, unwritten(len(marked))) // back to pv, where bail leaves the primary
			return bail()
		}
	}

	// Publish: the grown primary chain plus every follower stream, one
	// vectored PUT train per rank.
	var w writeList
	w.appendChainWrites(stream, chain, v.Replicas, bs)
	e.store.WriteBlocksBatch(origin, w.dps, w.data)

	// Release in lockstep order; only then does the directory make the copy
	// reachable.
	locks.ReleaseWriteTrain(origin, []locks.Word{word}, []uint64{pv})
	if existing > 0 {
		locks.ReleaseMirrorTrain(origin, gWords, gVers, nil)
	}
	locks.SeedMirrorWord(origin, headWord, pv)
	e.repl[origin].install(primary, replicaEntry{head: group[0], app: app})
	e.reseeds.Add(1)
	return true
}

// referencePromoteOne races one dead primary's followers for the vertex through the
// DHT CAS and, on a win, rewrites this follower's chain as the new primary.
func referencePromoteOne(e *Engine, origin fabric.Rank, it promoteItem, dead map[fabric.Rank]bool) bool {
	bs := e.cfg.BlockSize
	headWord := e.lockWordOf(it.head)

	// My follower word is normally free (the primary that mirror-marks it is
	// dead). A committer that died mid-fan-out can have left it marked — and
	// possibly the content torn — in which case the mark is stolen: nothing
	// will ever complete that fan-out.
	w := headWord.Stamp(origin)
	stolen := locks.WriteHeld(w)
	fv := locks.Version(w)

	cur, swapped, found := e.index.ReplaceFetch(origin, it.app, uint64(it.primary), uint64(it.head))
	if !found {
		// The vertex was deleted. The deleting commit's drop path owns the
		// follower blocks; only the directory entry is ours to clear.
		e.repl[origin].drop(it.primary)
		return false
	}
	if !swapped && fabric.DPtr(cur) != it.head {
		referencePromoteLost(e, origin, it, fabric.DPtr(cur), headWord, stolen, fv)
		return false
	}

	// Won, or resuming an earlier win that swung the entry but died before
	// the rewrite. Take the head word exclusively; a stolen mark already is
	// exclusive possession.
	if !stolen {
		if err := headWord.TryAcquireWrite(origin, e.cfg.LockTries); err != nil {
			return false // local contention; retry on the next PromoteDead
		}
		fv = locks.Version(headWord.Stamp(origin))
	}
	release := func(mark locks.ReleaseMark) {
		locks.ReleaseWriteTrainMarked(origin, []locks.Word{headWord}, []uint64{fv}, []locks.ReleaseMark{mark})
	}
	// abandon gives up on an unusable copy: it releases my word and any
	// sibling marks (content unchanged, so lockstep holds: only a stolen
	// word, whose content may be torn, moves up) and drops the directory
	// entry.
	var sWords []locks.Word
	var sVers []uint64
	abandon := func() bool {
		release(writtenIf(stolen))
		runIsolated(func() { locks.ReleaseMirrorTrain(origin, sWords, sVers, unwritten(len(sWords))) })
		e.repl[origin].drop(it.primary)
		return false
	}

	// Read my chain under the (held or stolen) word. A torn half-fan-out copy
	// fails the read, decode or identity check: the dead rank already lost
	// the vertex's latest state mid-commit, and there is nothing to preserve.
	buf, chain := e.readChain(origin, it.head, holder.IsReplicaBlock)
	var v *holder.Vertex
	err := ErrNotFound
	if buf != nil {
		v, err = holder.DecodeVertex(buf)
	}
	if err != nil || v.AppID != it.app {
		return abandon()
	}

	// Mirror-mark the surviving sibling followers (they are rewritten below
	// into lockstep with the new primary); prune my own group, every group on
	// a dead rank, and any sibling that fails the mark.
	var survivors [][]fabric.DPtr
	for _, g := range v.Replicas {
		if len(g) == 0 || g[0] == it.head || dead[g[0].Rank()] || e.isDead(g[0].Rank()) {
			continue
		}
		held := false
		gw := e.lockWordOf(g[0])
		runIsolated(func() {
			held = locks.AcquireMirrorTrain(origin, []locks.Word{gw}, []uint64{fv})[0]
		})
		if !held {
			e.replicaDrops.Add(1)
			continue
		}
		survivors = append(survivors, g)
		sWords = append(sWords, gw)
		sVers = append(sVers, fv)
	}

	// Re-encode as primary: replica flag cleared, my group and the dead
	// ranks' placements pruned. Content only shrinks, so every chain keeps
	// its block count or splits off a tail; anything else is a corrupt copy.
	v.IsReplica = false
	v.Replicas = survivors
	v.Homes = slices.DeleteFunc(v.Homes, func(h fabric.DPtr) bool { return dead[h.Rank()] || e.isDead(h.Rank()) })
	need := holder.VertexBlocks(v, bs)
	if need > len(chain) {
		return abandon()
	}
	var freeTail []fabric.DPtr
	for gi, g := range v.Replicas {
		v.Replicas[gi], freeTail = g[:need], append(freeTail, g[need:]...)
	}
	stream := holder.EncodeVertex(v, bs)
	chain, tail := chain[:need], chain[need:]
	setChainTable(stream, chain)

	// Publish: my chain as the new primary, every survivor rewritten back
	// into lockstep.
	var wl writeList
	wl.appendChainWrites(stream, chain, v.Replicas, bs)
	runIsolated(func() { e.store.WriteBlocksBatch(origin, wl.dps, wl.data) })

	// Explicit indexes: the vertex now lives here; the dead rank's shard (if
	// its memory is still in this process, as under the simulator's kill) is
	// cleaned so collective scans stop listing the stale placement.
	labels := lpg.AppendLabels(nil, v.Entries)
	e.idxAddVertex(origin, it.head, it.app, labels)
	if e.fab.Local(it.primary.Rank()) {
		e.local[it.primary.Rank()].removeVertex(it.primary, labels)
	}

	// Release primary-then-follower: my word bumps to fv+1, the survivors
	// follow, and their directories rekey to the new primary.
	if stolen {
		// The word carries the dead committer's mark, not a train
		// acquisition; an unconditional store completes the "release".
		locks.SeedMirrorWord(origin, headWord, fv)
	} else {
		release(locks.Written)
	}
	if len(sWords) > 0 {
		runIsolated(func() { locks.ReleaseMirrorTrain(origin, sWords, sVers, nil) })
	}
	for _, g := range v.Replicas {
		fr := g[0].Rank()
		runIsolated(func() { e.replDirRekey(origin, fr, it.primary, it.head) })
	}
	for _, dp := range freeTail {
		runIsolated(func() { e.store.ReleaseBlock(origin, dp) })
	}
	for _, dp := range tail {
		e.store.ReleaseBlock(origin, dp)
	}
	e.repl[origin].drop(it.primary)
	e.promotions.Add(1)
	return true
}

// referencePromoteLost handles a follower whose promotion CAS lost to winner. With a
// free word it rekeys: the winner mirror-marks and rewrites this copy, so the
// entry stays valid under the new primary. A stolen (dead-marked) word the
// winner cannot mark, so it pruned this group and the copy is garbage: the
// follower self-drops and, once the copy proves to be the vertex, clears the
// mark and returns the chain, whose blocks are this rank's alone.
func referencePromoteLost(e *Engine, origin fabric.Rank, it promoteItem, winner fabric.DPtr, headWord locks.Word, stolen bool, fv uint64) {
	if !stolen {
		e.repl[origin].rekey(it.primary, winner)
		return
	}
	e.repl[origin].drop(it.primary)
	e.replicaDrops.Add(1)
	buf, chain := e.readChain(origin, it.head, holder.IsReplicaBlock)
	if buf == nil {
		return
	}
	if v, err := holder.DecodeVertex(buf); err != nil || v.AppID != it.app {
		return
	}
	locks.SeedMirrorWord(origin, headWord, fv)
	for _, dp := range chain {
		e.store.ReleaseBlock(origin, dp)
	}
}

// placementOps is one implementation of the three placement writers: the
// engine's, or the reference bodies.
type placementOps struct {
	migrate func(e *Engine, me fabric.Rank, moves []MigrationMove) (int, error)
	seed    func(e *Engine, origin fabric.Rank, app uint64, primary fabric.DPtr, k int) bool
	promote func(e *Engine, origin fabric.Rank, it promoteItem, dead map[fabric.Rank]bool) bool
}

var (
	livePlacement = placementOps{(*Engine).MigrateVertices, (*Engine).replicateOne,
		func(e *Engine, origin fabric.Rank, it promoteItem, _ map[fabric.Rank]bool) bool {
			return e.promoteOne(origin, it)
		}}
	refPlacement = placementOps{referenceMigrateVertices, referenceReplicateOne, referencePromoteOne}
)

// seedOne is replicateAll for one vertex, through ops.
func (ops placementOps) seedOne(e *Engine, origin fabric.Rank, app uint64, k int) bool {
	dps, found := e.lookupVertices(origin, []uint64{app})
	seeded := false
	if found[0] {
		runIsolated(func() { seeded = ops.seed(e, origin, app, dps[0], k) })
	}
	return seeded
}

// promoteDead is PromoteDead through ops.
func (ops placementOps) promoteDead(e *Engine, origin fabric.Rank) int {
	dead := e.deadSet()
	won := 0
	for _, it := range e.repl[origin].promotable(dead) {
		promoted := false
		runIsolated(func() { promoted = ops.promote(e, origin, it, dead) })
		if promoted {
			won++
		}
	}
	return won
}

// placementTwin is one engine of TestPlacementMatchesReference: six ranks
// over a windowLog, and the implementation of the placement writers it runs.
type placementTwin struct {
	e   *Engine
	f   *rma.Fabric
	log *windowLog
	ops placementOps
	pt  lpg.PTypeID
}

// placementRanks is the twins' rank count: rank 5 dies before the
// promotions, and each of ranks 0–4 follows exactly one of its vertices.
const placementRanks = 6

// newPlacementTwin builds the world every step runs on: vertex r+6k on
// rank r for k < 4, each with a multi-block payload of 16+k words, and a
// follower of vertex 20 on rank 3.
func newPlacementTwin(t *testing.T, ops placementOps) *placementTwin {
	t.Helper()
	f := rma.New(placementRanks)
	log := &windowLog{Transport: f}
	e := NewEngine(log, Config{BlockSize: 64, BlocksPerRank: 1 << 9, LockTries: 8, DHTEntriesPerRank: 256})
	w := &placementTwin{e: e, f: f, log: log, ops: ops, pt: payloadPType(t, e)}
	tx := e.StartLocal(0, ReadWrite)
	for app := uint64(0); app < 4*placementRanks; app++ {
		dp, err := tx.CreateVertex(app)
		if err == nil {
			err = w.setPayload(tx, dp, app, 16+int(app)/placementRanks)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !ops.seedOne(e, 3, 20, 3) {
		t.Fatal("seeded no follower of vertex 20")
	}
	return w
}

func (w *placementTwin) setPayload(tx *Tx, dp fabric.DPtr, seq uint64, words int) error {
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		return err
	}
	return h.SetProperty(w.pt, payloadPattern(seq, words))
}

// placed is app's primary, as the internal index names it.
func (w *placementTwin) placed(t *testing.T, app uint64) fabric.DPtr {
	t.Helper()
	dps, found := w.e.lookupVertices(0, []uint64{app})
	if !found[0] {
		t.Fatalf("vertex %d is not in the index", app)
	}
	return dps[0]
}

// hold write-holds dp's lock word from rank by, as a racing writer or a
// committer that died mid-fan-out would, and returns its release.
func (w *placementTwin) hold(t *testing.T, dp fabric.DPtr, by fabric.Rank) func() {
	t.Helper()
	word := w.e.lockWordOf(dp)
	if err := word.TryAcquireWrite(by, 1); err != nil {
		t.Fatal(err)
	}
	return func() { word.ReleaseWrite(by) }
}

// followerOf is rank r's follower head of app's primary.
func (w *placementTwin) followerOf(t *testing.T, r fabric.Rank, app uint64) fabric.DPtr {
	t.Helper()
	ent, ok := w.e.repl[r].lookup(w.placed(t, app))
	if !ok {
		t.Fatalf("rank %d follows no copy of vertex %d", r, app)
	}
	return ent.head
}

// grows is a vertex of rank 4 whose holder needs one more block with two
// follower groups than with one, so seeding it to k=3 grows every chain.
func (w *placementTwin) grows(t *testing.T) uint64 {
	t.Helper()
	for app := uint64(4); app < 4*placementRanks; app += placementRanks {
		buf, _ := w.e.readChain(4, w.placed(t, app), nil)
		v, err := holder.DecodeVertex(buf)
		if err != nil {
			t.Fatal(err)
		}
		v.Replicas = make([][]fabric.DPtr, 1)
		one := holder.VertexBlocks(v, w.e.cfg.BlockSize)
		v.Replicas = make([][]fabric.DPtr, 2)
		if holder.VertexBlocks(v, w.e.cfg.BlockSize) > one {
			return app
		}
	}
	t.Fatal("no vertex of rank 4 grows with its second follower group")
	return 0
}

// placementStep is one step of the TestPlacementMatchesReference script:
// prep runs outside the measured call, which returns what the step's writer
// returned.
type placementStep struct {
	name string
	prep func(t *testing.T, w *placementTwin) (undo func())
	run  func(t *testing.T, w *placementTwin) any
	want any
}

var placementScript = []placementStep{
	{name: "migrate-batch",
		// Vertices 1 and 7 of rank 1 and 2 and 8 of rank 2 move to rank 0,
		// with vertex 7's word held by a racing writer; vertex 13 moved on
		// to rank 3 after it was planned; vertex 20 has a follower; and
		// vertex 19, now on rank 4, has its stub on rank 1 held.
		prep: func(t *testing.T, w *placementTwin) func() {
			stub := w.placed(t, 19)
			if n, err := w.ops.migrate(w.e, 4, []MigrationMove{{App: 19, Old: stub, Dest: 4}}); n != 1 || err != nil {
				t.Fatalf("moving vertex 19: %d, %v", n, err)
			}
			busy, held := w.hold(t, w.placed(t, 7), 3), w.hold(t, stub, 3)
			return func() { busy(); held() }
		},
		run: func(t *testing.T, w *placementTwin) any {
			moves := []MigrationMove{{App: 13, Old: w.placed(t, 13), Dest: 0}}
			if n, err := w.ops.migrate(w.e, 3, []MigrationMove{{App: 13, Old: w.placed(t, 13), Dest: 3}}); n != 1 || err != nil {
				t.Fatalf("moving vertex 13 on: %d, %v", n, err)
			}
			for _, app := range []uint64{1, 7, 2, 8, 20, 19} {
				moves = append(moves, MigrationMove{App: app, Old: w.placed(t, app), Dest: 0})
			}
			n, err := w.ops.migrate(w.e, 0, moves)
			return fmt.Sprint(n, err)
		},
		want: "3 <nil>"},
	{name: "migrate-back-home", run: func(t *testing.T, w *placementTwin) any {
		n, err := w.ops.migrate(w.e, 1, []MigrationMove{{App: 1, Old: w.placed(t, 1), Dest: 1}})
		return fmt.Sprint(n, err)
	}, want: "1 <nil>"},
	{name: "seed-k2", run: func(t *testing.T, w *placementTwin) any {
		return w.ops.seedOne(w.e, 0, w.grows(t), 2)
	}, want: true},
	{name: "seed-k3-grows", run: func(t *testing.T, w *placementTwin) any {
		return w.ops.seedOne(w.e, 1, w.grows(t), 3)
	}, want: true},
	{name: "seed-pool-dry",
		prep: func(t *testing.T, w *placementTwin) func() {
			var hogged []fabric.DPtr
			for n := w.e.FreeBlocks(2) - 1; n > 0; n-- {
				dp, err := w.e.store.AcquireBlock(2, 2)
				if err != nil {
					t.Fatal(err)
				}
				hogged = append(hogged, dp)
			}
			return func() {
				for _, dp := range hogged {
					w.e.store.ReleaseBlock(2, dp)
				}
			}
		},
		run:  func(t *testing.T, w *placementTwin) any { return w.ops.seedOne(w.e, 2, w.grows(t), 4) },
		want: false},
	{name: "seed-for-failover", run: func(t *testing.T, w *placementTwin) any {
		// Rank 5's vertices 5, 11 and 17 get followers on ranks 0 and 1, 2
		// and 3, and 4.
		var seeded []bool
		for _, s := range []struct {
			app uint64
			on  fabric.Rank
			k   int
		}{{5, 0, 3}, {5, 1, 3}, {11, 2, 3}, {11, 3, 3}, {17, 4, 2}} {
			seeded = append(seeded, w.ops.seedOne(w.e, s.on, s.app, s.k))
		}
		return fmt.Sprint(seeded)
	}, want: "[true true true true true]"},
	{name: "promote-winner",
		prep: func(t *testing.T, w *placementTwin) func() {
			w.f.KillRank(5)
			return nil
		},
		run:  func(t *testing.T, w *placementTwin) any { return w.ops.promoteDead(w.e, 0) },
		want: 1},
	{name: "promote-rekeying-loser",
		run:  func(t *testing.T, w *placementTwin) any { return w.ops.promoteDead(w.e, 1) },
		want: 0},
	{name: "promote-stolen-winner",
		// Both followers of vertex 11 carry the mark of a committer that
		// died mid-fan-out.
		prep: func(t *testing.T, w *placementTwin) func() {
			w.hold(t, w.followerOf(t, 2, 11), 2)
			w.hold(t, w.followerOf(t, 3, 11), 3)
			return nil
		},
		run:  func(t *testing.T, w *placementTwin) any { return w.ops.promoteDead(w.e, 2) },
		want: 1},
	{name: "promote-stolen-loser",
		run:  func(t *testing.T, w *placementTwin) any { return w.ops.promoteDead(w.e, 3) },
		want: 0},
	{name: "promote-deleted",
		prep: func(t *testing.T, w *placementTwin) func() {
			if !w.e.index.Delete(4, 17) {
				t.Fatal("could not delete vertex 17's index entry")
			}
			return nil
		},
		run:  func(t *testing.T, w *placementTwin) any { return w.ops.promoteDead(w.e, 4) },
		want: 0},
}

// placementState is what TestPlacementMatchesReference compares after each
// step: every window, the engine's Go-side placement state, its counters,
// and what the step returned and sent.
type placementState struct {
	bytes       [][]byte
	words       [][]uint64
	verts, repl []any
	counters    [5]int64
	returned    any
	traffic     traffic
}

func (w *placementTwin) step(t *testing.T, s placementStep) placementState {
	t.Helper()
	var undo func()
	if s.prep != nil {
		undo = s.prep(t, w)
	}
	var st placementState
	st.traffic = measure(w.e, func() { st.returned = s.run(t, w) })
	if undo != nil {
		undo()
	}
	st.bytes, st.words = w.log.dump()
	for r := 0; r < placementRanks; r++ {
		li := w.e.local[r]
		st.verts = append(st.verts, li.verts, li.byLabel, li.changes)
		st.repl = append(st.repl, w.e.repl[r].m)
	}
	e := w.e
	st.counters = [5]int64{e.Migrations(), e.MigrationSkips(), e.Reseeds(), e.Promotions(), e.ReplicaDrops()}
	return st
}

// TestPlacementMatchesReference is the golden test of the chain-move steps.
// Twin engines run the same script — a batched migration from two owners
// with a busy, a stale, a replicated and a half-locked move, a migration back to a former
// home, seeding to k=2 and then to k=3 with chain growth, a seed into a dry
// pool, and promotion as winner, rekeying loser, stolen winner, stolen loser
// and of a deleted vertex — one through the engine's placement writers, the
// other through the reference bodies. After every step both must hold the
// same bytes and words in every window of every rank, the same explicit
// indexes and replica directories, the same counters, and must have
// returned the same value and issued the same remote traffic.
func TestPlacementMatchesReference(t *testing.T) {
	live, ref := newPlacementTwin(t, livePlacement), newPlacementTwin(t, refPlacement)
	for _, s := range placementScript {
		got, want := live.step(t, s), ref.step(t, s)
		if got.returned != s.want || want.returned != s.want {
			t.Errorf("%s: returned %v, the reference %v, want %v", s.name, got.returned, want.returned, s.want)
		}
		if !reflect.DeepEqual(got.bytes, want.bytes) {
			t.Errorf("%s: byte windows (block payloads) differ from the reference's", s.name)
		}
		if !reflect.DeepEqual(got.words, want.words) {
			t.Errorf("%s: word windows (free lists, lock words, index) differ from the reference's", s.name)
		}
		if !reflect.DeepEqual(got.verts, want.verts) || !reflect.DeepEqual(got.repl, want.repl) {
			t.Errorf("%s: explicit indexes or replica directories differ from the reference's", s.name)
		}
		if got.counters != want.counters {
			t.Errorf("%s: counters (migrations, skips, reseeds, promotions, replica drops) %v, the reference %v",
				s.name, got.counters, want.counters)
		}
		if got.traffic != want.traffic {
			t.Errorf("%s: traffic %+v, the reference %+v", s.name, got.traffic, want.traffic)
		}
	}
}
