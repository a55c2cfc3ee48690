package core

import (
	"fmt"
	"sort"

	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
)

// Live vertex migration. A migration moves one vertex's holder chain from
// its current primary block P (rank A) to a new primary T on the destination
// rank, without stopping traffic, by composing machinery that already
// exists: the destination blocks come from the BGDL allocator, the copy runs
// under a commit-style exclusive lock train, the internal index entry is
// CAS-swung from P to T, and the vacated blocks are retired through the
// deletion-poison discipline — P is rewritten (under its lock, so its
// version bumps) into a one-hop forwarding stub, which makes every
// version-stamped cache copy and optimistic read of the old placement fail
// validation and refetch at the new owner instead of reading a stale copy.
//
// Stale DPtrs keep working: edge records written before the move still point
// at P, and a fetch that lands on the stub chases it to T (counted in
// ForwardedReads). The vertex remembers its former homes (holder.Vertex
// .Homes); each holds a stub pointing at the current primary — migration
// rewrites all of them, so chases are always one hop — and a migration back
// to a former rank reuses that rank's home block, restoring the vertex's
// original DPtr there. That re-use is the ABA case: a reader holding a copy
// of P's content from before the vertex left must not accept it when the
// vertex returns, which the lock-word version counters guarantee (every stub
// and content write bumps them).
//
// Concurrency: the exclusive lock on P serializes migration against every
// writer and locking reader of the vertex (their read locks block the train,
// so a transaction that fetched the vertex pins its placement until it
// ends), and against DHT inserts/deletes of the key, which only happen under
// the same lock. Optimistic readers need no locks: their version validation
// rejects anything that raced the move.

// lockWordOf addresses dp's per-block reader-writer lock word.
func (e *Engine) lockWordOf(dp fabric.DPtr) locks.Word {
	win, target, idx := e.store.LockWord(dp)
	return locks.Word{Win: win, Target: target, Idx: idx}
}

// validPoolDPtr reports whether dp addresses a real block of the pool
// (plans travel over the wire; apply must not panic on a corrupt one).
func (e *Engine) validPoolDPtr(dp fabric.DPtr) bool {
	return !dp.IsNull() && dp.Off() > 0 && dp.Off() < uint64(e.store.BlocksPerRank()) &&
		int(dp.Rank()) < e.fab.Size()
}

// migCand tracks one move through the phases of a migration train.
type migCand struct {
	mv        MigrationMove
	word      locks.Word    // old primary's lock word
	ver       uint64        // its version while held
	buf       []byte        // old holder's full logical stream
	oldBlocks []fabric.DPtr // old chain (buf's blocks, primary first)
	v         *holder.Vertex
	dst       fabric.DPtr  // new primary on the destination rank
	dstFresh  bool         // dst came from the allocator (vs. a reused home)
	secWords  []locks.Word // dst word + stub words of the other homes
	secVers   []uint64
	newBlocks []fabric.DPtr
	stream    []byte
	ok        bool
}

// MigrateVertices executes one batched migration train: every move must have
// Dest == me. The train write-locks the old primaries with one best-effort
// vectored CAS train (busy vertices are skipped, not retried forever), reads
// the surviving holder chains with batched GETs, locks the destination and
// stub words, publishes the copies plus forwarding stubs with one vectored
// PUT train per owner rank, CAS-swings the DHT entries, and releases all
// locks as one train. It returns how many vertices actually moved; skipped
// moves are counted on the engine (MigrationSkips).
func (e *Engine) MigrateVertices(me fabric.Rank, moves []MigrationMove) (int, error) {
	if len(moves) == 0 {
		return 0, nil
	}
	bs := e.cfg.BlockSize

	// Candidates: structurally valid moves targeting this rank.
	cands := make([]*migCand, 0, len(moves))
	for _, mv := range moves {
		if mv.Dest != me {
			return 0, fmt.Errorf("core: migration move of vertex %d targets rank %d, executed on %d",
				mv.App, mv.Dest, me)
		}
		if !e.validPoolDPtr(mv.Old) || mv.Old.Rank() == me {
			e.migSkips.Add(1)
			continue
		}
		cands = append(cands, &migCand{mv: mv, word: e.lockWordOf(mv.Old)})
	}
	if len(cands) == 0 {
		return 0, nil
	}

	// The whole train runs under the HTAP commit gate (read mode, like a
	// commit's apply phase): a cut must never stamp shards while copies,
	// stubs, and index swings have partially landed. Migration emits no
	// delta records — it changes primary DPtrs, which the incremental fold
	// detects as vertex-set drift and answers with a full rebuild. The body
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
	relWords := make([]locks.Word, 0, len(cands)) // every held word, released at the end
	relVers := make([]uint64, 0, len(cands))
	for i, c := range cands {
		if !held[i] {
			e.migSkips.Add(1)
			continue
		}
		c.ver = vers[i]
		relWords = append(relWords, c.word)
		relVers = append(relVers, c.ver)
		live = append(live, c)
	}

	// skip drops a candidate after its primary was locked: its lock is
	// already queued on the release train, so only per-candidate state
	// (fresh destination blocks, secondary locks) needs rolling back.
	skip := func(c *migCand) {
		e.migSkips.Add(1)
		if len(c.secWords) > 0 {
			locks.ReleaseWriteTrain(me, c.secWords, c.secVers)
			c.secWords, c.secVers = nil, nil
		}
		if len(c.newBlocks) > 1 {
			for _, dp := range c.newBlocks[1:] {
				e.store.ReleaseBlock(me, dp)
			}
		}
		if c.dstFresh && !c.dst.IsNull() {
			e.store.ReleaseBlock(me, c.dst)
		}
		c.ok = false
	}

	// Phase 2: read the holder chains, batched — round 0 all primaries, then
	// one batched round per continuation block. Content is stable under the
	// exclusive locks.
	var dps []fabric.DPtr
	var bufs [][]byte
	for _, c := range live {
		c.buf = make([]byte, bs)
		dps = append(dps, c.mv.Old)
		bufs = append(bufs, c.buf)
	}
	e.store.ReadBlocksBatch(me, dps, bufs)
	for _, c := range live {
		nb := holder.NumBlocks(c.buf)
		// A poisoned (deleted), forwarded (already migrated), or recycled
		// block means the plan went stale between planning and locking. A
		// recycled block carries arbitrary bytes, so the block count is
		// untrusted until phase 3 confirms the vertex's identity: bound it
		// by the pool size before sizing any allocation on it.
		if nb < 1 || nb > e.store.BlocksPerRank() ||
			holder.IsMoved(c.buf) || holder.IsEdgeHolder(c.buf) {
			skip(c)
			continue
		}
		c.oldBlocks = append(c.oldBlocks, c.mv.Old)
		if nb > 1 {
			full := make([]byte, nb*bs)
			copy(full, c.buf)
			c.buf = full
		}
		c.ok = true
	}
	for round := 1; ; round++ {
		dps, bufs = dps[:0], bufs[:0]
		for _, c := range live {
			if !c.ok || holder.NumBlocks(c.buf) <= round {
				continue
			}
			dp := holder.TableEntry(c.buf, round-1)
			if !e.validPoolDPtr(dp) {
				skip(c)
				continue
			}
			c.oldBlocks = append(c.oldBlocks, dp)
			dps = append(dps, dp)
			bufs = append(bufs, c.buf[round*bs:(round+1)*bs])
		}
		if len(dps) == 0 {
			break
		}
		e.store.ReadBlocksBatch(me, dps, bufs)
	}

	// Phase 3: decode, confirm identity, pick the destination primary, and
	// lock the secondary words (destination + every other home stub) with a
	// second best-effort train.
	var secTrain []locks.TrainLock
	var replSkip []*migCand // replicated vertices skipped under a held lock
	apps := make([]uint64, len(live))
	for i, c := range live {
		apps[i] = c.mv.App
	}
	indexed, found := e.lookupVertices(me, apps)
	for i, c := range live {
		if !c.ok {
			continue
		}
		v, err := holder.DecodeVertex(c.buf)
		if err != nil || v.AppID != c.mv.App {
			skip(c)
			continue
		}
		if !found[i] || indexed[i] != c.mv.Old {
			skip(c) // the index no longer names this placement
			continue
		}
		if len(v.Replicas) > 0 || v.IsReplica {
			// Replicated vertices are pinned in place: moving the primary
			// would strand every follower's lockstep version and directory
			// key. Rebalancing one means dropping its replicas first (a
			// commit-path reshape does that; a later seeding round restores
			// k elsewhere). The write lock is already queued on the release
			// train, whose bump without a content change is fanned to the
			// followers after the train so they stay in lockstep.
			c.v = v
			replSkip = append(replSkip, c)
			skip(c)
			continue
		}
		c.v = v
		for _, h := range v.Homes {
			if h.Rank() == me {
				c.dst = h // reuse the former home block: the ABA path
				break
			}
		}
		if c.dst.IsNull() {
			dp, err := e.store.AcquireBlock(me, me)
			if err != nil {
				skip(c)
				continue
			}
			c.dst, c.dstFresh = dp, true
		}
		words := []locks.Word{e.lockWordOf(c.dst)}
		for _, h := range c.v.Homes {
			if h != c.dst {
				words = append(words, e.lockWordOf(h))
			}
		}
		c.secWords = words
		for _, w := range words {
			secTrain = append(secTrain, locks.TrainLock{Word: w})
		}
	}
	secVers, secHeld := locks.AcquireWriteTrainEach(me, secTrain, e.cfg.LockTries)
	secAt := 0
	for _, c := range live {
		if !c.ok {
			continue
		}
		lo := secAt
		secAt += len(c.secWords)
		all := true
		for i := lo; i < secAt; i++ {
			if !secHeld[i] {
				all = false
			}
		}
		if !all {
			// Roll back the subset this candidate did get and skip it.
			var got []locks.Word
			var gotVers []uint64
			for i := lo; i < secAt; i++ {
				if secHeld[i] {
					got = append(got, secTrain[i].Word)
					gotVers = append(gotVers, secVers[i])
				}
			}
			locks.ReleaseWriteTrain(me, got, gotVers)
			c.secWords, c.secVers = nil, nil
			skip(c)
			continue
		}
		c.secVers = append(c.secVers, secVers[lo:secAt]...)
	}

	// Phase 4: re-encode with the updated home list and acquire the
	// destination continuation blocks.
	for _, c := range live {
		if !c.ok {
			continue
		}
		homes := make([]fabric.DPtr, 0, len(c.v.Homes)+1)
		for _, h := range c.v.Homes {
			if h != c.dst {
				homes = append(homes, h)
			}
		}
		c.v.Homes = append(homes, c.mv.Old)
		c.stream = holder.EncodeVertex(c.v, bs)
		need := len(c.stream) / bs
		c.newBlocks = append(c.newBlocks, c.dst)
		fail := false
		for len(c.newBlocks) < need {
			dp, err := e.store.AcquireBlock(me, me)
			if err != nil {
				fail = true
				break
			}
			c.newBlocks = append(c.newBlocks, dp)
		}
		if fail {
			skip(c)
			continue
		}
		for i := 1; i < need; i++ {
			holder.SetTableEntry(c.stream, i-1, c.newBlocks[i])
		}
	}

	// Phase 5: publish — the new chains plus every forwarding stub go out as
	// one vectored PUT train per owner rank. The content lands before any
	// pointer to it is readable: the destination words are still write-held,
	// and the DHT swing below happens after the writes.
	var wDps []fabric.DPtr
	var wData [][]byte
	for _, c := range live {
		if !c.ok {
			continue
		}
		for i, dp := range c.newBlocks {
			wDps = append(wDps, dp)
			wData = append(wData, c.stream[i*bs:(i+1)*bs])
		}
		// One stub buffer serves every vacated home: the batch only reads it.
		stub := holder.EncodeMoved(c.mv.App, c.dst, bs)
		wDps = append(wDps, c.mv.Old)
		wData = append(wData, stub)
		for _, h := range c.v.Homes {
			if h != c.mv.Old { // the old primary's stub is queued above
				wDps = append(wDps, h)
				wData = append(wData, stub)
			}
		}
	}
	e.store.WriteBlocksBatch(me, wDps, wData)

	// Phase 6: swing the DHT entries and move the explicit-index postings.
	migrated := 0
	var fatal error
	for _, c := range live {
		if !c.ok {
			continue
		}
		if fatal != nil {
			c.ok = false // not swung; its vacated chain must not be freed
			continue
		}
		if !e.index.Replace(me, c.mv.App, uint64(c.mv.Old), uint64(c.dst)) {
			// Unreachable while we hold the vertex's exclusive lock (the
			// index entry only changes under it); fail loudly if violated —
			// after the release and block-retire phases below, so neither
			// locks nor the already-migrated candidates' blocks leak.
			fatal = fmt.Errorf("core: DHT entry of vertex %d changed under its migration lock", c.mv.App)
			c.ok = false
			continue
		}
		e.idxRemoveVertex(me, c.mv.Old, c.v.Labels)
		e.local[me].addVertex(c.dst, c.v.AppID, c.v.Labels)
		migrated++
	}

	// Phase 7: release every lock (bumping versions — the invalidation
	// broadcast), then retire the vacated continuation blocks. The old
	// primary and the other home blocks stay allocated as stubs.
	for _, c := range live {
		relWords = append(relWords, c.secWords...)
		relVers = append(relVers, c.secVers...)
	}
	locks.ReleaseWriteTrain(me, relWords, relVers)
	for _, c := range replSkip {
		e.bumpMirrors(me, c.v, c.ver)
	}
	for _, c := range live {
		if !c.ok { // skipped, or not swung on the fatal path
			continue
		}
		for _, dp := range c.oldBlocks[1:] {
			e.store.ReleaseBlock(me, dp)
		}
	}
	e.fab.FlushAll(me)
	e.migrations.Add(int64(migrated))
	return migrated, fatal
}

// RebalanceStats reports one Rebalance round from one rank's perspective.
type RebalanceStats struct {
	// Planned is the global plan size (identical on every rank).
	Planned int
	// Migrated counts the moves this rank executed as destination.
	Migrated int
	// Skipped counts this rank's planned moves that were dropped
	// (lock contention or a plan gone stale).
	Skipped int
}

// Rebalance is the workload-aware rebalancing collective: every rank must
// call it. The ranks fold their access-heat shards through the collective
// layer (each contributes its RebalanceTopK hottest vertices), rank 0
// computes a greedy Schism-style plan — hottest vertices first, each moved
// to its dominant accessor when that beats the current placement, capped per
// destination — and broadcasts it in the migration-plan wire format; each
// rank then executes the moves it is the destination of, in migration trains
// of RebalanceBatch vertices. Heat shards reset afterwards so the next round
// reacts to fresh traffic. OLTP traffic may keep running concurrently; the
// per-vertex locks and version stamps keep it coherent.
func (e *Engine) Rebalance(rank fabric.Rank) (RebalanceStats, error) {
	var stats RebalanceStats
	e.comm.Barrier(rank)
	tops := collective.Allgather(e.comm, rank, e.topHeat(rank, e.cfg.RebalanceTopK))
	var planBytes []byte
	if rank == 0 {
		planBytes = EncodeMigrationPlan(e.planRebalance(tops))
	}
	planBytes = collective.Bcast(e.comm, rank, 0, planBytes)
	plan, err := DecodeMigrationPlan(planBytes)
	if err != nil {
		e.comm.Barrier(rank)
		return stats, err
	}
	stats.Planned = len(plan)
	var mine []MigrationMove
	for _, mv := range plan {
		if mv.Dest == rank {
			mine = append(mine, mv)
		}
	}
	for lo := 0; lo < len(mine); lo += e.cfg.RebalanceBatch {
		batch := mine[lo:min(lo+e.cfg.RebalanceBatch, len(mine))]
		n, err := e.MigrateVertices(rank, batch)
		stats.Migrated += n
		stats.Skipped += len(batch) - n
		if err != nil {
			e.comm.Barrier(rank)
			return stats, err
		}
	}
	e.resetHeat(rank)
	e.comm.Barrier(rank)
	return stats, nil
}

// planRebalance computes the global migration plan from the allgathered heat
// samples (rank 0 only). Greedy, Schism-style: sort candidates by total heat
// descending, move each to the rank that accesses it most — but only when
// that rank's observed heat beats the current owner's (a real locality gain)
// and the destination has headroom under RebalanceMaxMoves (the imbalance
// guard: no rank absorbs the whole hot set).
func (e *Engine) planRebalance(tops [][]HeatSample) []MigrationMove {
	n := e.fab.Size()
	type candidate struct {
		app    uint64
		total  uint64
		byRank []uint64
		owners []fabric.Rank // owner each sampling rank observed (NullRank: no sample)
	}
	acc := make(map[uint64]*candidate)
	for r, list := range tops {
		for _, s := range list {
			c := acc[s.App]
			if c == nil {
				c = &candidate{app: s.App, byRank: make([]uint64, n), owners: make([]fabric.Rank, n)}
				for i := range c.owners {
					c.owners[i] = fabric.NullRank
				}
				acc[s.App] = c
			}
			c.byRank[r] += s.Count
			c.owners[r] = s.Owner
			c.total += s.Count
		}
	}
	cands := make([]*candidate, 0, len(acc))
	for _, c := range acc {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].total != cands[j].total {
			return cands[i].total > cands[j].total
		}
		return cands[i].app < cands[j].app
	})
	// Sorted descending (raw totals bound filtered ones): nothing hot enough
	// follows the first candidate below the threshold.
	hot := sort.Search(len(cands), func(i int) bool { return cands[i].total < uint64(e.cfg.RebalanceMinHeat) })
	cands = cands[:hot]
	apps := make([]uint64, len(cands))
	for i, c := range cands {
		apps[i] = c.app
	}
	placed, found := e.lookupVertices(0, apps)
	movesPerDest := make([]int, n)
	var plan []MigrationMove
	for i, c := range cands {
		if !found[i] {
			continue
		}
		old := placed[i]
		owner := old.Rank()
		// Only samples recorded against the current placement count: heat a
		// rank accumulated while the vertex lived elsewhere (including reads
		// that chased a forwarding stub off a vacated rank) says nothing
		// about locality under the placement being planned against, and
		// counting it would drag the vertex back to ranks it just left.
		heat := make([]uint64, n)
		var total uint64
		for r := 0; r < n; r++ {
			if c.owners[r] == owner {
				heat[r] = c.byRank[r]
				total += heat[r]
			}
		}
		if total < uint64(e.cfg.RebalanceMinHeat) {
			continue
		}
		best := fabric.Rank(0)
		for r := 1; r < n; r++ {
			if heat[r] > heat[best] {
				best = fabric.Rank(r)
			}
		}
		if best == owner || heat[best] <= heat[owner] {
			continue // already placed with (or tied with) its dominant accessor
		}
		if movesPerDest[best] >= e.cfg.RebalanceMaxMoves {
			continue
		}
		movesPerDest[best]++
		plan = append(plan, MigrationMove{App: c.app, Old: old, Dest: best})
	}
	return plan
}
