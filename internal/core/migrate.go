package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
)

// Live vertex migration moves a vertex's holder chain from its primary P on
// another rank to a new primary T here, without stopping traffic: it is one
// user of the chain mover (mover.go). ARCHITECTURE.md, "Life of a chain
// move", has the steps; this comment keeps what the code cannot show.
//
// The vacated P — and every former home (holder.Vertex.Homes) — is rewritten
// under its write lock into a one-hop forwarding stub to T, so stale DPtrs in
// edge records keep resolving (ForwardedReads counts the chases). Migrating
// back to a former rank reuses that rank's home block, restoring the
// vertex's original DPtr there. That reuse is the ABA case: a reader holding
// a copy of P from before the vertex left must not accept it when the vertex
// returns, which the lock-word versions guarantee, because every stub and
// content write bumps them.
//
// The exclusive lock on P serializes migration against every writer and
// locking reader of the vertex, and against DHT inserts and deletes of its
// key, which only happen under the same lock: a commit reserves a new
// vertex's entry after its lock train and retracts a deleted vertex's before
// its release. Optimistic readers need no locks: their version validation
// rejects anything that raced the move.

// migCand tracks one move through the phases of a migration train.
type migCand struct {
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
}

// skipMove drops a candidate after its primary was locked. That lock is
// already queued on the release train, so only the candidate's own state —
// secondary locks, destination blocks — is rolled back.
func (e *Engine) skipMove(me fabric.Rank, c *migCand) {
	e.migSkips.Add(1)
	locks.ReleaseWriteTrain(me, c.secWords, c.secVers)
	for _, dp := range c.fresh {
		e.store.ReleaseBlock(me, dp)
	}
	c.secWords, c.secVers, c.fresh, c.ok = nil, nil, nil, false
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
			e.skipMove(me, c)
		}
	}

	// Phase 3: decode, confirm identity, pick the destination, and lock the
	// secondary words.
	replSkip := e.lockMoveTargets(me, live)

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
			e.skipMove(me, c)
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
	marks := make(map[locks.Word]locks.StubMark)
	for _, c := range live {
		if !c.ok {
			continue
		}
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
	migrated, fatal := e.swingMoves(me, live)

	// Phase 7: release every lock (bumping versions — the invalidation
	// broadcast), then retire the vacated continuation blocks. The old
	// primary and the other home blocks stay allocated as stubs.
	for _, c := range live {
		relWords = append(relWords, c.secWords...)
		relVers = append(relVers, c.secVers...)
	}
	relMarks := make([]locks.StubMark, len(relWords))
	for i, w := range relWords {
		relMarks[i] = marks[w]
	}
	locks.ReleaseWriteTrainMarked(me, relWords, relVers, relMarks)
	for _, c := range replSkip {
		e.bumpMirrors(me, c.v, c.ver)
	}
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

// swingMoves is phase 6 of a migration train: it CAS-swings each published
// move's DHT entry from the old primary to the new one and moves the
// explicit-index postings. It returns how many vertices moved.
func (e *Engine) swingMoves(me fabric.Rank, live []*migCand) (migrated int, fatal error) {
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
			// after the caller's release and block-retire phases, so neither
			// locks nor the already-migrated candidates' blocks leak.
			fatal = fmt.Errorf("core: DHT entry of vertex %d changed under its migration lock", c.mv.App)
			c.ok = false
			continue
		}
		e.idxRemoveVertex(me, c.mv.Old, c.v.Labels)
		e.local[me].addVertex(c.dst, c.v.AppID, c.v.Labels)
		migrated++
	}
	return migrated, fatal
}

// lockMoveTargets is phase 3 of a migration train: it decodes each read
// chain, confirms the vertex's identity against the chain and the index,
// picks the destination primary (the former home on this rank if there is
// one — the ABA path — else a fresh block), and write-locks the destination
// word plus every other home's stub word with one best-effort train. A
// candidate missing any of its secondary words is skipped. It returns the
// replicated candidates it skipped, whose followers must track the release
// bump of their primary.
func (e *Engine) lockMoveTargets(me fabric.Rank, live []*migCand) (replSkip []*migCand) {
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
			e.skipMove(me, c) // not this vertex, or the index no longer names this placement
			continue
		}
		c.v = v
		if len(v.Replicas) > 0 || v.IsReplica {
			// Replicated vertices are pinned in place: moving the primary
			// would strand every follower's lockstep version and directory
			// key. Rebalancing one means dropping its replicas first (a
			// commit-path reshape does that; a later seeding round restores
			// k elsewhere).
			replSkip = append(replSkip, c)
			e.skipMove(me, c)
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
				e.skipMove(me, c)
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
			e.skipMove(me, c) // releases the subset it did get
		}
	}
	return replSkip
}

// Rebalance's sizing.
const (
	rebalanceTopK     = 64  // hottest vertices each rank proposes per round
	rebalanceMinHeat  = 8   // access count below which a vertex is not moved
	rebalanceMaxMoves = 256 // migrations planned into one destination per round
	rebalanceBatch    = 32  // vertices one rank migrates under one train
)

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
// layer (each contributes its rebalanceTopK hottest vertices), rank 0
// computes a greedy Schism-style plan — hottest vertices first, each moved
// to its dominant accessor when that beats the current placement, capped per
// destination — and broadcasts it in the migration-plan wire format; each
// rank then executes the moves it is the destination of, in migration trains
// of rebalanceBatch vertices. Heat shards reset afterwards so the next round
// reacts to fresh traffic. OLTP traffic may keep running concurrently; the
// per-vertex locks and version stamps keep it coherent.
func (e *Engine) Rebalance(rank fabric.Rank) (RebalanceStats, error) {
	var stats RebalanceStats
	e.comm.Barrier(rank)
	tops := collective.Allgather(e.comm, rank, e.topHeat(rank, rebalanceTopK))
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
	for lo := 0; lo < len(mine); lo += rebalanceBatch {
		batch := mine[lo:min(lo+rebalanceBatch, len(mine))]
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
// and the destination has headroom under rebalanceMaxMoves (the imbalance
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
	hot := sort.Search(len(cands), func(i int) bool { return cands[i].total < rebalanceMinHeat })
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
		if total < rebalanceMinHeat {
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
		if movesPerDest[best] >= rebalanceMaxMoves {
			continue
		}
		movesPerDest[best]++
		plan = append(plan, MigrationMove{App: c.app, Old: old, Dest: best})
	}
	return plan
}
