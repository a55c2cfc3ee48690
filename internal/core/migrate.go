package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
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

// MigrationMove is one planned vertex migration: move the vertex with the
// given application ID, currently resident at primary block Old, onto rank
// Dest. Old pins the placement the plan was computed against — an executor
// that finds the vertex elsewhere (it moved or died since planning) skips
// the move instead of migrating a stranger.
type MigrationMove struct {
	App  uint64
	Old  fabric.DPtr
	Dest fabric.Rank
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
	// A vertex on a dead rank cannot be read: skip it before the lock train.
	ms := make([]*chainMove, 0, len(moves))
	for _, mv := range moves {
		if mv.Dest != me {
			return 0, fmt.Errorf("core: migration move of vertex %d targets rank %d, executed on %d",
				mv.App, mv.Dest, me)
		}
		if e.validPoolDPtr(mv.Old) && mv.Old.Rank() != me && !e.isDead(mv.Old.Rank()) {
			ms = append(ms, &chainMove{head: mv.Old, app: mv.App, word: e.lockWordOf(mv.Old)})
		}
	}
	if len(ms) == 0 {
		e.migSkips.Add(int64(len(moves)))
		return 0, nil
	}

	// The HTAP commit gate, read mode: a cut never stamps shards mid-move.
	// No barriers, so holders never wait.
	if e.snap != nil {
		e.htapGate.RLock()
		defer e.htapGate.RUnlock()
	}

	// Lock and read the old primaries. A poisoned, forwarded or recycled
	// block, or an index entry naming another placement, means the plan
	// went stale between planning and locking.
	ms = e.lockMoves(me, ms)
	apps := make([]uint64, len(ms))
	for i, m := range ms {
		apps[i] = m.app
	}
	indexed, found := e.lookupVertices(me, apps)
	e.readMoves(me, ms, isVertexHead, func(i int) bool { return found[i] && indexed[i] == ms[i].head })
	e.lockMoveTargets(me, ms)

	// Transform and publish: the destination leaves the home list and the
	// old primary joins it; the new chains plus a forwarding stub at every
	// vacated block go out as one PUT train per owner rank, before the DHT
	// swing makes them reachable. The release sets the stub bit of every
	// word whose block now holds a stub and clears it on a home the vertex
	// moves back into.
	var w writeList
	marks := make(map[locks.Word]locks.ReleaseMark)
	for _, m := range ms {
		if m.dropped {
			continue
		}
		dst := m.chain[0]
		homeDst := slices.Contains(m.v.Homes, dst)
		m.v.Homes = append(slices.DeleteFunc(m.v.Homes, func(h fabric.DPtr) bool { return h == dst }), m.head)
		stream := holder.EncodeVertex(m.v, e.cfg.BlockSize)
		var err error
		if m.chain, _, err = e.layoutChain(me, me, stream, m.chain, &m.fresh); err != nil {
			e.rollback(me, m)
			continue
		}
		w.appendChainWrites(stream, m.chain, nil, e.cfg.BlockSize)
		// One stub buffer serves every vacated home: the batch only reads it.
		stub := holder.EncodeMoved(m.app, dst, e.cfg.BlockSize)
		for _, h := range m.v.Homes {
			w.put(h, stub)
			marks[e.lockWordOf(h)] = locks.StubSet
		}
		if homeDst {
			marks[e.lockWordOf(dst)] = locks.StubClear
		}
		m.tail = m.old[1:] // the old primary and the other homes stay allocated as stubs
	}
	e.store.WriteBlocksBatch(me, w.dps, w.data)

	// Swing the index, count the stubs on their ranks' forwarding words,
	// release (the version bumps invalidate every copy).
	migrated, fatal := e.swingMoves(me, ms)
	e.bumpForwarding(me, marks)
	e.releaseMoves(me, ms, marks)
	e.fab.FlushAll(me)
	e.migrations.Add(int64(migrated))
	e.migSkips.Add(int64(len(moves) - migrated))
	return migrated, fatal
}

// bumpForwarding bumps the forwarding word of every rank on which marks sets
// a stub bit, once per rank, before the release makes a stub visible there:
// a reader that finds a rank's word at the version it validated knows that
// no block of the rank turned into a stub in between (the LIMIT hop,
// Tx.FilterFrontier). A move the release then gives up leaves an extra bump,
// which costs such a reader its shortcut, never its correctness.
func (e *Engine) bumpForwarding(me fabric.Rank, marks map[locks.Word]locks.ReleaseMark) {
	stubbed := make([]bool, e.fab.Size())
	for w, m := range marks {
		stubbed[w.Target] = stubbed[w.Target] || m == locks.StubSet
	}
	for r, bump := range stubbed {
		if bump {
			e.forwardingWord(fabric.Rank(r)).Bump(me)
		}
	}
}

// forwardingWord addresses rank r's forwarding word.
func (e *Engine) forwardingWord(r fabric.Rank) locks.Word {
	win, target, idx := e.store.ForwardingWord(r)
	return locks.Word{Win: win, Target: target, Idx: idx}
}

// swingMoves CAS-swings each published move's DHT entry from the old primary
// to the new one and moves the explicit-index postings. It returns how many
// vertices moved.
func (e *Engine) swingMoves(me fabric.Rank, ms []*chainMove) (migrated int, fatal error) {
	for _, m := range ms {
		if m.dropped {
			continue
		}
		if fatal == nil && !e.index.Replace(me, m.app, uint64(m.head), uint64(m.chain[0])) {
			// Unreachable while we hold the vertex's exclusive lock (the
			// index entry only changes under it); fail loudly if violated —
			// after the caller's release, so no lock leaks.
			fatal = fmt.Errorf("core: DHT entry of vertex %d changed under its migration lock", m.app)
		}
		if fatal != nil {
			m.tail = nil // written but not swung: its vacated chain must not be freed
			continue
		}
		labels := lpg.AppendLabels(nil, m.v.Entries)
		e.idxRemoveVertex(me, m.head, labels)
		e.local[me].addVertex(m.chain[0], m.app, labels)
		migrated++
	}
	return migrated, fatal
}

// lockMoveTargets picks each identified move's destination primary — the
// former home on this rank if there is one (the ABA path), else a fresh
// block — and write-locks the destination word plus every other home's stub
// word with one best-effort train. A home on a dead rank is pruned first: it
// gets no lock and no stub. A replicated vertex, a dry pool, or a secondary
// word not taken rolls the move back; the release drops the words it did
// take.
func (e *Engine) lockMoveTargets(me fabric.Rank, ms []*chainMove) {
	var words []locks.Word
	for _, m := range ms {
		if m.dropped {
			continue
		}
		if len(m.v.Replicas) > 0 || m.v.IsReplica {
			// Replicated vertices are pinned in place: moving the primary
			// would strand every follower's lockstep version and directory
			// key. Rebalancing one means dropping its replicas first (a
			// commit-path reshape does that; a later seeding round restores
			// k elsewhere).
			e.rollback(me, m)
			continue
		}
		m.v.Homes = e.pruneDead(m.v.Homes)
		var dst fabric.DPtr
		if i := slices.IndexFunc(m.v.Homes, func(h fabric.DPtr) bool { return h.Rank() == me }); i >= 0 {
			dst = m.v.Homes[i]
		} else {
			dp, err := e.store.AcquireBlock(me, me)
			if err != nil {
				e.rollback(me, m)
				continue
			}
			dst, m.fresh = dp, []fabric.DPtr{dp}
		}
		m.chain = []fabric.DPtr{dst}
		lo := len(words)
		words = append(words, e.lockWordOf(dst))
		for _, h := range m.v.Homes {
			if h != dst {
				words = append(words, e.lockWordOf(h))
			}
		}
		m.sec = words[lo:len(words):len(words)] // wanted; the train below takes them
	}
	train := make([]locks.TrainLock, len(words))
	for i, w := range words {
		train[i] = locks.TrainLock{Word: w}
	}
	vers, held := locks.AcquireWriteTrainEach(me, train, e.cfg.LockTries)
	at := 0
	for _, m := range ms {
		if m.dropped {
			continue
		}
		lo := at
		at += len(m.sec)
		var all bool
		if m.sec, m.secVers, all = splitHeld(words[lo:at], vers[lo:at], held[lo:at]); !all {
			e.rollback(me, m) // the release drops the subset it did get
		}
	}
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
// destination — and broadcasts it as a value; each rank then executes the
// moves it is the destination of, in migration trains of rebalanceBatch
// vertices. Heat shards reset afterwards so the next round reacts to fresh
// traffic. OLTP traffic may keep running concurrently; the
// per-vertex locks and version stamps keep it coherent.
func (e *Engine) Rebalance(rank fabric.Rank) (RebalanceStats, error) {
	var stats RebalanceStats
	e.comm.Barrier(rank)
	tops := collective.Allgather(e.comm, rank, e.topHeat(rank, rebalanceTopK))
	var plan []MigrationMove
	if rank == 0 {
		plan = e.planRebalance(tops)
	}
	plan = collective.Bcast(e.comm, rank, 0, plan)
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
