package core

import (
	"encoding/binary"
	"slices"
	"sync"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
)

// k-replica holder chains: read-scale replication with kill-a-rank failover.
// A replicated vertex has one primary chain (the placement the internal
// index names) plus up to k-1 follower chains, each on one other rank and
// byte-identical to the primary's stream except for the replica flag and the
// block table, which points at the follower's own blocks. Seeding
// (replicateOne) and failover promotion (promoteOne) are users of the
// chain mover (mover.go); commit fans same-shape rewrites out to the
// followers (commit.go). ARCHITECTURE.md, "Life of a chain move", has the
// steps; this comment keeps the invariants the code cannot show.
//
//   - Lockstep: a follower head's lock word is not a lock but a mirrored
//     version word. Follower word free at version v ⇔ the follower content
//     equals the primary content at v. Reads served by a follower record the
//     version against the primary DPtr, so commit validation checks it
//     against the primary's word: a follower out of lockstep costs an
//     optimistic abort, never a stale read.
//   - Release order: every writer releases the primary first (v → v+1), then
//     the follower words it marked, then enters a freshly seeded word at v+1;
//     only after that does a directory make a new copy reachable.
//   - Version monotonicity: every word only moves forward, which
//     version-validated caches rely on, so a seed never stores a fresh
//     follower word below the version the recycled block's word already has.
//   - Promotion arbitrates through one DHT CAS (dead primary → follower
//     head); the DHT's word shards survive a data-plane death, which is what
//     makes the CAS possible. Exactly one follower wins per vertex.

// replicaEntry is one follower copy hosted by this rank.
type replicaEntry struct {
	head fabric.DPtr // local head block of the follower chain
	app  uint64
}

// replicaShard is one rank's replica directory: primary DPtr → local
// follower. Reads route through it; promotion scans it for dead primaries.
type replicaShard struct {
	mu sync.Mutex
	m  map[fabric.DPtr]replicaEntry
}

func newReplicaShard() *replicaShard {
	return &replicaShard{m: make(map[fabric.DPtr]replicaEntry)}
}

func (s *replicaShard) lookup(primary fabric.DPtr) (replicaEntry, bool) {
	s.mu.Lock()
	e, ok := s.m[primary]
	s.mu.Unlock()
	return e, ok
}

func (s *replicaShard) install(primary fabric.DPtr, e replicaEntry) {
	s.mu.Lock()
	s.m[primary] = e
	s.mu.Unlock()
}

func (s *replicaShard) drop(primary fabric.DPtr) {
	s.mu.Lock()
	delete(s.m, primary)
	s.mu.Unlock()
}

// rekey moves an entry to a new primary key (after a follower promotion).
// Idempotent: the loser and the winner's rekey service call may both run.
func (s *replicaShard) rekey(old, new fabric.DPtr) {
	s.mu.Lock()
	if e, ok := s.m[old]; ok {
		delete(s.m, old)
		s.m[new] = e
	}
	s.mu.Unlock()
}

func (s *replicaShard) size() int {
	s.mu.Lock()
	n := len(s.m)
	s.mu.Unlock()
	return n
}

// promotable snapshots the entries whose primary lives on a dead rank.
func (s *replicaShard) promotable(dead map[fabric.Rank]bool) []promoteItem {
	var out []promoteItem
	s.mu.Lock()
	for primary, e := range s.m {
		if dead[primary.Rank()] {
			out = append(out, promoteItem{primary: primary, head: e.head, app: e.app})
		}
	}
	s.mu.Unlock()
	return out
}

type promoteItem struct {
	primary fabric.DPtr
	head    fabric.DPtr
	app     uint64
}

// runIsolated runs fn, absorbing a peer-death panic (the fabric's report that
// a remote operation hit a dead rank) into a false return. Every other panic
// propagates. Replication work is always best-effort against failures — a
// dead peer never takes the caller down with it.
func runIsolated(fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, peer := fabric.AsPeerDeath(r); peer {
				ok = false
				return
			}
			panic(r)
		}
	}()
	fn()
	return true
}

// Directory plumbing across processes: direct map access when the follower
// rank's memory is in this process, one control-plane service call when not —
// the same routing the explicit indexes use.

func (e *Engine) replDirInstall(origin, fr fabric.Rank, primary, head fabric.DPtr, app uint64) {
	if e.fab.Local(fr) {
		e.repl[fr].install(primary, replicaEntry{head: head, app: app})
		return
	}
	req := make([]byte, 24)
	binary.LittleEndian.PutUint64(req[0:], uint64(primary))
	binary.LittleEndian.PutUint64(req[8:], uint64(head))
	binary.LittleEndian.PutUint64(req[16:], app)
	e.fab.Call(origin, fr, fabric.SvcReplicaInstall, req)
}

func (e *Engine) replDirDrop(origin, fr fabric.Rank, primary fabric.DPtr) {
	if e.fab.Local(fr) {
		e.repl[fr].drop(primary)
		return
	}
	req := make([]byte, 16)
	binary.LittleEndian.PutUint64(req[0:], uint64(primary))
	binary.LittleEndian.PutUint64(req[8:], uint64(fr))
	e.fab.Call(origin, fr, fabric.SvcReplicaDrop, req)
}

func (e *Engine) replDirRekey(origin, fr fabric.Rank, old, new fabric.DPtr) {
	if e.fab.Local(fr) {
		e.repl[fr].rekey(old, new)
		return
	}
	req := make([]byte, 24)
	binary.LittleEndian.PutUint64(req[0:], uint64(old))
	binary.LittleEndian.PutUint64(req[8:], uint64(new))
	binary.LittleEndian.PutUint64(req[16:], uint64(fr))
	e.fab.Call(origin, fr, fabric.SvcReplicaRekey, req)
}

// listVertices snapshots rank src's vertex shard as (appID, DPtr) pairs, for
// replica placement planning.
func (e *Engine) listVertices(origin, src fabric.Rank) []promoteItem {
	if e.fab.Local(src) {
		li := e.local[src]
		li.mu.Lock()
		out := make([]promoteItem, 0, len(li.verts))
		for dp, app := range li.verts {
			out = append(out, promoteItem{primary: dp, app: app})
		}
		li.mu.Unlock()
		return out
	}
	req := make([]byte, 8)
	binary.LittleEndian.PutUint64(req, uint64(src))
	resp := e.fab.Call(origin, src, fabric.SvcListVertices, req)
	out := make([]promoteItem, 0, len(resp)/16)
	for off := 0; off+16 <= len(resp); off += 16 {
		out = append(out, promoteItem{
			primary: fabric.DPtr(binary.LittleEndian.Uint64(resp[off:])),
			app:     binary.LittleEndian.Uint64(resp[off+8:]),
		})
	}
	return out
}

// ReplicateFromRank seeds follower copies on origin for every vertex of rank
// src that has fewer than k-1 followers and none here yet. Best-effort: busy,
// moved, already-replicated, or dead-rank vertices are skipped. Returns how
// many copies were seeded.
func (e *Engine) ReplicateFromRank(origin, src fabric.Rank, k int) int {
	if src == origin || e.isDead(src) {
		return 0
	}
	var listing []promoteItem
	if !runIsolated(func() { listing = e.listVertices(origin, src) }) {
		return 0
	}
	apps := make([]uint64, len(listing))
	for i, it := range listing {
		apps[i] = it.app
	}
	return e.replicateAll(origin, apps, k)
}

// replicateAll seeds a follower copy on origin for each of apps, resolving
// all of them through the internal index first (one batched lookup instead of
// one per vertex), and returns how many copies it seeded.
func (e *Engine) replicateAll(origin fabric.Rank, apps []uint64, k int) int {
	// A dead rank takes the index entries hashed to it along; leave those
	// keys out so the batch walk reaches everything else.
	dead := e.deadSet()
	reachable := make([]uint64, 0, len(apps))
	for _, app := range apps {
		if !dead[e.index.HomeRank(app)] {
			reachable = append(reachable, app)
		}
	}
	apps = reachable
	var primaries []fabric.DPtr
	var found []bool
	if !runIsolated(func() { primaries, found = e.lookupVertices(origin, apps) }) {
		return 0
	}
	n := 0
	for i, app := range apps {
		seeded := false
		if found[i] {
			runIsolated(func() { seeded = e.replicateOne(origin, app, primaries[i], k) })
		}
		if seeded {
			n++
		}
	}
	return n
}

// ReplicateUniform gives origin follower copies of the k-1 preceding ranks'
// vertices, so every vertex ends up with followers on the k-1 ranks after its
// primary once all ranks have run it. Returns the seed count.
func (e *Engine) ReplicateUniform(origin fabric.Rank, k int) int {
	n := 0
	size := e.fab.Size()
	for d := 1; d < k && d < size; d++ {
		src := fabric.Rank((int(origin) - d + size) % size)
		n += e.ReplicateFromRank(origin, src, k)
	}
	return n
}

// ReplicateHot seeds follower copies of origin's hottest remote vertices —
// the topM entries of its own access-heat shard whose primary lives
// elsewhere: each rank replicates exactly what it reads most. Requires
// Config.RebalanceHeatTracking. Returns the seed count.
func (e *Engine) ReplicateHot(origin fabric.Rank, k, topM int) int {
	var apps []uint64
	for _, s := range e.topHeat(origin, topM) {
		if s.Owner != origin {
			apps = append(apps, s.App)
		}
	}
	return e.replicateAll(origin, apps, k)
}

// replicateOne pulls one follower copy of vertex app onto origin, leaving the
// vertex with at most k-1 follower groups. The primary is write-locked for
// the duration (best-effort — a contended vertex is skipped), the chain is
// re-encoded with the new group appended (which may grow the block count: the
// group region participates in the holder's fixed point, so the primary chain
// and every existing group grow in the same train), everything is published
// with one vectored PUT train per rank, and the fresh follower word enters
// lockstep at the version the primary's release bumps to.
func (e *Engine) replicateOne(origin fabric.Rank, app uint64, primary fabric.DPtr, k int) bool {
	if k < 2 || primary.Rank() == origin || !e.validPoolDPtr(primary) || e.isDead(primary.Rank()) {
		return false
	}
	if _, dup := e.repl[origin].lookup(primary); dup {
		return false
	}
	ms := e.lockMoves(origin, []*chainMove{{head: primary, app: app, word: e.lockWordOf(primary)}})
	if len(ms) == 0 {
		return false
	}
	m := ms[0]
	e.readMoves(origin, ms, isPrimaryHead, nil)
	if !m.dropped && !e.addFollower(origin, m, k) {
		e.rollback(origin, m)
	}
	e.releaseMoves(origin, ms, nil)
	if m.dropped {
		return false
	}
	// Only after the release does the directory make the copy reachable.
	e.repl[origin].install(primary, replicaEntry{head: m.v.Replicas[len(m.v.Replicas)-1][0], app: app})
	e.reseeds.Add(1)
	return true
}

// addFollower is seeding's transform and publish: it appends a follower group
// on origin to m's vertex, grows the primary chain and every existing group
// to the new block count, mirror-marks the existing groups and publishes
// everything with one vectored PUT train per rank. It reports false, having
// published nothing, when the vertex cannot take the copy.
func (e *Engine) addFollower(origin fabric.Rank, m *chainMove, k int) bool {
	bs, v := e.cfg.BlockSize, m.v
	existing := len(v.Replicas)
	if existing >= k-1 || slices.ContainsFunc(v.Replicas, func(g []fabric.DPtr) bool {
		return len(g) == 0 || g[0].Rank() == origin || e.isDead(g[0].Rank()) // following here, corrupt, or dead
	}) {
		return false
	}
	// Fixed point with one more group, then allocate: the new group here,
	// plus growth blocks for the primary chain and every existing group when
	// the bigger group region pushed the holder over a block boundary.
	v.Replicas = append(v.Replicas, nil)
	need := holder.VertexBlocks(v, bs)
	group, _, err := e.fitChain(origin, origin, nil, need, &m.fresh)
	if err == nil {
		m.chain, _, err = e.fitChain(origin, m.head.Rank(), m.old, need, &m.fresh)
	}
	for gi := 0; err == nil && gi < existing; gi++ {
		g := v.Replicas[gi]
		v.Replicas[gi], _, err = e.fitChain(origin, g[0].Rank(), g, need, &m.fresh)
	}
	if err != nil {
		return false
	}
	// Version monotonicity guard: the fresh follower word will be stored to
	// ver+1. A recycled block whose word already sits above ver would rewind
	// it — skip the vertex instead (rare: most block words sit far below a
	// live vertex's version).
	seed := e.lockWordOf(group[0])
	if locks.Version(seed.Stamp(origin)) > m.ver {
		return false
	}
	// Mirror-mark the existing groups: their streams are rewritten too (the
	// group region changes with ours). A mark that fails means lockstep was
	// already broken — leave the vertex as it was.
	if len(e.markGroups(origin, m, v.Replicas[:existing])) < existing {
		return false
	}
	v.Replicas[existing] = group
	stream := holder.EncodeVertex(v, bs)
	setChainTable(stream, m.chain)
	var w writeList
	w.appendChainWrites(stream, m.chain, v.Replicas, bs)
	e.store.WriteBlocksBatch(origin, w.dps, w.data)
	m.seed = seed
	return true
}

// PromoteDead promotes this rank's follower copies of every vertex whose
// primary lives on a rank the transport has reported dead. Each entry races
// the vertex's other surviving followers through one DHT CAS
// (ReplaceFetch: dead primary → my follower head); the winner becomes the new
// primary, the losers learn the winner from the failed CAS and rekey their
// directories. Safe to call repeatedly; returns how many vertices this rank
// won.
//
// Call it after the surviving ranks' in-flight commits have drained (the
// OLTP drivers quiesce, then every survivor promotes). A follower word still
// write-marked at that point can only be the unfinished fan-out of a
// committer that died with the primary's rank, which promotion steals; a
// live committer racing this call could have its fan-out half-applied over
// the promoted copy.
func (e *Engine) PromoteDead(origin fabric.Rank) int {
	dead := e.deadSet()
	if len(dead) == 0 {
		return 0
	}
	if e.snap != nil {
		// Like migration: a cut must not stamp shards mid-rewrite.
		e.htapGate.RLock()
		defer e.htapGate.RUnlock()
	}
	won := 0
	for _, it := range e.repl[origin].promotable(dead) {
		promoted := false
		runIsolated(func() { promoted = e.promoteOne(origin, it) })
		if promoted {
			won++
		}
	}
	return won
}

// promoteOne races one dead primary's followers for the vertex through the
// DHT CAS and, on a win, rewrites this follower's chain as the new primary.
func (e *Engine) promoteOne(origin fabric.Rank, it promoteItem) bool {
	m := &chainMove{head: it.head, app: it.app, word: e.lockWordOf(it.head)}
	// My follower word is normally free (the primary that mirror-marks it is
	// dead). A committer that died mid-fan-out can have left it marked — and
	// possibly the content torn — in which case the mark is stolen: nothing
	// will ever complete that fan-out.
	w := m.word.Stamp(origin)
	m.stolen, m.ver = locks.WriteHeld(w), locks.Version(w)

	cur, swapped, found := e.index.ReplaceFetch(origin, it.app, uint64(it.primary), uint64(it.head))
	if !found {
		// The vertex was deleted. The deleting commit's drop path owns the
		// follower blocks; only the directory entry is ours to clear.
		e.repl[origin].drop(it.primary)
		return false
	}
	if !swapped && fabric.DPtr(cur) != it.head {
		e.promoteLost(origin, it, fabric.DPtr(cur), m.word, m.stolen, m.ver)
		return false
	}

	// Won, or resuming an earlier win that swung the entry but died before
	// the rewrite. Take the head word exclusively, seeded with the version
	// just stamped; a stolen mark already is exclusive possession. Then read
	// my chain under it. A torn half-fan-out copy fails the read, decode or
	// identity check: the dead rank already lost the vertex's latest state
	// mid-commit, and there is nothing to preserve.
	ms := []*chainMove{m}
	if !m.stolen && len(e.lockMoves(origin, ms)) == 0 {
		return false // local contention; retry on the next PromoteDead
	}
	e.readMoves(origin, ms, holder.IsReplicaBlock, nil)
	if v := m.v; v != nil {
		// Mirror-mark the surviving sibling followers (they are rewritten
		// below into lockstep with the new primary); prune my own group,
		// every group on a dead rank, and any sibling that fails the mark.
		live := slices.DeleteFunc(v.Replicas, func(g []fabric.DPtr) bool {
			return len(g) == 0 || g[0] == it.head || e.isDead(g[0].Rank())
		})
		v.Replicas = e.markGroups(origin, m, live)
		e.replicaDrops.Add(int64(len(live) - len(v.Replicas)))
		// Re-encode as primary: replica flag cleared, the dead ranks' homes
		// pruned. Content only shrinks, so every chain keeps its block count
		// or splits off a tail; anything else is a corrupt copy.
		v.IsReplica = false
		v.Homes = e.pruneDead(v.Homes)
		if need := holder.VertexBlocks(v, e.cfg.BlockSize); need > len(m.old) {
			e.rollback(origin, m)
		} else {
			e.publishPromoted(origin, it, m, need)
		}
	}
	e.releaseMoves(origin, ms, nil)
	e.repl[origin].drop(it.primary)
	if m.dropped {
		return false
	}
	for _, g := range m.v.Replicas {
		runIsolated(func() { e.replDirRekey(origin, g[0].Rank(), it.primary, it.head) })
	}
	e.promotions.Add(1)
	return true
}

// publishPromoted lays m's vertex out over need blocks of my chain and of
// every surviving sibling group, queuing the split-off tails for the
// release, and publishes my chain as the new primary with every survivor
// rewritten back into lockstep. The explicit indexes then name the vertex
// here; the dead rank's shard (if its memory is still in this process, as
// under the simulator's kill) is cleaned so collective scans stop listing
// the stale placement.
func (e *Engine) publishPromoted(origin fabric.Rank, it promoteItem, m *chainMove, need int) {
	bs, v := e.cfg.BlockSize, m.v
	for gi, g := range v.Replicas {
		var tail []fabric.DPtr
		v.Replicas[gi], tail, _ = e.fitChain(origin, g[0].Rank(), g, need, nil)
		m.tail = append(m.tail, tail...)
	}
	stream := holder.EncodeVertex(v, bs)
	chain, tail, _ := e.layoutChain(origin, origin, stream, m.old, nil)
	m.chain, m.tail = chain, append(m.tail, tail...)
	var w writeList
	w.appendChainWrites(stream, m.chain, v.Replicas, bs)
	e.writeBackByRank(origin, &w)
	labels := lpg.AppendLabels(nil, v.Entries)
	e.idxAddVertex(origin, it.head, it.app, labels)
	if e.fab.Local(it.primary.Rank()) {
		e.local[it.primary.Rank()].removeVertex(it.primary, labels)
	}
}

// promoteLost handles a follower whose promotion CAS lost to winner. With a
// free word it rekeys: the winner mirror-marks and rewrites this copy, so the
// entry stays valid under the new primary. A stolen (dead-marked) word the
// winner cannot mark, so it pruned this group and the copy is garbage: the
// follower self-drops and, once the copy proves to be the vertex, clears the
// mark and returns the chain, whose blocks are this rank's alone.
func (e *Engine) promoteLost(origin fabric.Rank, it promoteItem, winner fabric.DPtr, headWord locks.Word, stolen bool, fv uint64) {
	if !stolen {
		e.repl[origin].rekey(it.primary, winner)
		return
	}
	e.repl[origin].drop(it.primary)
	e.replicaDrops.Add(1)
	ms := []*chainMove{{head: it.head, app: it.app, word: headWord, ver: fv, stolen: true}}
	if e.readMoves(origin, ms, holder.IsReplicaBlock, nil); !ms[0].dropped {
		ms[0].tail = ms[0].old
		e.releaseMoves(origin, ms, nil)
	}
}

// dropFollowerGroups retires a replicated vertex's follower groups at commit
// time (reshape or deletion), once the commit's write-back train has poisoned
// each group's head (Commit queues that poison itself): the blocks are
// returned and the follower rank's directory entry is dropped — all
// best-effort against dead ranks. A racing local replica read on the
// follower rank observes either the old content (and fails version
// validation against the primary) or the poison (and falls back); neither
// yields a stale read.
func (e *Engine) dropFollowerGroups(origin fabric.Rank, primary fabric.DPtr, groups [][]fabric.DPtr) {
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		fr := g[0].Rank()
		if !e.isDead(fr) {
			runIsolated(func() {
				e.releaseBlocks(origin, g)
				e.replDirDrop(origin, fr, primary)
			})
		}
		e.replicaDrops.Add(1)
	}
}
