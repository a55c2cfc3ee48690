package core

import (
	"slices"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
)

// The chain mover: the record and the steps every writer that moves a holder
// chain shares. Migration, replica seeding and failover promotion run all of
// them — lock (lockMoves), read and identify (readMoves, over readChains in
// read.go), transform the decoded vertex, lay the new stream out over blocks
// (layoutChain), mark the followers (markFollowers), queue the chain plus its
// follower copies on one write train (appendChainWrites), publish, release
// in lockstep order (releaseMoves) — and give a move up with one rollback.
// Commit write-back and the bulk loaders use the layout and write steps, and
// Commit's fan-out the follower lockstep pair. ARCHITECTURE.md, "Life of a
// chain move", walks through them and lists what each caller supplies.

// chainMove is one holder chain on its way through the mover.
type chainMove struct {
	head fabric.DPtr // the chain's head block, whose word the move holds
	app  uint64      // the vertex the caller expects there
	word locks.Word  // the held word: a write lock, or a stolen mark
	ver  uint64      // its version while held
	// stolen: word carries the mark of a committer that died mid-fan-out,
	// which the move owns without a lock train; the release stores it free.
	stolen  bool
	v       *holder.Vertex // the decoded vertex, once identified
	old     []fabric.DPtr  // the chain as read, head first
	chain   []fabric.DPtr  // the new chain, head first
	fresh   []fabric.DPtr  // blocks acquired for the move: the rollback list
	tail    []fabric.DPtr  // blocks freed once the move is released
	sec     []locks.Word   // secondary words write-held, and their versions
	secVers []uint64
	mirrors []locks.Word // follower words marked at ver
	seed    locks.Word   // a fresh follower word that enters lockstep (Win nil: none)
	// dropped: the move was given up before it wrote anything, so its words
	// and marks drop at the versions they were taken at.
	dropped bool
}

// lockWordOf addresses dp's per-block reader-writer lock word.
func (e *Engine) lockWordOf(dp fabric.DPtr) locks.Word {
	win, target, idx := e.store.LockWord(dp)
	return locks.Word{Win: win, Target: target, Idx: idx}
}

// validPoolDPtr reports whether dp addresses a real block of the pool
// (plans travel over the wire, and chain tables may be read from a recycled
// block; neither may make a reader panic).
func (e *Engine) validPoolDPtr(dp fabric.DPtr) bool {
	return !dp.IsNull() && dp.Off() > 0 && dp.Off() < uint64(e.store.BlocksPerRank()) &&
		int(dp.Rank()) < e.fab.Size()
}

// isVertexHead accepts the head block of a live vertex holder: not a
// forwarding stub, not a heavy-edge holder.
func isVertexHead(head []byte) bool { return !holder.IsMoved(head) && !holder.IsEdgeHolder(head) }

// isPrimaryHead accepts the head block of a live vertex holder's primary
// chain, the only block a cached translation may name.
func isPrimaryHead(head []byte) bool { return isVertexHead(head) && !holder.IsReplicaBlock(head) }

// fitChain resizes blocks to need entries. Missing blocks are acquired on
// rank on and, when fresh is non-nil, also appended to *fresh, the caller's
// rollback list. Surplus blocks are split off as tail, which the caller frees
// once the new chain is published. On pool exhaustion it returns the blocks
// grown so far and ErrNoMemory.
func (e *Engine) fitChain(origin, on fabric.Rank, blocks []fabric.DPtr, need int, fresh *[]fabric.DPtr) (chain, tail []fabric.DPtr, err error) {
	if need > len(blocks) {
		blocks = slices.Grow(blocks, need-len(blocks))
	}
	for len(blocks) < need {
		dp, err := e.store.AcquireBlock(origin, on)
		if err != nil {
			return blocks, nil, ErrNoMemory
		}
		if fresh != nil {
			*fresh = append(*fresh, dp)
		}
		blocks = append(blocks, dp)
	}
	return blocks[:need], blocks[need:], nil
}

// layoutChain lays an encoded stream out over blocks: fitChain to the
// stream's block count, then setChainTable.
func (e *Engine) layoutChain(origin, on fabric.Rank, stream []byte, blocks []fabric.DPtr, fresh *[]fabric.DPtr) (chain, tail []fabric.DPtr, err error) {
	chain, tail, err = e.fitChain(origin, on, blocks, len(stream)/e.cfg.BlockSize, fresh)
	if err == nil {
		setChainTable(stream, chain)
	}
	return chain, tail, err
}

// setChainTable writes the continuation DPtrs of chain (head first) into the
// stream's block table.
func setChainTable(stream []byte, chain []fabric.DPtr) {
	for i := 1; i < len(chain); i++ {
		holder.SetTableEntry(stream, i-1, chain[i])
	}
}

// releaseBlocks returns dps to their pools.
func (e *Engine) releaseBlocks(origin fabric.Rank, dps []fabric.DPtr) {
	for _, dp := range dps {
		e.store.ReleaseBlock(origin, dp)
	}
}

// writeList is a vectored write under construction: the block store flushes
// it as one PUT train per owner rank.
type writeList struct {
	dps  []fabric.DPtr
	data [][]byte
}

func (w *writeList) put(dp fabric.DPtr, payload []byte) {
	w.dps = append(w.dps, dp)
	w.data = append(w.data, payload)
}

// appendChainWrites queues one holder's publication: stream onto chain, and
// one follower copy per group — the stream with the replica flag set and the
// table re-pointed at the group's own blocks.
func (w *writeList) appendChainWrites(stream []byte, chain []fabric.DPtr, groups [][]fabric.DPtr, bs int) {
	for i, dp := range chain {
		w.put(dp, stream[i*bs:(i+1)*bs])
	}
	for _, g := range groups {
		rep := holder.RewriteAsReplica(stream, g)
		for i, dp := range g {
			w.put(dp, rep[i*bs:(i+1)*bs])
		}
	}
}

// writeBackByRank lands w as one PUT train per owner rank, ranks in the
// order w first names them, each train isolated: a train whose destination
// dies mid-write panics with a peer-death error, which is absorbed, and the
// trains to the other ranks are still issued. Absorbing the dead rank's
// train is sound: primaries on a dead rank are unreachable regardless, and a
// replicated vertex's surviving copies receive the same payload through
// their own ranks' trains. A write set names each block once, so the order
// of the writes within a train is immaterial; grouping reorders w in place.
func (e *Engine) writeBackByRank(origin fabric.Rank, w *writeList) {
	dps, data := w.dps, w.data
	for len(dps) > 0 {
		r, n := dps[0].Rank(), 0
		for i, dp := range dps {
			if dp.Rank() == r {
				dps[n], dps[i] = dp, dps[n]
				data[n], data[i] = data[i], data[n]
				n++
			}
		}
		runIsolated(func() { e.store.WriteBlocksBatch(origin, dps[:n], data[:n]) })
		dps, data = dps[n:], data[n:]
	}
}

// splitHeld splits a train whose words were taken one by one (a best-effort
// write-lock train or a mirror-mark train) into the words it did take, with
// their versions, and whether that was all of them. A caller that needs the
// whole train releases the held subset when it was not.
func splitHeld(words []locks.Word, vers []uint64, held []bool) (hw []locks.Word, hv []uint64, all bool) {
	all = true
	for i, h := range held {
		if !h {
			all = false
			continue
		}
		hw = append(hw, words[i])
		hv = append(hv, vers[i])
	}
	return hw, hv, all
}

// lockMoves takes the word of every move with one best-effort write-lock
// train, seeded with the version the caller saw (m.ver), and returns the
// moves it took, each with the version it was taken at. A busy word is not
// waited for: background work skips the vertex and retries on a later round.
func (e *Engine) lockMoves(origin fabric.Rank, ms []*chainMove) []*chainMove {
	train := make([]locks.TrainLock, len(ms))
	for i, m := range ms {
		train[i] = locks.TrainLock{Word: m.word, Ver: m.ver}
	}
	vers, held := locks.AcquireWriteTrainEach(origin, train, e.cfg.LockTries)
	taken := ms[:0]
	for i, m := range ms {
		if held[i] {
			m.ver = vers[i]
			taken = append(taken, m)
		}
	}
	return taken
}

// readMoves reads the chain of every move under its held word with one
// readChains batch and identifies it: the reader must accept the chain and
// want its head, the stream must decode to vertex m.app, and placed, when
// not nil, must confirm the caller's index names this chain. An identified
// move records its vertex and chain; any other is rolled back.
func (e *Engine) readMoves(origin fabric.Rank, ms []*chainMove, want func(head []byte) bool, placed func(i int) bool) {
	heads := make([]fabric.DPtr, len(ms))
	for i, m := range ms {
		heads[i] = m.head
	}
	for i, it := range e.readChains(origin, heads, want) {
		m := ms[i]
		v, err := (*holder.Vertex)(nil), ErrNotFound
		if it.verdict == readOK {
			v, err = holder.DecodeVertex(it.buf)
		}
		if err != nil || v.AppID != m.app || placed != nil && !placed(i) {
			e.rollback(origin, m)
			continue
		}
		m.v, m.old = v, it.chain()
	}
}

// rollback gives a move up before it writes anything: the blocks it
// acquired go back to the pool. Its held word, its secondary words and its
// marks wait for releaseMoves, which drops them unchanged.
func (e *Engine) rollback(origin fabric.Rank, m *chainMove) {
	e.releaseBlocks(origin, m.fresh)
	m.fresh, m.tail, m.dropped = nil, nil, true
}

// releaseMoves ends moves in lockstep order. Every held word and every
// secondary word drops as one train per owner rank: a published move's
// words bump and publish the stub bit stubs asks for (absent: kept), a
// dropped move's drop unchanged. The marked follower words then follow
// their primary, and each stolen word and each fresh follower word is
// stored free at the primary's new version. A stolen word always moves up:
// its content may be torn. Last, each move frees its tail.
func (e *Engine) releaseMoves(origin fabric.Rank, ms []*chainMove, stubs map[locks.Word]locks.ReleaseMark) {
	var words, mirrors []locks.Word
	var vers, mirVers []uint64
	var marks, mirMarks []locks.ReleaseMark
	for _, m := range ms {
		mark := func(w locks.Word) locks.ReleaseMark {
			if m.dropped {
				return locks.Unwritten
			}
			return stubs[w]
		}
		if !m.stolen {
			words, vers, marks = append(words, m.word), append(vers, m.ver), append(marks, mark(m.word))
		}
		for i, w := range m.sec {
			words, vers, marks = append(words, w), append(vers, m.secVers[i]), append(marks, mark(w))
		}
		for _, w := range m.mirrors {
			mirrors, mirVers, mirMarks = append(mirrors, w), append(mirVers, m.ver), append(mirMarks, mark(w))
		}
	}
	locks.ReleaseWriteTrainMarked(origin, words, vers, marks)
	e.releaseFollowers(origin, mirrors, mirVers, mirMarks)
	for _, m := range ms {
		if m.stolen {
			locks.SeedMirrorWord(origin, m.word, m.ver)
		}
		if m.seed.Win != nil {
			locks.SeedMirrorWord(origin, m.seed, m.ver)
		}
		for _, dp := range m.tail {
			runIsolated(func() { e.store.ReleaseBlock(origin, dp) })
		}
	}
}

// pruneDead drops, in place, the placements that live on dead ranks: a dead
// rank's blocks get no lock, no stub and no copy.
func (e *Engine) pruneDead(dps []fabric.DPtr) []fabric.DPtr {
	return slices.DeleteFunc(dps, func(dp fabric.DPtr) bool { return e.isDead(dp.Rank()) })
}

// Follower lockstep: a writer that rewrites a replicated chain marks the
// follower words (markFollowers) and, once the primary is released, moves
// them as the primary moved (releaseFollowers): one version up when it
// wrote them, back to where they were when it gave up first. Each runs one
// mirror train per live follower rank under runIsolated, so a dead follower
// rank costs only its own words.

// markFollowers mirror-marks follower words, each expected free at the
// version in vers, and reports which it marked, aligned with words. A word
// not marked is out of lockstep, or its rank is dead.
func (e *Engine) markFollowers(origin fabric.Rank, words []locks.Word, vers []uint64) []bool {
	return e.followerTrains(words, func(at []int) []bool {
		return locks.AcquireMirrorTrain(origin, pick(words, at), pick(vers, at))
	})
}

// markGroups mirror-marks the head word of each follower group at m's
// version, records the marks on m for its release, and returns the groups
// it marked.
func (e *Engine) markGroups(origin fabric.Rank, m *chainMove, groups [][]fabric.DPtr) (marked [][]fabric.DPtr) {
	words := make([]locks.Word, len(groups))
	vers := make([]uint64, len(groups))
	for i, g := range groups {
		words[i], vers[i] = e.lockWordOf(g[0]), m.ver
	}
	for i, ok := range e.markFollowers(origin, words, vers) {
		if ok {
			marked = append(marked, groups[i])
			m.mirrors = append(m.mirrors, words[i])
		}
	}
	return marked
}

// releaseFollowers releases follower words marked at vers after their
// primaries' release, each as marks says (nil: every word Written, to
// vers+1).
func (e *Engine) releaseFollowers(origin fabric.Rank, words []locks.Word, vers []uint64, marks []locks.ReleaseMark) {
	e.followerTrains(words, func(at []int) []bool {
		locks.ReleaseMirrorTrain(origin, pick(words, at), pick(vers, at), pick(marks, at))
		return nil
	})
}

// followerTrains runs train once per live follower rank over the positions
// of the words that rank owns, under runIsolated, and reports, aligned with
// words, which of them train swapped: none on a rank that is dead or died
// during its train, all where train reports nothing.
func (e *Engine) followerTrains(words []locks.Word, train func(at []int) []bool) []bool {
	if len(words) == 0 {
		return nil
	}
	done := make([]bool, len(words))
	byRank := make(map[fabric.Rank][]int)
	for i, w := range words {
		byRank[w.Target] = append(byRank[w.Target], i)
	}
	for fr, at := range byRank {
		var swapped []bool
		live := !e.isDead(fr) && runIsolated(func() { swapped = train(at) })
		for j, i := range at {
			done[i] = live && (swapped == nil || swapped[j])
		}
	}
	return done
}

// pick returns s's elements at the positions at, or nil when s is nil.
func pick[T any](s []T, at []int) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(at))
	for j, i := range at {
		out[j] = s[i]
	}
	return out
}
