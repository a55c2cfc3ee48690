package core

import (
	"fmt"

	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/snapshot"
)

// AcquireCut is the collective entry point of the HTAP snapshot subsystem:
// every rank calls it, and all of them return the same pinned
// transaction-consistent cut. Rank 0 takes the commit gate exclusively,
// every rank stamps its own shard (one owner-local guard-stamp train, so the
// whole pin charges zero simulated network latency) and records its vertex
// listing, and only then is the gate dropped — no commit's apply phase
// overlaps any rank's stamping, which is what makes the per-rank stamps one
// global cut.
//
// Work: O(blocks/rank) local atomic loads per rank; depth: O(log P) for the
// barriers. Commits block only for the duration of the stamping itself.
func (e *Engine) AcquireCut(rank fabric.Rank) (*snapshot.Cut, error) {
	if e.snap == nil {
		return nil, fmt.Errorf("%w: HTAP snapshots are not enabled", ErrBadArgument)
	}
	e.comm.Barrier(rank)
	var cut *snapshot.Cut
	if rank == 0 {
		e.htapGate.Lock()
		cut = e.snap.NewCut()
	}
	cut = collective.Bcast(e.comm, rank, 0, cut)
	// Gate held, cut shared: stamp this rank's shard and snapshot its vertex
	// listing. The local index is maintained inside the gated apply phase, so
	// under the exclusive gate it agrees exactly with the stamped blocks.
	e.snap.PinRank(cut, rank, e.followerBlocks(rank))
	cut.SetVerts(rank, e.LocalVertices(rank))
	e.comm.Barrier(rank)
	if rank == 0 {
		e.htapGate.Unlock()
	}
	e.comm.Barrier(rank)
	return cut, nil
}

// followerBlocks lists the blocks of rank r's follower copies: the chains
// its replica directory names, each read stable under its head's word (the
// one a fan-out marks) and checked to be the copy of the vertex its entry
// names. No read through a cut reaches them: a cut lists primaries, and
// reads their chains, the forwarding stubs of their former homes and their
// heavy-edge holders. A copy that is not read stable, one being rewritten,
// is left out, and its blocks are retired like any other.
func (e *Engine) followerBlocks(r fabric.Rank) []fabric.DPtr {
	dir := e.repl[r]
	dir.mu.Lock()
	ents := make([]replicaEntry, 0, len(dir.m))
	for _, ent := range dir.m {
		ents = append(ents, ent)
	}
	dir.mu.Unlock()
	if len(ents) == 0 {
		return nil
	}
	fs := getReadScratch()
	defer fs.release()
	rd := &fs.chainReader
	rd.items = reuse(rd.items)
	for _, ent := range ents {
		rd.items = append(rd.items, chainItem{head: ent.head, want: holder.IsReplicaBlock, follower: true})
	}
	rd.stamp(e, r)
	rd.read(e, r, readSeqlock, false, false)
	var out []fabric.DPtr
	var w holder.View
	for i := range rd.items {
		it := &rd.items[i]
		if it.verdict == readOK && w.Reset(it.buf) == nil && w.IsReplica() && w.AppID() == ents[i].app {
			out = append(out, it.chain()...)
		}
	}
	return out
}

// ReleaseCut collectively unpins a cut: the barrier ensures no rank is still
// reading through it, then rank 0 drops every shard's pin and the arena
// references, returning retired bytes to the pool. A non-collective drop
// (e.g. an analytics run dying mid-iteration) may instead call cut.Release
// directly from one goroutine.
func (e *Engine) ReleaseCut(rank fabric.Rank, cut *snapshot.Cut) {
	e.comm.Barrier(rank)
	if rank == 0 {
		cut.Release()
	}
	e.comm.Barrier(rank)
}

// maxCutForwards bounds forwarding-stub chases during cut reads; live
// migration publishes at most one stub hop per move, and moves between two
// gated phases are finite.
const maxCutForwards = 8

// CutVertex reads a whole vertex holder as of the cut: the primary block and
// every continuation block resolve through the cut's versioned reads, so the
// decoded holder is exactly the committed state at pin time even while live
// writers rewrite the chain. Forwarding stubs left by pre-cut migrations are
// chased like the live read path does.
func (e *Engine) CutVertex(origin fabric.Rank, cut *snapshot.Cut, dp fabric.DPtr) (*holder.Vertex, error) {
	buf, err := e.cutChain(origin, cut, dp)
	if err != nil {
		return nil, err
	}
	v, err := holder.DecodeVertex(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: cut vertex %v: %v", ErrNotFound, dp, err)
	}
	return v, nil
}

// CutEdge reads a heavy-edge holder as of the cut (see CutVertex).
func (e *Engine) CutEdge(origin fabric.Rank, cut *snapshot.Cut, dp fabric.DPtr) (*holder.Edge, error) {
	buf, err := e.cutChain(origin, cut, dp)
	if err != nil {
		return nil, err
	}
	ed, err := holder.DecodeEdge(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: cut edge %v: %v", ErrNotFound, dp, err)
	}
	return ed, nil
}

// cutChain assembles one holder's full block chain through cut reads.
func (e *Engine) cutChain(origin fabric.Rank, cut *snapshot.Cut, dp fabric.DPtr) ([]byte, error) {
	bs := e.cfg.BlockSize
	buf := make([]byte, bs)
	for hop := 0; ; hop++ {
		if err := e.snap.ReadBlock(origin, cut, dp, buf); err != nil {
			return nil, err
		}
		if !holder.IsMoved(buf) {
			break
		}
		if hop >= maxCutForwards {
			return nil, fmt.Errorf("%w: cut read of %v chased %d forwarding stubs", ErrNotFound, dp, hop)
		}
		e.forwards.Add(1)
		dp = holder.MovedTarget(buf)
	}
	nb := holder.NumBlocks(buf)
	if nb < 1 {
		return nil, fmt.Errorf("%w: cut read of %v found a freed block", ErrNotFound, dp)
	}
	if !e.plausibleBlock(dp, buf, 0) {
		return nil, fmt.Errorf("%w: cut read of %v found a block count no holder has", ErrNotFound, dp)
	}
	if nb == 1 {
		return buf, nil
	}
	full := make([]byte, nb*bs)
	copy(full, buf)
	for i := 1; i < nb; i++ {
		if !e.plausibleBlock(dp, full, i) {
			return nil, fmt.Errorf("%w: cut read of %v found a table entry no holder has", ErrNotFound, dp)
		}
		cont := holder.TableEntry(full, i-1)
		if err := e.snap.ReadBlock(origin, cut, cont, full[i*bs:(i+1)*bs]); err != nil {
			return nil, err
		}
	}
	return full, nil
}
