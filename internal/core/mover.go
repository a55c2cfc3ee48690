package core

import (
	"slices"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
)

// The chain mover: the steps every writer that moves or rewrites a holder
// chain shares. Migration, replica seeding and failover promotion run all of
// them — lock, read the chain (readChains, in read.go), transform the
// decoded vertex, lay the new stream out over blocks (layoutChain), queue the
// chain plus its follower copies on one write train (appendChainWrites),
// publish, release.
// Commit write-back and the bulk loaders use the layout and write steps.
// ARCHITECTURE.md, "Life of a chain move", walks through them and lists what
// each caller supplies.

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
