package core

import (
	"sync"

	"github.com/gdi-go/gdi/internal/fabric"
)

// groupCommitter coalesces the apply-phase write-back trains of concurrent
// transactions committing from one rank (group commit). The first
// transaction to reach write-back becomes the train leader and flushes every
// write set queued on the rank — its own plus any that arrive while a flush
// is on the wire — as one vectored PUT train per owner rank; later arrivals
// enqueue and wait for a leader to carry their blocks. Distinct committers
// hold exclusive locks on distinct holders, so merged write sets never
// overlap, and each transaction still returns from Commit only after its own
// blocks are durably written.
type groupCommitter struct {
	mu       sync.Mutex
	pending  []*commitTrain
	flushing bool
}

// commitTrain is one transaction's dirty-block write set awaiting a leader.
type commitTrain struct {
	dps  []fabric.DPtr
	data [][]byte
	done chan struct{}
}

// groupWriteBack submits one transaction's dirty blocks to rank's combiner
// and returns once they are written — either by this goroutine acting as
// leader or by a concurrent leader whose merged train carried them.
func (e *Engine) groupWriteBack(rank fabric.Rank, dps []fabric.DPtr, data [][]byte) {
	if len(dps) == 0 {
		return
	}
	g := &e.commits[rank]
	t := &commitTrain{dps: dps, data: data, done: make(chan struct{})}
	g.mu.Lock()
	g.pending = append(g.pending, t)
	if g.flushing {
		// A leader is already on the wire; it (or its successor iteration)
		// picks this train up before giving up leadership.
		g.mu.Unlock()
		<-t.done
		return
	}
	g.flushing = true
	for len(g.pending) > 0 {
		batch := g.pending
		g.pending = nil
		g.mu.Unlock()
		if len(batch) == 1 {
			e.writeBackByRank(rank, batch[0].dps, batch[0].data)
		} else {
			n := 0
			for _, b := range batch {
				n += len(b.dps)
			}
			mdps := make([]fabric.DPtr, 0, n)
			mdata := make([][]byte, 0, n)
			for _, b := range batch {
				mdps = append(mdps, b.dps...)
				mdata = append(mdata, b.data...)
			}
			e.writeBackByRank(rank, mdps, mdata)
		}
		for _, b := range batch {
			close(b.done)
		}
		clear(batch)
		g.mu.Lock()
		if g.pending == nil {
			g.pending = batch[:0] // no train queued during the flush: recycle the array
		}
	}
	g.flushing = false
	g.mu.Unlock()
}

// writeBackByRank lands one merged write set, one isolated PUT train per
// destination rank. Isolation is the point: a train whose destination dies
// mid-write-back panics with a peer-death error, and an unprotected leader
// used to carry that panic out of groupWriteBack with its followers' done
// channels never closed — every concurrent committer of the rank then hung
// forever. Absorbing the dead rank's segment is sound: primaries on a dead
// rank are unreachable regardless, and a replicated vertex's surviving
// follower copies receive the same payload through their own ranks' trains —
// which this partitioning guarantees are still issued.
func (e *Engine) writeBackByRank(rank fabric.Rank, dps []fabric.DPtr, data [][]byte) {
	sameRank := true
	for _, dp := range dps[1:] {
		if dp.Rank() != dps[0].Rank() {
			sameRank = false
			break
		}
	}
	if sameRank {
		runIsolated(func() { e.store.WriteBlocksBatch(rank, dps, data) })
		return
	}
	byRank := make(map[fabric.Rank][]int)
	for i, dp := range dps {
		byRank[dp.Rank()] = append(byRank[dp.Rank()], i)
	}
	for _, is := range byRank {
		sub := make([]fabric.DPtr, len(is))
		subData := make([][]byte, len(is))
		for j, i := range is {
			sub[j] = dps[i]
			subData[j] = data[i]
		}
		runIsolated(func() { e.store.WriteBlocksBatch(rank, sub, subData) })
	}
}
