package core

import (
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
)

// ReadArena is the reusable scratch of the allocation-free point read: a
// one-item chain reader and the zero-copy view over what it read. A worker
// keeps one arena and passes it to every OptimisticPointRead; after warm-up
// the steady-state hit path (local holder, or every remote block served by the
// validated cache) performs zero heap allocations per read.
//
// Arenas follow the handle rules: one arena per goroutine, never shared.
// The type is exported because the benchmark module's point-read probe
// passes one.
type ReadArena struct {
	r    chainReader
	view holder.View
}

// OptimisticPointRead performs a one-shot seqlock read of one vertex holder
// and hands the validated stream to fn as a zero-copy view — the leanest
// form of the optimistic tier, for point lookups that need no transaction
// (monitoring probes, benchmark harnesses, read-mostly caches above GDI).
// The benchmark module's point-read probe calls it.
//
// The read is a one-item seqlock batch of the chain reader ("Life of a holder
// read" in ARCHITECTURE.md): a one-block holder on another rank costs one
// guarded train, which loads the guard word, GETs the block (or, when the
// validated cache holds it, does not) and loads the word again. It returns false on
// any instability or anything but a vertex holder — a concurrent writer, a
// migration stub, a deleted or reused block — and the caller falls back to a
// transactional read; fn is only called on acceptance, and the view it
// receives is valid only during the call (it aliases the arena). Acceptance
// vouches for the header and the label/property entries; a v2 edge region is
// validated by the walk that reads it, so an fn that walks edges and cares
// checks View.Err afterwards.
func (e *Engine) OptimisticPointRead(origin fabric.Rank, primary fabric.DPtr, ar *ReadArena, fn func(*holder.View)) bool {
	r := &ar.r
	r.reset(1)
	r.items = append(r.items, chainItem{head: primary})
	r.read(e, origin, readSeqlock, false, false)
	if it := &r.items[0]; it.verdict != readOK || ar.view.Reset(it.buf) != nil {
		return false
	}
	if e.cfg.RebalanceHeatTracking {
		e.recordHeat(origin, ar.view.AppID(), primary.Rank())
	}
	fn(&ar.view)
	return true
}
