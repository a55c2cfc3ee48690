package analytics

import (
	"fmt"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/snapshot"
)

// This file is the HTAP analytics path: iterative kernels over a pinned
// snapshot cut (package snapshot) instead of a read-only transaction, so the
// dense kernels run while OLTP commit trains keep landing. A session owns
// one cut and a per-rank shard mirror — the decoded committed state of this
// rank's vertices as of the cut. The CSR the kernels iterate is built from
// the mirror, and Refresh advances the session to a fresh cut by folding the
// committed delta-log window into the mirror instead of re-reading holders;
// because both the incremental fold and a full rebuild fill the same mirror
// and finish through the same mirror-to-CSR path, a fold is bit-identical to
// rebuilding from scratch (the golden equivalence test holds it to that).

// mirrorVertex is one vertex's committed state in the shard mirror: its
// application ID and its holder's inline edge-record list, verbatim. homes
// (former primaries, kept across migrations) only matter for resolving
// heavy self-loop endpoints; delta records don't carry them, and updates
// never change them, so folds preserve the entry's existing homes.
type mirrorVertex struct {
	app   uint64
	edges []holder.EdgeRec
	homes []fabric.DPtr
}

// HTAPSession is one rank's handle on a live-analytics run. All methods are
// collective unless noted: every rank must call them in the same order.
type HTAPSession struct {
	p      *gdi.Process
	eng    *core.Engine
	cut    *snapshot.Cut
	mirror map[fabric.DPtr]*mirrorVertex
	c      *csr
}

// OpenHTAP pins a cut and builds the session's shard mirror and CSR from it.
// Collective; requires DatabaseParams.HTAPSnapshots.
func OpenHTAP(p *gdi.Process, g *Graph) (*HTAPSession, error) {
	s := &HTAPSession{p: p, eng: g.DB.Engine()}
	if s.eng.Snapshots() == nil {
		return nil, fmt.Errorf("analytics: HTAP sessions need DatabaseParams.HTAPSnapshots")
	}
	cut, err := s.eng.AcquireCut(p.Rank())
	if err != nil {
		return nil, err
	}
	s.cut = cut
	if s.mirror, err = s.buildMirror(cut); err != nil {
		return nil, err
	}
	if s.c, err = s.buildCSRFromMirror(cut); err != nil {
		return nil, err
	}
	return s, nil
}

// buildMirror reads every vertex of this rank's cut listing through the
// cut's versioned block reads. Local work only.
func (s *HTAPSession) buildMirror(cut *snapshot.Cut) (map[fabric.DPtr]*mirrorVertex, error) {
	me := s.p.Rank()
	refs := cut.Verts(me)
	mirror := make(map[fabric.DPtr]*mirrorVertex, len(refs))
	for _, ref := range refs {
		v, err := s.eng.CutVertex(me, cut, ref.DP)
		if err != nil {
			return nil, err
		}
		mirror[ref.DP] = &mirrorVertex{app: v.AppID, edges: v.Edges, homes: v.Homes}
	}
	return mirror, nil
}

// buildCSRFromMirror converts the shard mirror into the dense CSR the
// kernels iterate. Heavy edge records resolve their holder through the cut,
// exactly like a live holder walk; the layout, the index exchange and the
// shard-size allgather are the live build's own (csrBuilder).
func (s *HTAPSession) buildCSRFromMirror(cut *snapshot.Cut) (*csr, error) {
	me := s.p.Rank()
	ids := make([]gdi.VertexID, 0, len(s.mirror))
	for dp := range s.mirror {
		ids = append(ids, dp)
	}
	b := newCSRBuilder(s.p, ids)
	for i, dp := range b.c.ids {
		mv := s.mirror[dp]
		for _, rec := range mv.edges {
			nb := rec.Neighbor
			if rec.Heavy {
				e, err := s.eng.CutEdge(me, cut, rec.Neighbor)
				if err != nil {
					return nil, err
				}
				nb = e.Target
				if nb == dp || mirrorIsHome(mv, nb) {
					nb = e.Origin
				}
			}
			b.add(nb, rec.Dir)
		}
		b.end(i, mv.app, mv.homes)
	}
	return b.finish(s.p)
}

// mirrorIsHome reports whether dp is one of the vertex's former primaries
// (edge holders record endpoints as of creation; migration does not rewrite
// them).
func mirrorIsHome(mv *mirrorVertex, dp fabric.DPtr) bool {
	for _, h := range mv.homes {
		if h == dp {
			return true
		}
	}
	return false
}

// Refresh advances the session to a freshly pinned cut. The committed
// delta-log window between the old and new cut positions folds into the
// mirror in commit order; if any rank's window was trimmed or its vertex set
// drifted from the log's account (live migration moves primaries without
// logging), every rank falls back to a full mirror rebuild — agreed with one
// OR-reduction so the collective CSR finish stays aligned. The old cut is
// released only after the fold read its log window, since releasing may trim
// the log up to the new cut's position.
func (s *HTAPSession) Refresh() error {
	me := s.p.Rank()
	newCut, err := s.eng.AcquireCut(me)
	if err != nil {
		return err
	}
	snap := s.eng.Snapshots()
	fallback := false
	recs, err := snap.Deltas(me, s.cut.LogPos(me), newCut.LogPos(me))
	if err != nil {
		fallback = true
	} else {
		for _, r := range recs {
			switch r.Kind {
			case snapshot.KindDelete:
				delete(s.mirror, r.DP)
			default: // create or update: replace wholesale
				if mv, ok := s.mirror[r.DP]; ok {
					mv.app = r.App
					mv.edges = r.Edges
				} else {
					s.mirror[r.DP] = &mirrorVertex{app: r.App, edges: r.Edges}
				}
			}
		}
		// Drift check: the folded mirror must name exactly the new cut's
		// vertices. Anything the log could not account for (migrations)
		// shows up here as a set mismatch.
		refs := newCut.Verts(me)
		if len(refs) != len(s.mirror) {
			fallback = true
		} else {
			for _, ref := range refs {
				mv, ok := s.mirror[ref.DP]
				if !ok || mv.app != ref.App {
					fallback = true
					break
				}
			}
		}
	}
	fallback = collective.OrReduce(s.p.Comm(), me, fallback)
	s.eng.ReleaseCut(me, s.cut)
	s.cut = newCut
	if fallback {
		if s.mirror, err = s.buildMirror(newCut); err != nil {
			return err
		}
	} else if me == 0 {
		snap.CountFold() // once per collective fold, not once per rank
	}
	s.c, err = s.buildCSRFromMirror(newCut)
	return err
}

// Close releases the session's cut collectively, returning its retired
// block versions to the arena free path. A run dying mid-iteration on one
// rank may instead call Drop from that single goroutine.
func (s *HTAPSession) Close() {
	s.eng.ReleaseCut(s.p.Rank(), s.cut)
}

// Drop releases the cut non-collectively (single-goroutine, idempotent):
// the escape hatch for an analytics run abandoned mid-iteration.
func (s *HTAPSession) Drop() { s.cut.Release() }

// Cut exposes the session's pinned cut (diagnostics and tests).
func (s *HTAPSession) Cut() *snapshot.Cut { return s.cut }

// PageRank runs damped PageRank over the session's cut-sourced CSR.
// Collective; bit-identical to PageRank on a quiesced database.
func (s *HTAPSession) PageRank(iters int, df float64) (map[uint64]float64, float64, error) {
	return pageRankOverCSR(s.p, s.c, iters, df)
}

// CDLP runs label propagation over the session's cut-sourced CSR.
// Collective; equal to CDLP on a quiesced database.
func (s *HTAPSession) CDLP(iters int) map[uint64]uint64 { return cdlpOverCSR(s.p, s.c, iters) }

// WCC runs weakly connected components over the session's cut-sourced CSR.
// Collective; equal to WCC on a quiesced database.
func (s *HTAPSession) WCC(maxIters int) (map[uint64]uint64, int) {
	return wccOverCSR(s.p, s.c, maxIters)
}

// LCC computes the average local clustering coefficient over the session's
// cut-sourced CSR. Collective; bit-identical to LCC on a quiesced database.
func (s *HTAPSession) LCC() float64 { return lccOverCSR(s.p, s.c) }

// BFS runs direction-optimizing BFS from rootApp over the session's
// cut-sourced CSR. Collective. A root that did not exist at cut time reports
// ErrNotFound (with zero vertices visited) on every rank.
func (s *HTAPSession) BFS(rootApp uint64) (int64, int, BFSStats, error) {
	rootIdx := int32(-1)
	found := int64(0)
	for i, a := range s.c.app {
		if a == rootApp {
			rootIdx = int32(i)
			found = 1
			break
		}
	}
	var firstErr error
	if s.p.AllreduceInt64(found) == 0 {
		firstErr = fmt.Errorf("%w: BFS root %d at cut time", gdi.ErrNotFound, rootApp)
	}
	return bfsOverCSR(s.p, s.c, rootIdx, firstErr)
}
