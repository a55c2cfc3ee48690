package analytics

import (
	"fmt"
	"slices"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/snapshot"
)

// This file is the HTAP analytics path: iterative kernels over a pinned
// snapshot cut (package snapshot) instead of a read-only transaction, so the
// dense kernels run while OLTP commit trains keep landing. A session owns
// one cut and the CSR built from it: every vertex of this rank's cut listing
// is read through the cut's versioned block reads straight into the live
// build's csrBuilder. Opening a session and refreshing it are the same
// build over a freshly pinned cut, so a refreshed session is bit-identical
// to one opened at the same cut (the golden equivalence test holds it to
// that).

// HTAPSession is one rank's handle on a live-analytics run. All methods are
// collective unless noted: every rank must call them in the same order.
type HTAPSession struct {
	p   *gdi.Process
	eng *core.Engine
	cut *snapshot.Cut
	c   *csr
}

// OpenHTAP pins a cut and builds the session's CSR from it. Collective;
// requires DatabaseParams.HTAPSnapshots. A failed build releases the cut.
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
	if s.c, err = s.buildCSR(); err != nil {
		// Every rank returns the build's error (csrBuilder.finish agrees on
		// it), so every rank is here: release the cut that no session holds.
		s.eng.ReleaseCut(p.Rank(), cut)
		return nil, err
	}
	return s, nil
}

// Refresh advances the session to a freshly pinned cut: it pins the new
// cut, releases the old one (returning its retired block versions) and
// rebuilds the CSR from the new cut exactly as OpenHTAP does.
func (s *HTAPSession) Refresh() error {
	me := s.p.Rank()
	cut, err := s.eng.AcquireCut(me)
	if err != nil {
		return err
	}
	s.eng.ReleaseCut(me, s.cut)
	s.cut = cut
	s.c, err = s.buildCSR()
	return err
}

// buildCSR reads every vertex of this rank's cut listing through the cut
// and lays it out in the dense CSR the kernels iterate. Heavy edge records
// resolve their holder through the cut, exactly like a live holder walk;
// the layout, the index exchange and the shard-size allgather are the live
// build's own (csrBuilder).
func (s *HTAPSession) buildCSR() (*csr, error) {
	b := newCSRBuilder(s.p, slices.Clone(s.cut.Verts(s.p.Rank())))
	return b.finish(s.p, s.readCut(b))
}

// readCut lays the cut's shard out into b.
func (s *HTAPSession) readCut(b *csrBuilder) error {
	me := s.p.Rank()
	for i, dp := range b.c.ids {
		v, err := s.eng.CutVertex(me, s.cut, dp)
		if err != nil {
			return err
		}
		for _, rec := range v.Edges {
			nb := rec.Neighbor
			if rec.Heavy {
				e, err := s.eng.CutEdge(me, s.cut, rec.Neighbor)
				if err != nil {
					return err
				}
				// Edge holders record endpoints as of creation; migration
				// does not rewrite them, so a former home names this vertex.
				nb = e.Target
				if nb == dp || slices.Contains(v.Homes, nb) {
					nb = e.Origin
				}
			}
			b.add(nb, rec.Dir)
		}
		b.end(i, v.AppID, v.Homes)
	}
	return nil
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
