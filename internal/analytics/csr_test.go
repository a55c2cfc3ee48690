package analytics

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/holder"
)

// TestCSRBuildBoundsCorruptDegree: a vertex holder whose header claims
// 2^32−1 edge records over a stream of a few hundred bytes must fail the CSR
// build with an error, and the build must not size its adjacency array from
// the claimed count (32 GiB of neighbor IDs).
func TestCSRBuildBoundsCorruptDegree(t *testing.T) {
	rt, g := testGraph(t, 1, smallCfg)
	p := g.DB.Process(0)
	store := g.DB.Engine().Store()
	dp := p.LocalVertices()[0]
	head := make([]byte, store.BlockSize())
	store.ReadBlock(0, dp, head)
	binary.LittleEndian.PutUint32(head[4:], 1<<32-1) // the header's edge-record count
	store.WriteBlock(0, dp, head)

	// Degree sizes the array: refuse to build at all if it reports the
	// header's claim.
	tx := p.StartTransaction(gdi.ReadOnly)
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if d, nb := h.Degree(), holder.NumBlocks(head); d > store.BlockSize()*nb {
		t.Fatalf("Degree reports %d records in a %d-block holder", d, nb)
	}
	tx.Abort()

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	before := mem.TotalAlloc
	var buildErr error
	rt.Run(g.DB, func(p *gdi.Process) {
		tx := p.StartCollectiveTransaction(gdi.ReadOnly)
		defer tx.Commit()
		_, buildErr = buildCSR(p, tx)
	})
	runtime.ReadMemStats(&mem)
	if buildErr == nil {
		t.Error("the CSR build over a corrupt holder returned no error")
	}
	if n := mem.TotalAlloc - before; n > 64<<20 {
		t.Errorf("the CSR build allocated %d MiB", n>>20)
	}
}

// TestCSRReadErrorFailsEveryRank zeroes the header of one of rank 0's
// vertices and builds a CSR on 4 ranks, from the live shard (a dense kernel),
// from a cut (an HTAP session) and from a refreshed cut (a session opened
// before the damage): rank 0's shard read fails, and every rank must return
// an error instead of waiting for rank 0 in the build's index exchange.
func TestCSRReadErrorFailsEveryRank(t *testing.T) {
	const ranks = 4
	for _, c := range []struct {
		name string
		htap bool
		run  func(p *gdi.Process, g *Graph, s *HTAPSession) error
	}{
		{"live", false, func(p *gdi.Process, g *Graph, _ *HTAPSession) error {
			_, _, err := PageRank(p, g, 2, 0.85)
			return err
		}},
		{"cut", true, func(p *gdi.Process, g *Graph, _ *HTAPSession) error {
			s, err := OpenHTAP(p, g)
			if err == nil {
				s.Close()
			}
			return err
		}},
		{"refresh", true, func(_ *gdi.Process, _ *Graph, s *HTAPSession) error {
			err := s.Refresh()
			s.Close()
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt, g := testGraphWith(t, ranks, smallCfg, gdi.DatabaseParams{HTAPSnapshots: c.htap})
			sessions := make([]*HTAPSession, ranks)
			if c.name == "refresh" {
				for r, err := range runBounded(t, rt, g, func(p *gdi.Process) (err error) {
					sessions[p.Rank()], err = OpenHTAP(p, g)
					return err
				}) {
					if err != nil {
						t.Fatalf("rank %d: opening the session before the damage: %v", r, err)
					}
				}
			}
			zeroRank0Header(g)
			for r, err := range runBounded(t, rt, g, func(p *gdi.Process) error {
				return c.run(p, g, sessions[p.Rank()])
			}) {
				if err == nil {
					t.Errorf("rank %d built a CSR over a corrupt holder on rank 0", r)
				}
			}
		})
	}
}

// TestOpenHTAPReleasesItsCutOnFailure: an OpenHTAP whose build fails returns
// no session, so it must release the cut it pinned; otherwise every later
// write retires its pre-image into the version arena for a cut nobody reads.
func TestOpenHTAPReleasesItsCutOnFailure(t *testing.T) {
	const ranks = 4
	rt, g := testGraphWith(t, ranks, smallCfg, gdi.DatabaseParams{HTAPSnapshots: true})
	dp := zeroRank0Header(g)
	for r, err := range runBounded(t, rt, g, func(p *gdi.Process) error {
		s, err := OpenHTAP(p, g)
		if s != nil {
			t.Errorf("rank %d: OpenHTAP returned a session with error %v", p.Rank(), err)
		}
		return err
	}) {
		if err == nil {
			t.Fatalf("rank %d opened a session over a corrupt holder on rank 0", r)
		}
	}
	eng := g.DB.Engine()
	block := make([]byte, eng.Store().BlockSize())
	eng.Store().ReadBlock(0, dp, block)
	eng.Store().WriteBlock(0, dp, block)
	if n, b := eng.RetiredBlocks(), eng.Snapshots().ArenaBytes(); n != 0 || b != 0 {
		t.Errorf("a write after the failed open retired %d blocks (%d arena bytes): the open left its cut pinned", n, b)
	}
}

// TestCollectiveKernelsAgreeOnError: a kernel whose work fails on one rank
// only fails on every rank, and every rank returns, instead of the others
// waiting in the kernel's next collective step for the rank that left. The
// holder header of a rank-0 vertex that no other rank's vertex has an edge
// to is zeroed, so only rank 0 fails to associate it: in BI2 over that
// vertex's label, and in GNNForward's read phase.
func TestCollectiveKernelsAgreeOnError(t *testing.T) {
	const ranks = 4
	gnnCfg := GNNConfig{K: 4, Layers: 1, Seed: 5}
	var feat, featNext gdi.PTypeID
	for _, c := range []struct {
		name  string
		setup func(p *gdi.Process, g *Graph) error // before the damage
		run   func(p *gdi.Process, g *Graph, label gdi.LabelID) error
	}{
		{"BI2", nil, func(p *gdi.Process, g *Graph, label gdi.LabelID) error {
			_, err := BI2(p, g, label, g.Schema.AgeProp, 0, math.MaxUint64, g.Schema.Props[0])
			return err
		}},
		{"GNNForward", func(p *gdi.Process, g *Graph) error {
			f, n, err := GNNSetup(p, g, gnnCfg)
			if p.Rank() == 0 {
				feat, featNext = f, n
			}
			return err
		}, func(p *gdi.Process, g *Graph, _ gdi.LabelID) error {
			_, err := GNNForward(p, g, gnnCfg, feat, featNext)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt, g := testGraph(t, ranks, smallCfg)
			if c.setup != nil {
				for r, err := range runBounded(t, rt, g, func(p *gdi.Process) error { return c.setup(p, g) }) {
					if err != nil {
						t.Fatalf("rank %d: setup: %v", r, err)
					}
				}
			}
			dp, label := rank0OnlyVertex(t, g)
			zeroHeader(g, dp)
			for r, err := range runBounded(t, rt, g, func(p *gdi.Process) error { return c.run(p, g, label) }) {
				if !errors.Is(err, gdi.ErrNotFound) {
					t.Errorf("rank %d: %v, want the ErrNotFound rank 0 met", r, err)
				}
			}
		})
	}
}

// rank0OnlyVertex returns a rank-0 vertex whose neighbors all live on rank 0,
// so no other rank reads it in a kernel that walks its own vertices' edges,
// and that vertex's first label.
func rank0OnlyVertex(t *testing.T, g *Graph) (gdi.VertexID, gdi.LabelID) {
	t.Helper()
	p := g.DB.Process(0)
	tx := p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	for _, v := range p.LocalVertices() {
		h, err := tx.AssociateVertex(v)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := h.Edges(gdi.MaskAll, nil)
		if err != nil {
			t.Fatal(err)
		}
		if labels := h.Labels(); len(labels) > 0 && !slices.ContainsFunc(edges.Neighbors(), func(nb gdi.VertexID) bool { return nb.Rank() != 0 }) {
			return v, labels[0]
		}
	}
	t.Fatal("every labeled rank-0 vertex has a neighbor on another rank")
	return 0, 0
}

// zeroRank0Header clears the holder header of rank 0's first local vertex
// and returns that vertex's primary block.
func zeroRank0Header(g *Graph) gdi.VertexID {
	dp := g.DB.Process(0).LocalVertices()[0]
	zeroHeader(g, dp)
	return dp
}

// zeroHeader clears the holder header in dp's primary block.
func zeroHeader(g *Graph, dp gdi.VertexID) {
	store := g.DB.Engine().Store()
	block := make([]byte, store.BlockSize())
	store.ReadBlock(dp.Rank(), dp, block)
	clear(block[:holder.HeaderSize])
	store.WriteBlock(dp.Rank(), dp, block)
}

// runBounded runs fn on every rank and returns each rank's error, failing
// the test if the ranks have not all returned within a minute.
func runBounded(t *testing.T, rt *gdi.Runtime, g *Graph, fn func(p *gdi.Process) error) []error {
	t.Helper()
	errs := make([]error, g.DB.Process(0).Size())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(g.DB, func(p *gdi.Process) { errs[p.Rank()] = fn(p) })
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("the ranks were still running a minute after rank 0's read failed")
	}
	return errs
}
