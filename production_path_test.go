package gdi_test

import (
	"errors"
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
	"github.com/gdi-go/gdi/internal/holder"
)

// TestZeroParamsIsProductionPath pins what the zero DatabaseParams{} selects:
// the one path the engine ships and BENCHMARK.json's workloads measure —
// compressed holders with the inline flag, the version-validated block
// cache, optimistic read-only transactions, and the dense analytics kernels
// moving their iteration traffic as one-sided PUT trains.
func TestZeroParamsIsProductionPath(t *testing.T) {
	const ranks = 2
	rt := gdi.Init(ranks)
	defer rt.Finalize()
	db := rt.CreateDatabase(gdi.DatabaseParams{})
	age, err := db.DefinePType("age", gdi.PTypeSpec{Datatype: gdi.TypeUint64, SizeType: gdi.SizeFixed, Limit: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := db.Process(0)
	setup := p.StartTransaction(gdi.ReadWrite)
	local, err := setup.CreateVertex(0) // placement is appID mod ranks
	if err != nil {
		t.Fatal(err)
	}
	remote, err := setup.CreateVertex(1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := setup.AssociateVertex(remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetProperty(age, gdi.Uint64Value(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.CreateEdge(local, remote, gdi.DirOut, 0); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	if remote.Rank() == p.Rank() {
		t.Fatalf("vertex 1 landed on rank %d, want a remote rank", remote.Rank())
	}
	eng := db.Engine()

	t.Run("inline-holder", func(t *testing.T) {
		primary := make([]byte, eng.Store().BlockSize())
		eng.Store().ReadBlock(0, remote, primary)
		if !holder.Inline(primary) {
			t.Fatal("a one-edge vertex's primary block lacks the inline single-block flag")
		}
	})

	t.Run("cached-reread", func(t *testing.T) {
		read := func() {
			tx := p.StartTransaction(gdi.ReadOnly)
			h, err := tx.AssociateVertex(remote)
			if err != nil {
				t.Fatal(err)
			}
			h.Property(age)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		read()
		before := eng.Fabric().TotalSnapshot()
		read()
		after := eng.Fabric().TotalSnapshot()
		if gets := after.RemoteGets - before.RemoteGets; gets != 0 {
			t.Fatalf("second read of a remote vertex issued %d remote GETs, want 0", gets)
		}
		if after.CacheHits == before.CacheHits {
			t.Fatal("second read of a remote vertex recorded no cache hit")
		}
	})

	t.Run("optimistic-read-only", func(t *testing.T) {
		reader := p.StartTransaction(gdi.ReadOnly)
		rh, err := reader.AssociateVertex(remote)
		if err != nil {
			t.Fatal(err)
		}
		rh.Property(age)
		writer := db.Process(1).StartTransaction(gdi.ReadWrite)
		wh, err := writer.AssociateVertex(remote)
		if err != nil {
			t.Fatal(err)
		}
		if err := wh.SetProperty(age, gdi.Uint64Value(31)); err != nil {
			t.Fatal(err)
		}
		if err := writer.Commit(); err != nil {
			t.Fatalf("a read-only transaction holding a handle blocked a writer's commit: %v", err)
		}
		if err := reader.Commit(); !errors.Is(err, gdi.ErrTransactionCritical) {
			t.Fatalf("read-only commit after the vertex changed: %v, want ErrTransactionCritical", err)
		}
	})

	t.Run("dense-pagerank", func(t *testing.T) {
		g := &analytics.Graph{DB: db}
		before := eng.Fabric().TotalSnapshot()
		rt.Run(db, func(p *gdi.Process) {
			if _, _, err := analytics.PageRank(p, g, 5, 0.85); err != nil {
				t.Error(err)
			}
		})
		if after := eng.Fabric().TotalSnapshot(); after.PutBatches == before.PutBatches {
			t.Fatal("PageRank moved no exchange PUT trains")
		}
	})
}
