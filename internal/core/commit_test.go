package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// commitEngine is one engine of commitEngines, with the subtest name it runs
// under.
type commitEngine struct {
	name string
	e    *Engine
}

// commitEngines returns an engine built from cfg and its twin with HTAP
// snapshots on, so commit-protocol invariants are checked with and without
// the snapshot hook on the write path: block retirement.
func commitEngines(ranks int, cfg Config) []commitEngine {
	htap := cfg
	htap.HTAPSnapshots = true
	return []commitEngine{
		{"plain", NewEngine(rma.New(ranks), cfg)},
		{"htap", NewEngine(rma.New(ranks), htap)},
	}
}

// TestPrepareFailureReleasesAcquiredBlocks drives the prepare phase into a
// mid-walk AcquireBlock failure: a commit that needs several continuation
// blocks with too few left in the pool must release every block it did
// acquire, abort without touching the stored holder, and leave the vertex writable for a later transaction.
func TestPrepareFailureReleasesAcquiredBlocks(t *testing.T) {
	for _, ce := range commitEngines(1, Config{BlockSize: 64, BlocksPerRank: 64}) {
		t.Run(ce.name, func(t *testing.T) {
			e := ce.e
			blob, err := e.DefinePType("blob", metadata.PTypeSpec{Datatype: lpg.TypeBytes})
			if err != nil {
				t.Fatal(err)
			}
			setup := e.StartLocal(0, ReadWrite)
			dp, err := setup.CreateVertex(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}

			// Drain the pool down to two free blocks: the grown holder below
			// needs several, so prepare acquires some and then fails.
			var filler []rma.DPtr
			for e.FreeBlocks(0) > 2 {
				f, err := e.store.AcquireBlock(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				filler = append(filler, f)
			}
			free := e.FreeBlocks(0)

			tx := e.StartLocal(0, ReadWrite)
			h, err := tx.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.AddProperty(blob, make([]byte, 64*6)); err != nil {
				t.Fatal(err)
			}
			err = tx.Commit()
			if !errors.Is(err, ErrTxCritical) || !errors.Is(err, ErrNoMemory) {
				t.Fatalf("commit into exhausted pool: %v, want transaction-critical ErrNoMemory", err)
			}
			if got := e.FreeBlocks(0); got != free {
				t.Fatalf("prepare leaked blocks: free %d -> %d", free, got)
			}

			// No partial write-back: the holder decodes with its old state.
			check := e.StartLocal(0, ReadOnly)
			hc, err := check.AssociateVertex(dp)
			if err != nil {
				t.Fatalf("holder unreadable after failed prepare: %v", err)
			}
			if got := hc.Properties(blob); len(got) != 0 {
				t.Fatalf("partial write-back visible: %d blob entries", len(got))
			}
			check.Commit()

			// The abort released the exclusive lock: with the pool refilled a
			// fresh transaction commits the same growth.
			for _, f := range filler {
				e.store.ReleaseBlock(0, f)
			}
			retry := e.StartLocal(0, ReadWrite)
			hr, err := retry.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if err := hr.AddProperty(blob, make([]byte, 64*6)); err != nil {
				t.Fatal(err)
			}
			if err := retry.Commit(); err != nil {
				t.Fatalf("retry after refill: %v", err)
			}
		})
	}
}

// TestMetadataStaleAbortsWithoutPartialWriteBack covers the §3.8 abort: a
// write transaction racing a metadata change must abort at commit with no
// write-back at all — stored holders keep their old state, new vertices
// return their blocks, and every lock is released.
func TestMetadataStaleAbortsWithoutPartialWriteBack(t *testing.T) {
	for _, ce := range commitEngines(1, Config{BlockSize: 256, BlocksPerRank: 1024}) {
		t.Run(ce.name, func(t *testing.T) {
			e := ce.e
			age, err := e.DefinePType("age", metadata.PTypeSpec{Datatype: lpg.TypeUint64, SizeType: lpg.SizeFixed, Limit: 8})
			if err != nil {
				t.Fatal(err)
			}
			setup := e.StartLocal(0, ReadWrite)
			dp, err := setup.CreateVertex(1)
			if err != nil {
				t.Fatal(err)
			}
			hs, err := setup.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if err := hs.SetProperty(age, lpg.EncodeUint64(30)); err != nil {
				t.Fatal(err)
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}
			free := e.FreeBlocks(0)

			tx := e.StartLocal(0, ReadWrite)
			h, err := tx.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.SetProperty(age, lpg.EncodeUint64(99)); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.CreateVertex(2); err != nil {
				t.Fatal(err)
			}
			// Metadata changes under the open transaction.
			if _, err := e.DefineLabel("Late"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); !errors.Is(err, ErrTxCritical) {
				t.Fatalf("stale write commit: %v, want ErrTxCritical", err)
			}

			// The new vertex's block came back and nothing was published.
			if got := e.FreeBlocks(0); got != free {
				t.Fatalf("stale abort leaked blocks: free %d -> %d", free, got)
			}
			probe := e.StartLocal(0, ReadOnly)
			if _, err := probe.TranslateVertexID(2); !errors.Is(err, ErrNotFound) {
				t.Fatalf("aborted vertex published: %v", err)
			}
			hp, err := probe.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := hp.Property(age); !ok || lpg.DecodeUint64(v) != 30 {
				t.Fatalf("age after stale abort = %v, %v; want the old 30", v, ok)
			}
			probe.Commit()

			// All locks were released: a fresh writer succeeds immediately.
			retry := e.StartLocal(0, ReadWrite)
			hr, err := retry.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if err := hr.SetProperty(age, lpg.EncodeUint64(31)); err != nil {
				t.Fatal(err)
			}
			if err := retry.Commit(); err != nil {
				t.Fatalf("writer after stale abort: %v", err)
			}
		})
	}
}

// TestWriteBackByRankAbsorbsADeadRank lands a write set of two blocks on
// each of 3 ranks, one of them killed, in every order of its six writes: the
// dead rank's train is absorbed wherever the grouping meets it, and every
// live block holds its own payload.
func TestWriteBackByRankAbsorbsADeadRank(t *testing.T) {
	const ranks, perRank, bs = 3, 2, 64
	for dead := rma.Rank(0); dead < ranks; dead++ {
		t.Run(fmt.Sprintf("dead=%d", dead), func(t *testing.T) {
			f := rma.New(ranks)
			e := NewEngine(f, Config{BlockSize: bs, BlocksPerRank: 64})
			origin := (dead + 1) % ranks
			var dps []rma.DPtr
			for r := rma.Rank(0); r < ranks; r++ {
				for range perRank {
					dp, err := e.store.AcquireBlock(origin, r)
					if err != nil {
						t.Fatal(err)
					}
					dps = append(dps, dp)
				}
			}
			f.KillRank(dead)
			round := 0
			forEachOrder([]int{0, 1, 2, 3, 4, 5}, 0, func(order []int) {
				round++
				var w writeList
				for _, i := range order {
					payload := make([]byte, bs)
					payload[0], payload[1] = byte(round), byte(i)
					w.put(dps[i], payload)
				}
				e.writeBackByRank(origin, &w)
				for i, dp := range dps {
					if dp.Rank() == dead {
						continue
					}
					got := make([]byte, bs)
					e.store.ReadBlock(origin, dp, got)
					if got[0] != byte(round) || got[1] != byte(i) {
						t.Fatalf("order %v: block %d on rank %d holds payload (%d, %d), want (%d, %d)",
							order, i, dp.Rank(), got[0], got[1], byte(round), i)
					}
				}
			})
		})
	}
}

// TestWriteBackByRankIssuesOneTrainPerRank is the writer's traffic
// contract: a write set interleaving three blocks on each of 4 ranks lands
// as one PUT train per remote owner rank, with one put per block, and every
// block holds its own payload.
func TestWriteBackByRankIssuesOneTrainPerRank(t *testing.T) {
	const ranks, perRank, bs = 4, 3, 64
	f := rma.New(ranks)
	e := NewEngine(f, Config{BlockSize: bs, BlocksPerRank: 64})
	const origin = rma.Rank(0)
	var w writeList
	for i := range perRank {
		for r := rma.Rank(0); r < ranks; r++ {
			dp, err := e.store.AcquireBlock(origin, r)
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, bs)
			payload[0], payload[1] = byte(r), byte(i)
			w.put(dp, payload)
		}
	}
	dps := slices.Clone(w.dps)
	f.ResetCounters()
	e.writeBackByRank(origin, &w)
	snap := f.CounterSnapshot(origin)
	if snap.PutBatches != ranks-1 || snap.RemotePuts != (ranks-1)*perRank || snap.LocalPuts != perRank {
		t.Errorf("%d remote PUT trains, %d remote and %d local puts; want %d, %d and %d",
			snap.PutBatches, snap.RemotePuts, snap.LocalPuts, ranks-1, (ranks-1)*perRank, perRank)
	}
	for j, dp := range dps {
		got := make([]byte, bs)
		e.store.ReadBlock(origin, dp, got)
		if got[0] != byte(dp.Rank()) || got[1] != byte(j/ranks) {
			t.Errorf("block %v holds payload (%d, %d), want (%d, %d)", dp, got[0], got[1], dp.Rank(), j/ranks)
		}
	}
}

// forEachOrder calls visit with every ordering of p[k:] behind p[:k].
func forEachOrder(p []int, k int, visit func([]int)) {
	if k == len(p) {
		visit(p)
		return
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		forEachOrder(p, k+1, visit)
		p[k], p[i] = p[i], p[k]
	}
}

// TestConcurrentCommittersOneRank runs many goroutines committing disjoint
// vertices from the same rank, each writing back its own trains, and
// verifies every update landed (primarily a race-detector target).
func TestConcurrentCommittersOneRank(t *testing.T) {
	const workers, txPerWorker = 8, 10
	e := newEngine(t, 2)
	age, err := e.DefinePType("age", metadata.PTypeSpec{Datatype: lpg.TypeUint64, SizeType: lpg.SizeFixed, Limit: 8})
	if err != nil {
		t.Fatal(err)
	}
	setup := e.StartLocal(0, ReadWrite)
	dps := make([]rma.DPtr, workers)
	for i := range dps {
		if dps[i], err = setup.CreateVertex(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txPerWorker; i++ {
				tx := e.StartLocal(0, ReadWrite)
				h, err := tx.AssociateVertex(dps[w])
				if err == nil {
					if err = h.SetProperty(age, lpg.EncodeUint64(uint64(i))); err == nil {
						err = tx.Commit()
					}
				}
				if err != nil {
					tx.Abort()
					errc <- fmt.Errorf("worker %d tx %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	check := e.StartLocal(1, ReadOnly)
	for w, dp := range dps {
		h, err := check.AssociateVertex(dp)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := h.Property(age); !ok || lpg.DecodeUint64(v) != txPerWorker-1 {
			t.Errorf("vertex %d: age = %v, %v; want %d", w, v, ok, txPerWorker-1)
		}
	}
	check.Commit()
}
