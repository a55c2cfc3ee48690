package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// optimisticConfig is the engine of the optimistic-tier tests: a small block
// cache, and 64-byte blocks that put every payload-bearing holder in the
// multi-block regime, so torn multi-round fetches are possible in principle
// and the validation protocol actually has work to do.
var optimisticConfig = Config{
	BlockSize:     64,
	BlocksPerRank: 1 << 12,
	LockTries:     256,
	CacheCapacity: 512,
}

// newOptimisticEngine builds an engine from optimisticConfig.
func newOptimisticEngine(t *testing.T, ranks int) *Engine {
	t.Helper()
	return NewEngine(rma.New(ranks), optimisticConfig)
}

// payloadPattern builds a payload of words bytes/8 identical uint64s — a
// reader that observes two different words inside one payload has seen a
// torn block.
func payloadPattern(seq uint64, words int) []byte {
	p := make([]byte, 8*words)
	for i := 0; i < words; i++ {
		binary.LittleEndian.PutUint64(p[8*i:], seq)
	}
	return p
}

// decodePattern extracts the sequence number and checks the payload is not
// torn.
func decodePattern(p []byte) (seq uint64, torn bool) {
	seq = binary.LittleEndian.Uint64(p)
	for off := 8; off+8 <= len(p); off += 8 {
		if binary.LittleEndian.Uint64(p[off:]) != seq {
			return seq, true
		}
	}
	return seq, false
}

// seedPayloadVertex creates one committed vertex carrying the pattern
// payload and returns its DPtr.
func seedPayloadVertex(t *testing.T, e *Engine, appID uint64, pt lpg.PTypeID, words int) rma.DPtr {
	t.Helper()
	tx := e.StartLocal(0, ReadWrite)
	dp, err := tx.CreateVertex(appID)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetProperty(pt, payloadPattern(0, words)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return dp
}

func payloadPType(t *testing.T, e *Engine) lpg.PTypeID {
	t.Helper()
	pt, err := e.DefinePType("payload", metadata.PTypeSpec{Datatype: lpg.TypeBytes})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestOptimisticReadTakesNoLocks(t *testing.T) {
	e := newOptimisticEngine(t, 2)
	pt := payloadPType(t, e)
	dp := seedPayloadVertex(t, e, 1, pt, 8)

	tx := e.StartLocal(1, ReadOnly)
	if _, err := tx.AssociateVertex(dp); err != nil {
		t.Fatal(err)
	}
	win, target, idx := e.Store().LockWord(dp)
	word := win.Load(1, target, idx)
	if locks.Readers(word) != 0 || locks.WriteHeld(word) {
		t.Fatalf("optimistic read left the lock word held: readers=%d writer=%v",
			locks.Readers(word), locks.WriteHeld(word))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestOptimisticStaleVersionAbort drives the §3.8 optimistic abort: a
// read-only transaction whose read set was overwritten before commit must
// fail validation once the writer's release train has bumped the version,
// with or without HTAP snapshots hooking the writer's commit.
func TestOptimisticStaleVersionAbort(t *testing.T) {
	for _, ce := range commitEngines(2, optimisticConfig) {
		t.Run(ce.name, func(t *testing.T) {
			e := ce.e
			pt := payloadPType(t, e)
			dp := seedPayloadVertex(t, e, 1, pt, 8)

			reader := e.StartLocal(1, ReadOnly)
			h, err := reader.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := h.Property(pt); !ok {
				t.Fatal("payload missing")
			} else if seq, torn := decodePattern(v); seq != 0 || torn {
				t.Fatalf("read seq=%d torn=%v, want 0/false", seq, torn)
			}

			// A concurrent writer commits before the reader validates.
			writer := e.StartLocal(0, ReadWrite)
			wh, err := writer.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if err := wh.SetProperty(pt, payloadPattern(1, 8)); err != nil {
				t.Fatal(err)
			}
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}

			err = reader.Commit()
			if !errors.Is(err, ErrTxCritical) {
				t.Fatalf("stale read committed: err = %v, want transaction-critical", err)
			}
			if got := e.OptimisticAborts(); got != 1 {
				t.Fatalf("OptimisticAborts = %d, want 1", got)
			}

			// A fresh transaction revalidates the (stale) cached copy against
			// the bumped version, refetches, and sees the new payload.
			tx := e.StartLocal(1, ReadOnly)
			h2, err := tx.AssociateVertex(dp)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := h2.Property(pt); func() uint64 { s, _ := decodePattern(v); return s }() != 1 {
				t.Fatalf("post-abort read did not observe the new payload")
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReadOnlyCommitValidatesWithoutWriters(t *testing.T) {
	e := newOptimisticEngine(t, 2)
	pt := payloadPType(t, e)
	dps := []rma.DPtr{
		seedPayloadVertex(t, e, 0, pt, 8),
		seedPayloadVertex(t, e, 1, pt, 8),
		seedPayloadVertex(t, e, 2, pt, 8),
	}
	tx := e.StartLocal(1, ReadOnly)
	hs, err := tx.AssociateVertices(dps)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		if h == nil {
			t.Fatalf("vertex %d missing", i)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("unchanged read set failed validation: %v", err)
	}
	if got := e.OptimisticAborts(); got != 0 {
		t.Fatalf("OptimisticAborts = %d, want 0", got)
	}
}

// TestCacheServesRepeatedReads checks that a second transaction reading the
// same remote vertex is served from the block cache: cache hits appear and
// no further GET traffic is issued for the holder blocks.
func TestCacheServesRepeatedReads(t *testing.T) {
	e := newOptimisticEngine(t, 2)
	pt := payloadPType(t, e)
	dp := seedPayloadVertex(t, e, 1, pt, 8) // owner rank 1; reader rank 0 is remote

	read := func() {
		tx := e.StartLocal(0, ReadOnly)
		h, err := tx.AssociateVertex(dp)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := h.Property(pt); !ok {
			t.Fatal("payload missing")
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	read()
	snap := e.Fabric().CounterSnapshot(0)
	if snap.CacheMisses == 0 {
		t.Fatal("first read recorded no cache misses")
	}
	gets, hits := snap.RemoteGets, snap.CacheHits
	read()
	snap = e.Fabric().CounterSnapshot(0)
	if snap.CacheHits <= hits {
		t.Fatalf("second read recorded no cache hits (%d -> %d)", hits, snap.CacheHits)
	}
	if snap.RemoteGets != gets {
		t.Fatalf("second read issued %d remote gets despite cached copies", snap.RemoteGets-gets)
	}
}

// TestDeletionPoisonInvalidatesCachedCopy: deleting a vertex bumps its
// guard version (the deletion poison is written under the write lock), so a
// reader holding a cached copy must refetch, observe the poison, and report
// not-found rather than resurrect the cached holder, with or without HTAP
// snapshots.
func TestDeletionPoisonInvalidatesCachedCopy(t *testing.T) {
	for _, ce := range commitEngines(2, optimisticConfig) {
		t.Run(ce.name, func(t *testing.T) {
			e := ce.e
			pt := payloadPType(t, e)
			dp := seedPayloadVertex(t, e, 1, pt, 8)

			// Prime rank 0's cache.
			tx := e.StartLocal(0, ReadOnly)
			if _, err := tx.AssociateVertex(dp); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			del := e.StartLocal(1, ReadWrite)
			if err := del.DeleteVertex(dp); err != nil {
				t.Fatal(err)
			}
			if err := del.Commit(); err != nil {
				t.Fatal(err)
			}

			probe := e.StartLocal(0, ReadOnly)
			if _, err := probe.AssociateVertex(dp); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted vertex served from cache: err = %v, want ErrNotFound", err)
			}
			probe.Abort()
		})
	}
}

// TestOptimisticCoherenceStress is the cross-package coherence test of the
// cache + optimistic tier: writer goroutines continuously rewrite vertex
// payloads through read-write transactions while optimistic readers snapshot
// them. Every payload observed inside a *validated* read transaction must be
// internally consistent (untorn), and the sequence numbers a reader observes
// per vertex must never go backwards (versions are monotonic, and a
// validated read reflects the latest committed state at validation time).
// It runs over a cache that holds every holder and over a one-block cache,
// where nearly every read comes off the wire.
// Run under -race in CI.
func TestOptimisticCoherenceStress(t *testing.T) {
	for _, cacheBlocks := range []int{512, 1} {
		t.Run(fmt.Sprintf("cache=%d", cacheBlocks), func(t *testing.T) {
			optimisticCoherenceStress(t, cacheBlocks)
		})
	}
}

func optimisticCoherenceStress(t *testing.T, cacheBlocks int) {
	const (
		ranks           = 4
		keys            = 16
		payloadWords    = 16 // 128-byte payloads: holders span several 64B blocks
		writers         = 4
		readers         = 4
		writesPerWriter = 150
		readsPerReader  = 250
	)
	cfg := optimisticConfig
	cfg.CacheCapacity = cacheBlocks
	e := NewEngine(rma.New(ranks), cfg)
	pt := payloadPType(t, e)
	dps := make([]rma.DPtr, keys)
	for i := range dps {
		dps[i] = seedPayloadVertex(t, e, uint64(i), pt, payloadWords)
	}

	var (
		wg            sync.WaitGroup
		mu            sync.Mutex
		firstErr      error
		writeCommits  int64
		readValidated int64
		readDiscarded int64
		writerRetries int64
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*101 + 7))
			rank := rma.Rank(w % ranks)
			commits := int64(0)
			retries := int64(0)
			for i := 0; i < writesPerWriter; i++ {
				dp := dps[rng.Intn(keys)]
				tx := e.StartLocal(rank, ReadWrite)
				h, err := tx.AssociateVertex(dp)
				if err != nil {
					tx.Abort()
					if errors.Is(err, ErrTxCritical) {
						retries++
						continue
					}
					report(err)
					return
				}
				cur, ok := h.Property(pt)
				if !ok {
					report(errors.New("writer: payload missing"))
					tx.Abort()
					return
				}
				seq, torn := decodePattern(cur)
				if torn {
					// The writer's read passed the seqlock double-check; a torn
					// payload would mean that check is broken.
					report(fmt.Errorf("writer observed torn payload at seq %d", seq))
					tx.Abort()
					return
				}
				if err := h.SetProperty(pt, payloadPattern(seq+1, payloadWords)); err != nil {
					report(err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					if errors.Is(err, ErrTxCritical) {
						retries++
						continue
					}
					report(err)
					return
				}
				commits++
			}
			mu.Lock()
			writeCommits += commits
			writerRetries += retries
			mu.Unlock()
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*997 + 13))
			rank := rma.Rank(r % ranks)
			lastSeen := make([]uint64, keys)
			validated, discarded := int64(0), int64(0)
			for i := 0; i < readsPerReader; i++ {
				// Snapshot a few vertices in one transaction, in two fetch
				// batches: the gap between them widens the window in which a
				// writer can invalidate the first batch, so commit-time
				// validation is genuinely exercised.
				picks := []int{rng.Intn(keys), rng.Intn(keys), rng.Intn(keys)}
				batch := make([]rma.DPtr, len(picks))
				for j, k := range picks {
					batch[j] = dps[k]
				}
				tx := e.StartLocal(rank, ReadOnly)
				hs, err := tx.AssociateVertices(batch[:1])
				if err == nil {
					runtime.Gosched() // let writers slip between the batches
					var rest []*VertexHandle
					rest, err = tx.AssociateVertices(batch[1:])
					hs = append(hs, rest...)
				}
				if err != nil {
					tx.Abort()
					if errors.Is(err, ErrTxCritical) {
						discarded++
						continue
					}
					report(err)
					return
				}
				seqs := make([]uint64, len(picks))
				for j, h := range hs {
					if h == nil {
						report(fmt.Errorf("reader: vertex %v vanished", batch[j]))
						tx.Abort()
						return
					}
					v, ok := h.Property(pt)
					if !ok {
						report(errors.New("reader: payload missing"))
						tx.Abort()
						return
					}
					seq, torn := decodePattern(v)
					if torn {
						report(fmt.Errorf("reader observed a torn payload (vertex %v, seq %d)", batch[j], seq))
						tx.Abort()
						return
					}
					seqs[j] = seq
				}
				if err := tx.Commit(); err != nil {
					// Validation failed: the snapshot is void and must not
					// advance the reader's view.
					discarded++
					continue
				}
				validated++
				for j, k := range picks {
					if seqs[j] < lastSeen[k] {
						report(fmt.Errorf("vertex %d went backwards: saw seq %d after %d", k, seqs[j], lastSeen[k]))
						return
					}
					lastSeen[k] = seqs[j]
				}
			}
			mu.Lock()
			readValidated += validated
			readDiscarded += discarded
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if writeCommits == 0 {
		t.Fatal("no writer transaction ever committed")
	}
	if readValidated == 0 {
		t.Fatal("no reader transaction ever validated")
	}
	t.Logf("writes committed: %d (retries %d); reads validated: %d, discarded: %d; optimistic aborts: %d",
		writeCommits, writerRetries, readValidated, readDiscarded, e.OptimisticAborts())

	// Quiesced final check: every vertex decodes untorn and the global write
	// count is conserved in the sequence numbers.
	tx := e.StartLocal(0, ReadOnly)
	var total uint64
	for i, dp := range dps {
		h, err := tx.AssociateVertex(dp)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := h.Property(pt)
		if !ok {
			t.Fatalf("vertex %d: payload missing after stress", i)
		}
		seq, torn := decodePattern(v)
		if torn {
			t.Fatalf("vertex %d torn after quiesce", i)
		}
		total += seq
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if total != uint64(writeCommits) {
		t.Fatalf("sequence numbers sum to %d, want one increment per committed write (%d)", total, writeCommits)
	}
}
