package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/gdi-go/gdi/internal/rma"
)

// TestMigrationCoherenceStress is the migration-vs-OLTP stress tier:
// concurrent writers rewrite vertex payloads, optimistic readers snapshot
// them, and a migrator keeps live-migrating the same vertex set between
// ranks. Invariants checked:
//
//   - no torn reads: every payload observed inside a validated transaction
//     decodes to one repeated sequence word;
//   - per-reader monotonic versions: the sequence a reader observes for a
//     vertex never goes backwards across its validated snapshots;
//   - no lost updates: after quiescing, the per-vertex sequence numbers sum
//     to exactly the number of committed writes;
//   - golden bit-stability: a vertex nobody writes returns bit-identical
//     bytes before, during, and after every migration;
//   - the stub bit: after quiescing, a lock word marks its block a stub
//     exactly when the block holds a forwarding stub.
//
// It runs over a cache that holds every holder and over a one-block cache,
// where nearly every read comes off the wire.
// Run under -race in CI (the migration stress step of the race job).
func TestMigrationCoherenceStress(t *testing.T) {
	for _, cacheBlocks := range []int{512, 1} {
		t.Run(fmt.Sprintf("cache=%d", cacheBlocks), func(t *testing.T) {
			migrationCoherenceStress(t, cacheBlocks)
		})
	}
}

func migrationCoherenceStress(t *testing.T, cacheBlocks int) {
	const (
		ranks             = 4
		keys              = 12
		payloadWords      = 16 // 128-byte payloads: several 64B blocks
		writers           = 3
		readers           = 3
		writesPerWriter   = 120
		readsPerReader    = 200
		migrationAttempts = 160
		goldenApp         = uint64(keys) // written once, migrated forever
	)
	e := newMigrationCacheEngine(t, ranks, cacheBlocks)
	pt := payloadPType(t, e)
	dps := make([]rma.DPtr, keys)
	for i := range dps {
		dps[i] = seedPayloadVertex(t, e, uint64(i), pt, payloadWords)
	}
	seedPayloadVertex(t, e, goldenApp, pt, payloadWords)
	golden := readPayload(t, e, 0, func() rma.DPtr {
		v, _ := e.index.Lookup(0, goldenApp)
		return rma.DPtr(v)
	}(), pt)

	var (
		wg            sync.WaitGroup
		mu            sync.Mutex
		firstErr      error
		writeCommits  int64
		readValidated int64
		readDiscarded int64
		migrations    int64
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// lookup resolves a vertex's current primary; migration may move it at
	// any time, so workers re-translate per transaction exactly as the OLTP
	// driver does.
	lookup := func(tx *Tx, app uint64) (rma.DPtr, error) {
		return tx.TranslateVertexID(app)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*211 + 5))
			rank := rma.Rank(w % ranks)
			commits := int64(0)
			for i := 0; i < writesPerWriter; i++ {
				app := uint64(rng.Intn(keys))
				tx := e.StartLocal(rank, ReadWrite)
				dp, err := lookup(tx, app)
				if err != nil {
					tx.Abort()
					report(err)
					return
				}
				h, err := tx.AssociateVertex(dp)
				if err != nil {
					tx.Abort()
					if errors.Is(err, ErrTxCritical) || errors.Is(err, ErrNotFound) {
						continue
					}
					report(err)
					return
				}
				runtime.Gosched() // widen the fetch→commit window migrations race into
				cur, ok := h.Property(pt)
				if !ok {
					report(errors.New("writer: payload missing"))
					tx.Abort()
					return
				}
				seq, torn := decodePattern(cur)
				if torn {
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
						continue
					}
					report(err)
					return
				}
				commits++
			}
			mu.Lock()
			writeCommits += commits
			mu.Unlock()
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*733 + 11))
			rank := rma.Rank((r + 1) % ranks)
			lastSeen := make([]uint64, keys)
			validated, discarded := int64(0), int64(0)
			for i := 0; i < readsPerReader; i++ {
				picks := []int{rng.Intn(keys), rng.Intn(keys)}
				tx := e.StartLocal(rank, ReadOnly)
				seqs := make([]uint64, len(picks))
				failed := false
				for j, k := range picks {
					if j > 0 {
						runtime.Gosched() // let migrations slip between the fetches
					}
					dp, err := lookup(tx, uint64(k))
					if err != nil {
						report(err)
						tx.Abort()
						return
					}
					h, err := tx.AssociateVertex(dp)
					if err != nil {
						tx.Abort()
						if errors.Is(err, ErrTxCritical) || errors.Is(err, ErrNotFound) {
							failed = true
							break
						}
						report(err)
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
						report(fmt.Errorf("reader observed a torn payload (vertex %d, seq %d)", k, seq))
						tx.Abort()
						return
					}
					seqs[j] = seq
				}
				if failed {
					discarded++
					continue
				}
				if err := tx.Commit(); err != nil {
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

	// The migrator: keeps moving random vertices (including the golden one)
	// to random other ranks, and interleaves golden-vertex reads that must
	// be bit-identical to the pre-stress bytes at every point.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(4099))
		moved := int64(0)
		for i := 0; i < migrationAttempts; i++ {
			app := uint64(rng.Intn(keys + 1)) // keys == goldenApp
			val, ok := e.index.Lookup(0, app)
			if !ok {
				report(fmt.Errorf("migrator: vertex %d missing from the index", app))
				return
			}
			old := rma.DPtr(val)
			dest := rma.Rank(rng.Intn(ranks))
			if dest == old.Rank() {
				dest = rma.Rank((int(dest) + 1) % ranks)
			}
			n, err := e.MigrateVertices(dest, []MigrationMove{{App: app, Old: old, Dest: dest}})
			if err != nil {
				report(fmt.Errorf("migrator: %v", err))
				return
			}
			moved += int64(n)
			if i%8 == 0 {
				// Golden check, mid-flight: reads return bit-identical
				// values before/after migration.
				tx := e.StartLocal(rma.Rank(rng.Intn(ranks)), ReadOnly)
				dp, err := lookup(tx, goldenApp)
				if err != nil {
					report(err)
					tx.Abort()
					return
				}
				h, err := tx.AssociateVertex(dp)
				if err != nil {
					tx.Abort()
					if errors.Is(err, ErrTxCritical) {
						continue
					}
					report(err)
					return
				}
				v, _ := h.Property(pt)
				if err := tx.Commit(); err != nil {
					continue // snapshot raced a migration; void, not golden
				}
				if !bytes.Equal(v, golden) {
					report(fmt.Errorf("golden vertex bytes changed after %d migrations", moved))
					return
				}
			}
		}
		mu.Lock()
		migrations += moved
		mu.Unlock()
	}()

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
	if migrations == 0 {
		t.Fatal("the migrator never moved a vertex")
	}
	t.Logf("writes committed: %d; reads validated: %d, discarded: %d; migrations: %d (skips %d, forwards %d, optimistic aborts %d)",
		writeCommits, readValidated, readDiscarded, migrations,
		e.MigrationSkips(), e.ForwardedReads(), e.OptimisticAborts())

	// Quiesced final checks: untorn payloads, conserved write count (no lost
	// updates), and the golden vertex still bit-identical.
	tx := e.StartLocal(0, ReadOnly)
	var total uint64
	for i := 0; i < keys; i++ {
		dp, err := tx.TranslateVertexID(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
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
	gdp, err := tx.TranslateVertexID(goldenApp)
	if err != nil {
		t.Fatal(err)
	}
	gh, err := tx.AssociateVertex(gdp)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := gh.Property(pt); !bytes.Equal(v, golden) {
		t.Fatal("golden vertex bytes changed across the stress run")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if total != uint64(writeCommits) {
		t.Fatalf("sequence numbers sum to %d, want one increment per committed write (%d): lost or duplicated updates", total, writeCommits)
	}
	if checkStubBits(t, e) == 0 {
		t.Fatal("no forwarding stub after the stress: the stub-bit check measured nothing")
	}
}
