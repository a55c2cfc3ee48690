package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gdi-go/gdi/internal/rma"
)

// Cache and optimistic-read edge cases around live migration: a cached copy
// of a migrated vertex must never be served stale, an optimistic snapshot
// spanning a migration must abort, and the migrate-back ABA case — the
// vertex returns to its original block, so the DPtr matches again — must be
// caught by the guard versions, not the pointer comparison.

// newMigrationCacheEngine: a cache of cacheCap blocks and heat tracking.
func newMigrationCacheEngine(t *testing.T, ranks, cacheCap int) *Engine {
	t.Helper()
	return NewEngine(rma.New(ranks), Config{
		BlockSize:             64,
		BlocksPerRank:         1 << 12,
		LockTries:             256,
		CacheCapacity:         cacheCap,
		RebalanceHeatTracking: true,
	})
}

// TestMigratedVertexInvalidatesCachedCopy: rank 0 caches a remote vertex;
// after the vertex migrates, the cached copy's guard version is stale, so a
// new read refetches at the new owner and returns the same bytes.
func TestMigratedVertexInvalidatesCachedCopy(t *testing.T) {
	e := newMigrationCacheEngine(t, 3, 512)
	pt := payloadPType(t, e)
	old := seedPayloadVertex(t, e, 1, pt, 16)
	pre := readPayload(t, e, 0, old, pt) // primes rank 0's cache
	if e.Store().CacheLen(0) == 0 {
		t.Fatal("first read installed nothing into the cache")
	}

	newDp := mustMigrate(t, e, 1, 2)

	missesBefore := e.Fabric().CounterSnapshot(0).CacheMisses
	tx := e.StartLocal(0, ReadOnly)
	h, err := tx.AssociateVertex(old) // stale DPtr: stub chase + refetch
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != newDp {
		t.Fatalf("resolved to %v, want %v", h.ID(), newDp)
	}
	if v, _ := h.Property(pt); !bytes.Equal(v, pre) {
		t.Fatal("post-migration read returned different bytes")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if misses := e.Fabric().CounterSnapshot(0).CacheMisses; misses <= missesBefore {
		t.Fatal("stale cached copy was served without a miss")
	}
}

// TestOptimisticSnapshotAbortsAcrossMigration: an optimistic read-only
// transaction that fetched the vertex before it migrated must fail
// validation at commit (stale guard version), and the follow-up transaction
// reads the identical bytes at the new owner.
func TestOptimisticSnapshotAbortsAcrossMigration(t *testing.T) {
	e := newMigrationCacheEngine(t, 3, 512)
	pt := payloadPType(t, e)
	old := seedPayloadVertex(t, e, 1, pt, 16)
	pre := readPayload(t, e, 0, old, pt)

	reader := e.StartLocal(0, ReadOnly)
	if _, err := reader.AssociateVertex(old); err != nil {
		t.Fatal(err)
	}
	newDp := mustMigrate(t, e, 1, 2)
	if err := reader.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("snapshot spanning a migration committed: err = %v", err)
	}
	if e.OptimisticAborts() == 0 {
		t.Fatal("abort not counted")
	}
	retry := e.StartLocal(0, ReadOnly)
	h, err := retry.AssociateVertex(newDp)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := h.Property(pt); !bytes.Equal(v, pre) {
		t.Fatal("refetched bytes differ")
	}
	if err := retry.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateBackABACachedCopyRejected is the full ABA: rank 0 caches V at
// its original block P; V migrates away and back, reusing P — the pointer
// compares equal again, but the cached copy's stamped version is two bumps
// behind, so it must be rejected and refetched (bit-identical content).
func TestMigrateBackABACachedCopyRejected(t *testing.T) {
	e := newMigrationCacheEngine(t, 3, 512)
	pt := payloadPType(t, e)
	old := seedPayloadVertex(t, e, 1, pt, 16)
	pre := readPayload(t, e, 0, old, pt) // cache rank 0's copy of P

	away := mustMigrate(t, e, 1, 2)
	if away.Rank() != 2 {
		t.Fatalf("intermediate hop on rank %d, want 2", away.Rank())
	}
	back := mustMigrate(t, e, 1, 1)
	if back != old {
		t.Fatalf("migrate-back landed at %v, want %v", back, old)
	}

	snap := e.Fabric().CounterSnapshot(0)
	tx := e.StartLocal(0, ReadOnly)
	h, err := tx.AssociateVertex(old)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != old {
		t.Fatalf("resolved to %v, want the restored original %v", h.ID(), old)
	}
	if v, _ := h.Property(pt); !bytes.Equal(v, pre) {
		t.Fatal("ABA read returned different bytes")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := e.Fabric().CounterSnapshot(0)
	if after.CacheMisses <= snap.CacheMisses {
		t.Fatal("stale ABA copy was served as a cache hit")
	}
	if after.RemoteGets <= snap.RemoteGets {
		t.Fatal("ABA read issued no refetch traffic")
	}

	// An optimistic snapshot taken before the round trip must abort too.
	reader := e.StartLocal(0, ReadOnly)
	if _, err := reader.AssociateVertex(old); err != nil {
		t.Fatal(err)
	}
	mustMigrate(t, e, 1, 2)
	mustMigrate(t, e, 1, 1)
	if err := reader.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("ABA snapshot committed: err = %v", err)
	}
}

// TestMigratedVertexCacheEviction: with a tiny cache the migrated vertex's
// entries are evicted by unrelated traffic; a later read through the stale
// DPtr must still resolve correctly (eviction plus migration compose).
func TestMigratedVertexCacheEviction(t *testing.T) {
	e := newMigrationCacheEngine(t, 3, 2) // two entries: constant churn
	pt := payloadPType(t, e)
	old := seedPayloadVertex(t, e, 1, pt, 16)
	pre := readPayload(t, e, 0, old, pt)

	// Unrelated remote vertices churn the 2-entry cache.
	var churn []rma.DPtr
	for app := uint64(2); app < 8; app++ {
		churn = append(churn, seedPayloadVertex(t, e, app, pt, 16))
	}
	for _, dp := range churn {
		readPayload(t, e, 0, dp, pt)
	}

	newDp := mustMigrate(t, e, 1, 2)
	tx := e.StartLocal(0, ReadOnly)
	h, err := tx.AssociateVertex(old)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != newDp {
		t.Fatalf("resolved to %v, want %v", h.ID(), newDp)
	}
	if v, _ := h.Property(pt); !bytes.Equal(v, pre) {
		t.Fatal("post-eviction read returned different bytes")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
