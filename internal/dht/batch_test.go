package dht

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/rma"
)

// checkBatch asserts LookupBatch ≡ per-key Lookup on a quiescent map.
func checkBatch(t *testing.T, m *Map, origin rma.Rank, keys []uint64) {
	t.Helper()
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	for i := range vals { // stale caller state must be overwritten
		vals[i], found[i] = ^uint64(0), true
	}
	m.LookupBatch(origin, keys, vals, found)
	for i, k := range keys {
		v, ok := m.Lookup(origin, k)
		if vals[i] != v || found[i] != ok {
			t.Fatalf("key %d at %d: LookupBatch = (%d, %v), Lookup = (%d, %v)", k, i, vals[i], found[i], v, ok)
		}
	}
}

func TestLookupBatchMatchesLookup(t *testing.T) {
	// Two buckets per rank: 300 keys make chains of ~37 entries, so the walk
	// runs many levels and crosses ranks once heaps spill.
	m := newMap(4, 2, 128)
	for k := uint64(0); k < 300; k++ {
		if !m.Insert(rma.Rank(k%4), k*7, k*7+1) {
			t.Fatalf("insert %d failed", k)
		}
	}
	rng := rand.New(rand.NewSource(3))
	var keys []uint64
	for i := 0; i < 500; i++ {
		keys = append(keys, uint64(rng.Intn(300))*7)      // hits, with duplicates
		keys = append(keys, uint64(rng.Intn(300))*7+3)    // misses on populated chains
		keys = append(keys, keys[rng.Intn(len(keys))])    // explicit duplicates
		keys = append(keys, uint64(1)<<40+uint64(i)*1021) // misses anywhere
	}
	checkBatch(t, m, 2, keys)
	checkBatch(t, m, 0, nil)
	checkBatch(t, m, 1, keys[:1])

	// Deleted keys miss; their chain neighbours still hit.
	for k := uint64(0); k < 300; k += 3 {
		m.Delete(1, k*7)
	}
	checkBatch(t, m, 3, keys)

	// More keys than one chunk carries.
	big := make([]uint64, 2*batchChunk+17)
	for i := range big {
		big[i] = uint64(rng.Intn(600)) * 7
	}
	checkBatch(t, m, 0, big)

	// An empty map: every bucket head is null.
	checkBatch(t, newMap(2, 2, 4), 1, keys[:40])
}

// TestLookupBatchUnderChurn runs LookupBatch while other goroutines insert and
// delete keys on the same chains out of tiny heaps, so slots recycle constantly
// and readers run into tombstones and tag mismatches. Stable keys must always
// resolve to their value; a churning key resolves to its value or misses.
func TestLookupBatchUnderChurn(t *testing.T) {
	const ranks, stable, churn = 4, 64, 48
	m := newMap(ranks, 2, 40)
	stableKey := func(i int) uint64 { return uint64(i)*2 + 1 }
	churnKey := func(r, i int) uint64 { return uint64(r+1)<<32 | uint64(i)*2 }
	for i := 0; i < stable; i++ {
		if !m.Insert(rma.Rank(i%ranks), stableKey(i), stableKey(i)+1) {
			t.Fatal("seeding insert failed")
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			live := make([]bool, churn)
			for !stop.Load() {
				i := rng.Intn(churn)
				k := churnKey(r, i)
				if live[i] {
					if !m.Delete(rma.Rank(r), k) {
						t.Errorf("rank %d: delete of own live key %d failed", r, k)
						return
					}
					live[i] = false
				} else if m.Insert(rma.Rank(r), k, k+1) { // may fail: heaps are tiny
					live[i] = true
				}
			}
		}(r)
	}
	var keys []uint64
	for i := 0; i < stable; i++ {
		keys = append(keys, stableKey(i))
	}
	for r := 1; r < ranks; r++ {
		for i := 0; i < churn; i++ {
			keys = append(keys, churnKey(r, i))
		}
	}
	keys = append(keys, keys[:stable]...) // duplicates
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	for round := 0; round < 100; round++ {
		m.LookupBatch(0, keys, vals, found)
		for i, k := range keys {
			isStable := k&1 == 1
			switch {
			case found[i] && vals[i] != k+1:
				t.Fatalf("round %d: key %d resolved to %d, want %d", round, k, vals[i], k+1)
			case isStable && !found[i]:
				t.Fatalf("round %d: stable key %d not found", round, k)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	checkBatch(t, m, 0, keys)
}

// roundTrips is what a rank's issued word traffic cost in round trips: every
// scalar atomic is one, every train is one however many atomics it carries.
// inTrains is the number of atomics that rode in trains.
func roundTrips(before, after fabric.Snapshot, inTrains int64) int64 {
	return (after.RemoteAtoms - before.RemoteAtoms - inTrains) + (after.AtomicBatches - before.AtomicBatches)
}

// soloKeys returns n keys that each have a bucket to themselves, so every
// chain has length one once they are inserted.
func soloKeys(m *Map, n int) []uint64 {
	taken := map[ref]bool{}
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if b := m.bucketOf(k); !taken[b] {
			taken[b] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestLookupTrafficContract pins the round-trip cost of translation on the
// simulator's counters (deterministic counts, so CI gates on them): a scalar
// Lookup of a remote chain-length-1 key is the bucket load plus one four-word
// entry train, and LookupBatch pays at most two trains per remote rank per
// chunk however many keys it resolves.
func TestLookupTrafficContract(t *testing.T) {
	const ranks = 4
	f := rma.New(ranks)
	m := New(f, Config{BucketsPerRank: 1 << 14, EntriesPerRank: 1 << 13})
	keys := soloKeys(m, batchChunk+100)
	var remote int64
	for _, k := range keys {
		if !m.Insert(m.HomeRank(k), k, k+1) {
			t.Fatal("insert failed")
		}
		if m.HomeRank(k) != 0 {
			remote++
		}
	}

	var scalar uint64
	for _, k := range keys {
		if m.HomeRank(k) != 0 {
			scalar = k
			break
		}
	}
	before := f.CounterSnapshot(0)
	if v, ok := m.Lookup(0, scalar); !ok || v != scalar+1 {
		t.Fatalf("Lookup(%d) = (%d, %v)", scalar, v, ok)
	}
	after := f.CounterSnapshot(0)
	if d := after.RemoteAtoms - before.RemoteAtoms; d != 5 {
		t.Errorf("scalar Lookup issued %d remote atomics, want 5 (bucket word + key, val, next, tag)", d)
	}
	if d := after.AtomicBatches - before.AtomicBatches; d != 1 {
		t.Errorf("scalar Lookup issued %d atomic trains, want 1 (the entry)", d)
	}
	if rt := roundTrips(before, after, eWords); rt != 2 {
		t.Errorf("scalar Lookup cost %d round trips, want 2", rt)
	}

	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	before = f.CounterSnapshot(0)
	m.LookupBatch(0, keys, vals, found)
	after = f.CounterSnapshot(0)
	for i, k := range keys {
		if !found[i] || vals[i] != k+1 {
			t.Fatalf("LookupBatch: key %d = (%d, %v)", k, vals[i], found[i])
		}
	}
	if d := after.RemoteAtoms - before.RemoteAtoms; d != 5*remote {
		t.Errorf("LookupBatch issued %d remote atomics for %d remote keys, want %d", d, remote, 5*remote)
	}
	chunks := int64((len(keys) + batchChunk - 1) / batchChunk)
	if d, limit := after.AtomicBatches-before.AtomicBatches, 2*(ranks-1)*chunks; d > limit {
		t.Errorf("LookupBatch issued %d trains, want at most %d (2 per remote rank per chunk)", d, limit)
	}
	if rt, limit := roundTrips(before, after, 5*remote), 2*(ranks-1)*chunks; rt > limit {
		t.Errorf("LookupBatch cost %d round trips, want at most %d", rt, limit)
	}
}
