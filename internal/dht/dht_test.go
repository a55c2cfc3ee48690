package dht

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/fabric/tcp"
	"github.com/gdi-go/gdi/internal/rma"
)

func newMap(ranks, buckets, entries int) *Map {
	return New(rma.New(ranks), Config{BucketsPerRank: buckets, EntriesPerRank: entries})
}

func TestInsertLookup(t *testing.T) {
	m := newMap(4, 16, 64)
	if !m.Insert(0, 42, 4242) {
		t.Fatal("insert failed")
	}
	if v, ok := m.Lookup(2, 42); !ok || v != 4242 {
		t.Fatalf("Lookup(42) = (%d, %v), want (4242, true)", v, ok)
	}
	if _, ok := m.Lookup(1, 43); ok {
		t.Fatal("Lookup of absent key succeeded")
	}
}

func TestDelete(t *testing.T) {
	m := newMap(2, 8, 32)
	m.Insert(0, 7, 70)
	if !m.Delete(1, 7) {
		t.Fatal("Delete of present key reported false")
	}
	if _, ok := m.Lookup(0, 7); ok {
		t.Fatal("key still visible after delete")
	}
	if m.Delete(0, 7) {
		t.Fatal("Delete of absent key reported true")
	}
}

func TestChainedKeysSameBucket(t *testing.T) {
	// One bucket per rank on one rank forces every key into one chain.
	m := newMap(1, 1, 64)
	for k := uint64(1); k <= 20; k++ {
		if !m.Insert(0, k, k*10) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if got := m.Len(0); got != 20 {
		t.Fatalf("Len = %d, want 20", got)
	}
	// Delete from the middle, head, and tail of the chain.
	for _, k := range []uint64{10, 20, 1, 15, 2} {
		if !m.Delete(0, k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	for k := uint64(1); k <= 20; k++ {
		v, ok := m.Lookup(0, k)
		deleted := k == 10 || k == 20 || k == 1 || k == 15 || k == 2
		if ok == deleted {
			t.Fatalf("Lookup(%d) ok=%v after deletions", k, ok)
		}
		if ok && v != k*10 {
			t.Fatalf("Lookup(%d) = %d, want %d", k, v, k*10)
		}
	}
}

func TestHeapExhaustionAndReuse(t *testing.T) {
	m := newMap(1, 4, 8)
	for k := uint64(0); k < 8; k++ {
		if !m.Insert(0, k, k) {
			t.Fatalf("insert %d failed with capacity left", k)
		}
	}
	if m.Insert(0, 100, 100) {
		t.Fatal("insert beyond heap capacity succeeded")
	}
	if !m.Delete(0, 3) {
		t.Fatal("delete failed")
	}
	if !m.Insert(0, 100, 100) {
		t.Fatal("slot not reusable after delete")
	}
	if v, ok := m.Lookup(0, 100); !ok || v != 100 {
		t.Fatalf("Lookup(100) = (%d, %v)", v, ok)
	}
}

func TestAllocSpillsToOtherRanks(t *testing.T) {
	m := newMap(2, 4, 2) // tiny per-rank heaps
	for k := uint64(0); k < 4; k++ {
		if !m.Insert(0, k, k) { // rank 0's heap holds 2; the rest spill to rank 1
			t.Fatalf("insert %d failed", k)
		}
	}
	for k := uint64(0); k < 4; k++ {
		if _, ok := m.Lookup(1, k); !ok {
			t.Fatalf("key %d lost after spill", k)
		}
	}
}

func TestAgainstModelSequential(t *testing.T) {
	m := newMap(4, 32, 4096)
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(200))
		switch rng.Intn(3) {
		case 0:
			if _, dup := model[k]; !dup {
				if !m.Insert(rma.Rank(rng.Intn(4)), k, k*3) {
					t.Fatal("insert failed")
				}
				model[k] = k * 3
			}
		case 1:
			got := m.Delete(rma.Rank(rng.Intn(4)), k)
			_, want := model[k]
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(model, k)
		case 2:
			v, ok := m.Lookup(rma.Rank(rng.Intn(4)), k)
			wv, wok := model[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("step %d: Lookup(%d) = (%d, %v), want (%d, %v)", i, k, v, ok, wv, wok)
			}
		}
	}
	if m.Len(0) != len(model) {
		t.Fatalf("Len = %d, model = %d", m.Len(0), len(model))
	}
}

func TestQuickInsertLookupDelete(t *testing.T) {
	m := newMap(2, 64, 8192)
	seen := map[uint64]bool{}
	prop := func(key uint64, val uint64) bool {
		if seen[key] {
			return true
		}
		seen[key] = true
		if !m.Insert(0, key, val) {
			return false
		}
		v, ok := m.Lookup(1, key)
		if !ok || v != val {
			return false
		}
		if !m.Delete(0, key) {
			return false
		}
		_, ok = m.Lookup(1, key)
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointKeys(t *testing.T) {
	const ranks, perRank = 8, 500
	m := newMap(ranks, 64, 2048)
	m.f.Run(func(r rma.Rank) {
		base := uint64(r) * perRank
		for i := uint64(0); i < perRank; i++ {
			if !m.Insert(r, base+i, base+i+1) {
				t.Errorf("rank %d: insert %d failed", r, base+i)
				return
			}
		}
		for i := uint64(0); i < perRank; i++ {
			if v, ok := m.Lookup(r, base+i); !ok || v != base+i+1 {
				t.Errorf("rank %d: lookup %d = (%d, %v)", r, base+i, v, ok)
				return
			}
		}
		for i := uint64(0); i < perRank; i += 2 {
			if !m.Delete(r, base+i) {
				t.Errorf("rank %d: delete %d failed", r, base+i)
				return
			}
		}
	})
	if got, want := m.Len(0), ranks*perRank/2; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

func TestConcurrentSameChainChurn(t *testing.T) {
	// All ranks hammer the same single bucket: inserts, lookups, deletes of
	// overlapping keys. Verifies the tombstone protocol under real contention.
	const ranks = 8
	m := New(rma.New(ranks), Config{BucketsPerRank: 1, EntriesPerRank: 4096})
	m.f.Run(func(r rma.Rank) {
		rng := rand.New(rand.NewSource(int64(r) + 7))
		for i := 0; i < 300; i++ {
			k := uint64(r)<<32 | uint64(i) // per-rank keys, same chain
			if !m.Insert(r, k, k+1) {
				t.Errorf("rank %d: insert failed", r)
				return
			}
			// Random probe of any rank's keyspace while chains churn.
			probe := uint64(rng.Intn(ranks))<<32 | uint64(rng.Intn(300))
			if v, ok := m.Lookup(r, probe); ok && v != probe+1 {
				t.Errorf("rank %d: lookup(%d) returned wrong value %d", r, probe, v)
				return
			}
			if i%3 == 0 {
				if !m.Delete(r, k) {
					t.Errorf("rank %d: delete of own key %d failed", r, k)
					return
				}
			}
		}
	})
	// Every remaining key must still be intact.
	for r := 0; r < ranks; r++ {
		for i := 0; i < 300; i++ {
			k := uint64(r)<<32 | uint64(i)
			v, ok := m.Lookup(0, k)
			if i%3 == 0 {
				if ok {
					t.Fatalf("deleted key %d still present", k)
				}
			} else if !ok || v != k+1 {
				t.Fatalf("key %d = (%d, %v), want (%d, true)", k, v, ok, k+1)
			}
		}
	}
}

func TestRefEncoding(t *testing.T) {
	p := heapRef(513, 12345, 0x7abc)
	if !p.isHeap() || p.rank() != 513 || p.idx() != 12345 || p.tag() != 0x7abc&0x7fff {
		t.Fatalf("ref fields: heap=%v rank=%d idx=%d tag=%#x", p.isHeap(), p.rank(), p.idx(), p.tag())
	}
	if ref(0).isHeap() || !ref(0).isNull() {
		t.Fatal("zero ref must be a null bucket ref")
	}
}

// TestNewIssuesNoRemoteTraffic: over a wire transport each process threads
// only the free lists of the ranks it hosts, so constructing a map issues no
// remote atomic, and every rank can then fill its own heap with keys homed
// on itself.
func TestNewIssuesNoRemoteTraffic(t *testing.T) {
	const entries = 256
	ts, err := tcp.NewLoopbackCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, tr := range ts {
		wg.Add(1)
		go func(tr *tcp.Transport) {
			defer wg.Done()
			m := New(tr, Config{BucketsPerRank: 64, EntriesPerRank: entries})
			tr.Run(func(me fabric.Rank) {
				if n := tr.CounterSnapshot(me).RemoteAtoms; n != 0 {
					t.Errorf("rank %d: New issued %d remote atomics, want 0", me, n)
				}
				for key, n := uint64(0), 0; n < entries; key++ {
					if m.HomeRank(key) != me {
						continue
					}
					if !m.Insert(me, key, key+1) {
						t.Errorf("rank %d: insert %d of %d homed keys failed", me, n+1, entries)
						return
					}
					n++
				}
			})
		}(tr)
	}
	wg.Wait()
	for _, tr := range ts {
		tr.Close()
	}
}
