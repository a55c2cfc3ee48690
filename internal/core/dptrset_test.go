package core

import (
	"errors"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
)

// setKeys returns the keys of s in ascending order, walking it with next
// from NullDPtr on. The walk stops at the largest DPtr, past which the
// cursor's +1 would wrap to the first key again, and fails on a key that
// does not ascend.
func setKeys(t *testing.T, s *dptrSet) []fabric.DPtr {
	t.Helper()
	var keys []fabric.DPtr
	for dp, ok := s.next(fabric.NullDPtr); ok; dp, ok = s.next(dp + 1) {
		if n := len(keys); n > 0 && dp <= keys[n-1] {
			t.Fatalf("next(%v) returned %v", keys[n-1]+1, dp)
		}
		keys = append(keys, dp)
		if dp == maxDPtr {
			break
		}
	}
	return keys
}

// checkSetEmpty fails unless s holds no key, no page and no page in its
// table's slots, as clear leaves it.
func checkSetEmpty(t *testing.T, s *dptrSet) {
	t.Helper()
	if dp, ok := s.next(fabric.NullDPtr); ok {
		t.Fatalf("the set holds %v after clear", dp)
	}
	if len(s.pages) != 0 || len(s.order) != 0 || s.index.used != 0 {
		t.Fatalf("%d pages, %d listed, %d in the table after clear", len(s.pages), len(s.order), s.index.used)
	}
	if i := slices.IndexFunc(s.index.slots, func(sl dptrSlot[int32]) bool { return !sl.key.IsNull() }); i >= 0 {
		t.Fatalf("table slot %d keeps page key %v after clear", i, s.index.slots[i].key)
	}
}

// TestDPtrSetMatchesSortedModel holds the paged set to a map over keys drawn
// from the whole DPtr space, 2^16 ranks × 2^48 offsets, on 1 500 pages, with
// NullDPtr and the largest DPtr among them. The keys arrive in random order,
// in batches through add, or and addRun (a run, ascending or not, which must
// keep just its new keys), and next is called from random points between
// batches, so the set sorts its pages and the next batch adds pages after
// the sort, below, between and above those it has. add reports what the model does, next agrees with the
// model's sorted keys, and so do the keys after drop (of keys the set holds
// and keys it does not, on its pages and off them) and after dropFunc,
// which must call back on every key in ascending order. clear leaves the set
// empty, and the same set serves the next round.
func TestDPtrSetMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(62, 1))
	var s dptrSet
	for round := range 3 {
		pages := make([]uint64, 1500)
		for i := range pages {
			pages[i] = rng.Uint64() >> pageShift
		}
		pages[0], pages[1] = 0, uint64(maxDPtr)>>pageShift
		draw := func() fabric.DPtr {
			return fabric.DPtr(pages[rng.IntN(len(pages))]<<pageShift | rng.Uint64N(1<<pageShift))
		}
		keys := make([]fabric.DPtr, 6000)
		for i := range keys {
			keys[i] = draw()
		}
		keys[0], keys[1] = fabric.NullDPtr, maxDPtr
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

		model := make(map[fabric.DPtr]bool)
		check := func(what string) {
			t.Helper()
			if got, want := setKeys(t, &s), slices.Sorted(maps.Keys(model)); !slices.Equal(got, want) {
				t.Fatalf("round %d, %s: the set walks %d keys, the model holds %d", round, what, len(got), len(want))
			}
		}
		for len(keys) > 0 {
			batch := keys[:min(len(keys), 1+rng.IntN(200))]
			keys = keys[len(batch):]
			switch rng.IntN(3) {
			case 0:
				for _, k := range batch {
					if got := s.add(k); got == model[k] {
						t.Fatalf("round %d: add(%v) = %v with the key already in: %v", round, k, got, model[k])
					}
					model[k] = true
				}
			case 1:
				for _, k := range batch {
					s.or(k)
					model[k] = true
				}
			case 2:
				if rng.IntN(2) == 0 {
					slices.Sort(batch)
				}
				var fresh []fabric.DPtr
				for _, k := range batch {
					if !model[k] {
						fresh = append(fresh, k)
						model[k] = true
					}
				}
				if got := s.addRun(batch); !slices.Equal(got, fresh) {
					t.Fatalf("round %d: addRun kept %d of %d keys, want the %d new ones in order", round, len(got), len(batch), len(fresh))
				}
			}
			want := slices.Sorted(maps.Keys(model))
			for range 8 {
				from := draw()
				if rng.IntN(4) == 0 {
					from = fabric.DPtr(rng.Uint64())
				}
				got, ok := s.next(from)
				i, _ := slices.BinarySearch(want, from)
				if ok != (i < len(want)) || ok && got != want[i] {
					t.Fatalf("round %d: next(%v) = %v, %v; want the model's %d-th of %d keys", round, from, got, ok, i, len(want))
				}
			}
		}
		check("after the adds")

		held := slices.Sorted(maps.Keys(model))
		for i := 0; i < len(held); i += 3 {
			s.drop(held[i])
			delete(model, held[i])
		}
		for range 500 {
			k := draw()
			if rng.IntN(2) == 0 {
				k = fabric.DPtr(rng.Uint64())
			}
			s.drop(k)
			delete(model, k)
		}
		check("after drop")

		var called []fabric.DPtr
		s.dropFunc(func(k fabric.DPtr) bool {
			called = append(called, k)
			return k%2 == 1
		})
		if want := slices.Sorted(maps.Keys(model)); !slices.Equal(called, want) {
			t.Fatalf("round %d: dropFunc called back on %d keys, the model holds %d", round, len(called), len(want))
		}
		maps.DeleteFunc(model, func(k fabric.DPtr, _ bool) bool { return k%2 == 1 })
		check("after dropFunc")

		s.clear()
		checkSetEmpty(t, &s)
	}
}

// TestFilterHopRejectsEdgeOffThePool: a hub whose stored edge record names
// no block of the pool — a rank past the fabric's, an offset past the pool's,
// the largest DPtr, past which the cursor's +1 would wrap to the first
// candidate again — fails a final round (FilterNeighbors) with ErrNotFound,
// with a limit and without, and neither panics nor loops: in a read-only
// transaction, where the pick (pickChunk) meets the candidate, and in one
// that has written, where vouch walks every candidate for the handles it
// must read through before any is stamped.
func TestFilterHopRejectsEdgeOffThePool(t *testing.T) {
	e := newEngine(t, 2)
	for _, bad := range []fabric.DPtr{
		fabric.MakeDPtr(2, 1),
		fabric.MakeDPtr(1, uint64(e.Store().BlocksPerRank())),
		maxDPtr,
	} {
		seed := e.StartLocal(0, ReadWrite)
		hub, err := seed.CreateVertex(1)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := seed.CreateVertex(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seed.CreateEdge(hub, nb, holder.DirOut, 0); err != nil {
			t.Fatal(err)
		}
		seed.cached(hub).v.Edges[0].Neighbor = bad
		if err := seed.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, wrote := range []bool{false, true} {
			for _, limit := range []int{0, 5} {
				mode := ReadOnly
				if wrote {
					mode = ReadWrite
				}
				tx := e.StartLocal(0, mode)
				if wrote {
					if _, err := tx.CreateVertex(3); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, err := tx.FilterNeighbors([]fabric.DPtr{hub}, nil, MaskAll, nil, nil, limit, 0); !errors.Is(err, ErrNotFound) {
					t.Errorf("edge to %v, wrote %v, limit %d: %v, want ErrNotFound", bad, wrote, limit, err)
				}
				tx.Abort()
			}
		}
	}
}
