package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// harvestRecords is the record-at-a-time harvest harvestRuns replaced, kept
// as its oracle: every record through the cursor's Next, the mask tested per
// record, a heavy record's far end resolved by far, and a Go map for the
// neighbors already seen.
func harvestRecords(view *holder.View, mask DirMask, next []fabric.DPtr, seen map[fabric.DPtr]bool, far func(fabric.DPtr) (fabric.DPtr, bool, error)) ([]fabric.DPtr, error) {
	c := view.Edges()
	for c.Next() {
		rec := &c.Rec
		if !mask.matches(rec.Dir) {
			continue
		}
		nb := rec.Neighbor
		if rec.Heavy {
			var ok bool
			var err error
			if nb, ok, err = far(nb); err != nil {
				return next, err
			}
			if !ok {
				continue
			}
		}
		if !seen[nb] {
			seen[nb] = true
			next = append(next, nb)
		}
	}
	return next, view.Err()
}

// checkHarvest replays the expansion tx just ran from what its arena still
// holds — each distinct frontier vertex's handle or stream — and fails unless
// harvesting the matched vertices with the record-at-a-time oracle, in
// frontier order, gives next.
func checkHarvest(t *testing.T, tx *Tx, mask DirMask, matched, next []fabric.DPtr) {
	t.Helper()
	sc := tx.frontier
	if sc == nil {
		if len(next) != 0 {
			t.Fatalf("a hop without an arena harvested %v", next)
		}
		return
	}
	kept := make(map[fabric.DPtr]bool, len(matched))
	for _, id := range matched {
		kept[id] = true
	}
	seen := make(map[fabric.DPtr]bool)
	var want []fabric.DPtr
	for i := range sc.verts {
		v := &sc.verts[i]
		if v.dup {
			continue
		}
		if v.h != nil {
			if kept[v.h.ID()] {
				if err := v.h.ForEachNeighbor(mask, func(nb fabric.DPtr) {
					if !seen[nb] {
						seen[nb] = true
						want = append(want, nb)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		if !kept[v.head] {
			continue
		}
		var view holder.View
		if err := view.Reset(sc.items[v.item].buf); err != nil {
			t.Fatal(err)
		}
		far := func(nb fabric.DPtr) (fabric.DPtr, bool, error) {
			es, err := tx.fetchEdgeState(nb)
			if err != nil || es.deleted {
				return 0, false, err
			}
			if nb = es.e.Target; nb == v.head || view.HasHome(nb) {
				nb = es.e.Origin
			}
			return nb, true, nil
		}
		var err error
		if want, err = harvestRecords(&view, mask, want, seen, far); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(next, want) {
		t.Fatalf("mask %#x: the hop harvested\n%v\nthe record walk over its arena\n%v", mask, next, want)
	}
}

var errFar = errors.New("edge holder unreadable")

// fuzzFar is the far-end resolver of FuzzHarvestMatchesRecordWalk's heavy
// records: an error when the record's offset is 3 mod 7, a deleted edge when
// it is a multiple of 5, and otherwise a vertex on the record's rank at half
// its offset, which light records name too.
func fuzzFar(nb fabric.DPtr) (fabric.DPtr, bool, error) {
	switch off := nb.Off(); {
	case off%7 == 3:
		return 0, false, errFar
	case off%5 == 0:
		return 0, false, nil
	default:
		return fabric.MakeDPtr(nb.Rank(), off/2+1), true, nil
	}
}

// harvestVertex derives a vertex from the bytes, three a record: every
// direction, light and heavy runs, neighbors on ranks 0–2 at offsets below
// 80 (NullDPtr among them), so that they repeat within and across runs and
// fall on three pages of the hop's set. With long set it ends
// in a light run of 100 ascending records, longer than any buffer a run is
// decoded into before the records ahead of it are deduped or fed, and long
// enough for a bounded feed to pause.
func harvestVertex(data []byte, long bool) *holder.Vertex {
	v := &holder.Vertex{AppID: uint64(len(data))}
	for i := 0; i+2 < len(data); i += 3 {
		b := data[i]
		v.Edges = append(v.Edges, holder.EdgeRec{
			Neighbor: rma.MakeDPtr(rma.Rank(data[i+1]%3), uint64(data[i+2])%80),
			Dir:      holder.Direction(b % 3),
			Heavy:    b&0x40 != 0,
			Label:    lpg.LabelID(b >> 3 & 3),
		})
	}
	if long {
		for k := range 100 {
			off := uint64(k)
			if len(data) > 0 {
				off = uint64(data[k%len(data)]) % 70
			}
			v.Edges = append(v.Edges, holder.EdgeRec{Neighbor: rma.MakeDPtr(rma.Rank(k%2), 1+off), Dir: holder.DirOut, Label: 1})
		}
		long := v.Edges[len(v.Edges)-100:]
		slices.SortFunc(long, func(a, b holder.EdgeRec) int { return cmp.Compare(a.Neighbor, b.Neighbor) })
	}
	return v
}

// FuzzHarvestMatchesRecordWalk holds the run-at-a-time harvest to the
// record-at-a-time walk it replaced, under every direction mask: the same
// next, in the same order, and the same error. The holders are arbitrary
// bytes and a vertex derived from them (harvestVertex), optionally with a
// corrupt tail — a record count past the region, or a mangled last byte. The
// harvest starts behind a prefix of neighbors an earlier vertex contributed,
// in a slice without spare capacity. Fed, the harvest lists nothing, and,
// the prefix dropped, the set's keys are exactly the walk's. Fed up to a
// bound the input picks (fedRuns.top) and then to no bound (raiseTo), it
// must leave the same keys, meet the same error and, if it meets none,
// pause no run past the second feed. After each use, clear leaves no page.
func FuzzHarvestMatchesRecordWalk(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{9, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, byte(1))
	f.Add([]byte{0x40, 1, 10, 0x41, 1, 20, 0x42, 0, 30, 0, 1, 6, 1, 0, 6, 2, 2, 6}, byte(5))
	f.Add([]byte{16, 0, 1, 0, 0, 0, 1, 0, 1, 16, 0, 1, 0, 0, 0, 1, 2, 32}, byte(12))
	f.Add([]byte{5, 9, 5, 9, 5, 9, 4, 9, 4, 9, 0xc1, 9, 0xc1, 9, 0xc1, 200, 5, 9, 5, 9}, byte(22))
	f.Add([]byte{1, 1, 1, 1, 1, 2, 1, 1, 3, 1, 0, 0, 1, 0, 160}, byte(0)) // NullDPtr, twice, behind the prefix
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		stream := holder.EncodeVertex(harvestVertex(data, sel&4 != 0), []int{64, 72, 128, 512}[sel%4])
		switch {
		case sel&8 != 0 && len(stream) >= 8:
			n := binary.LittleEndian.Uint32(stream[4:])
			binary.LittleEndian.PutUint32(stream[4:], n+1+uint32(sel>>5))
		case sel&16 != 0:
			if k := len(bytesTrimZeros(stream)); k > 0 {
				stream[k-1] |= 0xf0
			}
		}
		for _, s := range [][]byte{data, stream} {
			var view holder.View
			if view.Reset(s) != nil {
				continue
			}
			var prefix []fabric.DPtr
			for c := view.Edges(); c.Next() && len(prefix) < 3; {
				if !c.Rec.Heavy {
					prefix = append(prefix, c.Rec.Neighbor)
				}
			}
			prefix = slices.Compact(prefix)
			for mask := DirMask(0); mask <= MaskAll; mask++ {
				seenRef := make(map[fabric.DPtr]bool)
				var set dptrSet
				for _, nb := range prefix {
					seenRef[nb] = true
					set.add(nb)
				}
				view.Reset(s)
				want, wantErr := harvestRecords(&view, mask, slices.Clip(slices.Clone(prefix)), seenRef, fuzzFar)
				view.Reset(s)
				c := view.Edges()
				got, gotErr := harvestRuns(&c, view.EdgeCap(), mask, &set, slices.Clip(slices.Clone(prefix)), nil, fuzzFar)
				if !slices.Equal(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("mask %#x, stream % x:\nruns    %v, %v\nrecords %v, %v", mask, s, got, gotErr, want, wantErr)
				}
				set.clear()
				checkSetEmpty(t, &set)

				for _, nb := range prefix {
					set.add(nb)
				}
				view.Reset(s)
				c = view.Edges()
				listed, fedErr := harvestRuns(&c, view.EdgeCap(), mask, &set, nil, &fedRuns{top: maxDPtr}, fuzzFar)
				set.dropAll(prefix)
				fed := setKeys(t, &set)
				walked := slices.Sorted(slices.Values(want[len(prefix):]))
				if len(listed) != 0 || !slices.Equal(fed, walked) || fmt.Sprint(fedErr) != fmt.Sprint(wantErr) {
					t.Fatalf("mask %#x, fed, stream % x:\nlisted %v, keys %v, %v\nwant   none, %v, %v", mask, s, listed, fed, fedErr, walked, wantErr)
				}
				set.clear()
				checkSetEmpty(t, &set)

				for _, nb := range prefix {
					set.add(nb)
				}
				view.Reset(s)
				c = view.Edges()
				bounded := &fedRuns{top: rma.MakeDPtr(rma.Rank(sel%3), uint64(sel)%80)}
				listed, partErr := harvestRuns(&c, view.EdgeCap(), mask, &set, nil, bounded, fuzzFar)
				restErr := bounded.raiseTo(maxDPtr, &set)
				set.dropAll(prefix)
				keys := setKeys(t, &set)
				if err := cmp.Or(partErr, restErr); len(listed) != 0 || !slices.Equal(keys, fed) || err == nil && len(bounded.paused) != 0 || fmt.Sprint(err) != fmt.Sprint(fedErr) {
					t.Fatalf("mask %#x, fed up to %v, then to no bound, stream % x:\nlisted %v, keys %v, %d paused, %v\nwant   none, %v, %v",
						mask, bounded.top, s, listed, keys, len(bounded.paused), err, fed, fedErr)
				}
				set.clear()
				checkSetEmpty(t, &set)
			}
		}
	})
}

// bytesTrimZeros is b without its trailing zero bytes: a holder stream
// without its block padding.
func bytesTrimZeros(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return b
}

// TestFrontierScratchReleaseDropsEveryPointer: a pooled frontier arena that
// served a wide expansion — stream reads and handles both — then a
// one-vertex hop in the next transaction, and then, in a third, a LIMIT 1
// final round that fails with runs paused (its smallest candidate is
// write-held, so the transaction turns critical) points into none of the
// hops' streams and holds no handle once released, although release clears
// only what the last hop left: every hop empties the slices through reuse,
// which clears what the one before held. The first transaction's results
// are its own: the second's reuse of the arena leaves them as they were.
func TestFrontierScratchReleaseDropsEveryPointer(t *testing.T) {
	e := NewEngine(rma.New(2), Config{BlockSize: 64, BlocksPerRank: 1 << 10, LockTries: 64, CacheCapacity: 256})
	pt := payloadPType(t, e)
	mark, err := e.DefineLabel("Marked")
	if err != nil {
		t.Fatal(err)
	}
	var heads []fabric.DPtr
	for app := range uint64(40) {
		heads = append(heads, seedPayloadVertex(t, e, app, pt, 8))
	}
	seed := e.StartLocal(0, ReadWrite)
	for i := 1; i < len(heads); i++ {
		if _, err := seed.CreateEdge(heads[i], heads[i/2], holder.DirOut, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The hub of the LIMIT round: one ascending run over every head.
	hub, err := seed.CreateVertex(uint64(len(heads)))
	if err != nil {
		t.Fatal(err)
	}
	sorted := slices.Sorted(slices.Values(heads))
	for _, dp := range sorted {
		if _, err := seed.CreateEdge(hub, dp, holder.DirOut, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// hop runs one expansion of frontier on rank 1, whose holders are on
	// rank 0, in a read-write transaction that first holds handles of the
	// frontier's held vertices and writes one of them, so those go through
	// their handles and the rest are read.
	hop := func(frontier []fabric.DPtr, held int) (sc *frontierScratch, matched, next []fabric.DPtr) {
		tx := e.StartLocal(1, ReadWrite)
		defer tx.Abort()
		hs, err := tx.AssociateVertices(frontier[:held])
		if err != nil {
			t.Fatal(err)
		}
		if err := hs[0].AddLabel(mark); err != nil {
			t.Fatal(err)
		}
		if matched, next, err = tx.ExpandFrontier(frontier, MaskAll, nil); err != nil {
			t.Fatal(err)
		}
		checkHarvest(t, tx, MaskAll, matched, next)
		sc = tx.frontier
		for i := range sc.verts {
			if (sc.verts[i].h != nil) != (i < held) {
				t.Fatalf("vertex %d of %d: handle %v, want one for the first %d", i, len(frontier), sc.verts[i].h != nil, held)
			}
		}
		return sc, matched, next
	}
	wide, matchedA, nextA := hop(heads, 4)
	keptM, keptN := slices.Clone(matchedA), slices.Clone(nextA)
	if len(wide.items) == 0 || len(wide.fetched) == 0 {
		t.Fatalf("the wide hop read %d items, %d blocks off the wire", len(wide.items), len(wide.fetched))
	}
	narrow, _, _ := hop(heads[len(heads)-1:], 1)
	if narrow != wide {
		t.Fatal("the second transaction did not reuse the pooled arena")
	}
	if !slices.Equal(matchedA, keptM) || !slices.Equal(nextA, keptN) {
		t.Fatal("the first transaction's results changed when the next one reused the arena")
	}

	word := wordAt(e, sorted[0])
	if err := word.TryAcquireWrite(0, 64); err != nil {
		t.Fatal(err)
	}
	tx := e.StartLocal(1, ReadOnly)
	if _, _, err := tx.FilterNeighbors([]fabric.DPtr{hub}, nil, MaskOut, nil, nil, 1, 0); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("a LIMIT round whose smallest candidate is write-held: %v", err)
	}
	if tx.frontier != wide || len(wide.fed.paused) == 0 {
		t.Fatalf("the failed LIMIT round left %d runs paused in the pooled arena (%v), want some", len(wide.fed.paused), tx.frontier == wide)
	}
	tx.Abort()
	word.ReleaseWrite(0)
	if len(e.frontiers) != 1 {
		t.Fatalf("%d arenas pooled, want the one", len(e.frontiers))
	}
	sc := <-e.frontiers
	for i, v := range sc.verts[:cap(sc.verts)] {
		if v.h != nil {
			t.Fatalf("vertex %d keeps its handle after release", i)
		}
	}
	for i, it := range sc.items[:cap(sc.items)] {
		if it.buf != nil || it.want != nil {
			t.Fatalf("item %d keeps its stream after release", i)
		}
	}
	for i, rd := range sc.reads[:cap(sc.reads)] {
		if rd.Buf != nil {
			t.Fatalf("read %d keeps its block after release", i)
		}
	}
	for i, f := range sc.fetched[:cap(sc.fetched)] {
		if f.Buf != nil {
			t.Fatalf("fetched read %d keeps its block after release", i)
		}
	}
	for i, b := range sc.bufs[:cap(sc.bufs)] {
		if b != nil {
			t.Fatalf("buffer %d kept after release", i)
		}
	}
	if !reflect.ValueOf(sc.view).IsZero() {
		t.Fatal("the view keeps its stream after release")
	}
	for i, c := range sc.fed.paused[:cap(sc.fed.paused)] {
		if !reflect.ValueOf(c).IsZero() {
			t.Fatalf("paused run %d keeps its stream after release", i)
		}
	}
}
