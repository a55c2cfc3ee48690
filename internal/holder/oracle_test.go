package holder

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/lpg"
)

// forEachEdgeRun is the oracle EdgeCursor is checked against: a plain
// callback decoder of the run format on binary.Uvarint/Varint. It parses an
// edge region in place, calling fn for each of the numEdges records in order
// until fn returns false, and returns how many bytes of the region it
// decoded — the whole region after a full walk, only the prefix an early
// stop needed. It never panics on corrupt input; records ahead of the
// corruption have been yielded by the time it is found.
func forEachEdgeRun(buf []byte, numEdges int, fn func(EdgeRec) bool) (consumed int, err error) {
	off, decoded := 0, 0
	for decoded < numEdges {
		hdr, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return off, fmt.Errorf("holder: malformed run header at offset %d", off)
		}
		off += n
		count := int(hdr >> 3)
		if count <= 0 || count > numEdges-decoded {
			return off, fmt.Errorf("holder: run of %d records, %d remaining", count, numEdges-decoded)
		}
		dir := Direction(hdr & 0x3)
		if dir > DirUndirected {
			return off, fmt.Errorf("holder: run with direction %d", dir)
		}
		heavy := hdr&(1<<2) != 0
		label, n := binary.Uvarint(buf[off:])
		if n <= 0 || label > math.MaxUint32 {
			return off, fmt.Errorf("holder: malformed run label at offset %d", off)
		}
		off += n
		first, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return off, fmt.Errorf("holder: malformed neighbor at offset %d", off)
		}
		off += n
		nbr := first
		for k := 0; k < count; k++ {
			if k > 0 {
				delta, n := binary.Varint(buf[off:])
				if n <= 0 {
					return off, fmt.Errorf("holder: malformed delta at offset %d", off)
				}
				off += n
				nbr = uint64(int64(nbr) + delta)
			}
			if !fn(EdgeRec{
				Neighbor: fabric.DPtr(nbr),
				Dir:      dir,
				Heavy:    heavy,
				Label:    lpg.LabelID(label),
			}) {
				return off, nil
			}
		}
		decoded += count
	}
	return off, nil
}

// regionView is a View over a bare edge region of n records: the cursor on
// arbitrary bytes, with no holder around them.
func regionView(region []byte, n int) *View {
	return &View{buf: region, numEdges: n}
}

// cursorWalk decodes w's records through its cursor, stopping after stop of
// them when stop > 0, and returns them with the bytes of the region decoded.
func cursorWalk(w *View, stop int) ([]EdgeRec, int) {
	var got []EdgeRec
	c := w.Edges()
	for (stop <= 0 || len(got) < stop) && c.Next() {
		got = append(got, c.Rec)
	}
	return got, c.off
}

// oracleWalk is cursorWalk through forEachEdgeRun.
func oracleWalk(region []byte, n, stop int) ([]EdgeRec, int, error) {
	var got []EdgeRec
	consumed, err := forEachEdgeRun(region, n, func(rec EdgeRec) bool {
		got = append(got, rec)
		return stop <= 0 || len(got) < stop
	})
	return got, consumed, err
}

// runWalk decodes w's records a run at a time — NextRun, then StepRun into
// a buffer of chunk neighbors until the run ends — and returns them, the
// index of each run's first record, and the bytes of the region decoded.
func runWalk(w *View, chunk int) (recs []EdgeRec, heads []int, off int) {
	nbrs := make([]fabric.DPtr, chunk)
	c := w.Edges()
	for c.NextRun() {
		heads = append(heads, len(recs))
		recs = append(recs, c.Rec)
		for n := c.StepRun(nbrs); n > 0; n = c.StepRun(nbrs) {
			for _, nb := range nbrs[:n] {
				rec := c.Rec
				rec.Neighbor = nb
				recs = append(recs, rec)
			}
		}
	}
	return recs, heads, c.off
}

// headWalk visits only the first record of each run, leaving NextRun to step
// over the rest.
func headWalk(w *View) (heads []EdgeRec, off int) {
	c := w.Edges()
	for c.NextRun() {
		heads = append(heads, c.Rec)
	}
	return heads, c.off
}

// sameWalk checks the cursor against the oracle over one region: the same
// records, an error from both or from neither, and — when neither failed —
// the same bytes decoded. A full walk (stop ≤ 0) is also made a run at a
// time at three buffer sizes, and over run heads alone, which must meet
// the same corruption and yield the first record of every run the run
// walk yields.
func sameWalk(t *testing.T, region []byte, n, stop int) {
	t.Helper()
	want, wantOff, wantErr := oracleWalk(region, n, stop)
	same := func(how string, w *View, got []EdgeRec, off int) {
		t.Helper()
		sameRecords(t, got, want)
		if (w.Err() == nil) != (wantErr == nil) {
			t.Fatalf("%d records, %s: cursor error %v, oracle error %v", n, how, w.Err(), wantErr)
		}
		if wantErr == nil && off != wantOff {
			t.Fatalf("%d records, %s: cursor decoded %d bytes, oracle %d", n, how, off, wantOff)
		}
	}
	w := regionView(region, n)
	got, off := cursorWalk(w, stop)
	same(fmt.Sprintf("stop %d", stop), w, got, off)
	if stop > 0 {
		return
	}
	var heads []int
	for _, chunk := range []int{1, 3, 64} {
		w = regionView(region, n)
		got, heads, off = runWalk(w, chunk)
		same(fmt.Sprintf("runs in chunks of %d", chunk), w, got, off)
	}
	w = regionView(region, n)
	gotHeads, off := headWalk(w)
	if (w.Err() == nil) != (wantErr == nil) || (wantErr == nil && off != wantOff) {
		t.Fatalf("%d records, run heads: error %v after %d bytes, oracle error %v after %d", n, w.Err(), off, wantErr, wantOff)
	}
	if len(gotHeads) != len(heads) {
		t.Fatalf("%d records: %d run heads, the run walk met %d", n, len(gotHeads), len(heads))
	}
	for i, h := range gotHeads {
		if h != got[heads[i]] {
			t.Fatalf("run %d: head %+v, the run walk's %+v", i, h, got[heads[i]])
		}
	}
}

// sameBoundWalk checks StepUpTo against the run walk over one region: each
// run is walked up to top into a buffer of chunk neighbors and, where it
// stops above top, its head and the rest are walked through RestOfRun. The
// records met must be the run walk's, in order, and those met below the
// bound exactly the ones ahead of the first neighbor above top in their run
// (a filtered walk). A stopped run is the last (LastRun) when the run walk
// meets no other after it. Corruption must end both walks or neither, and a
// resumed cursor records what it meets on itself, never on the view.
func sameBoundWalk(t *testing.T, region []byte, n int, top fabric.DPtr, chunk int) {
	t.Helper()
	w := regionView(region, n)
	want, heads, _ := runWalk(w, 64)
	wantErr := w.Err()
	var below []bool
	for i := range want {
		below = append(below, want[i].Neighbor <= top && (slices.Contains(heads, i) || below[i-1]))
	}

	w = regionView(region, n)
	var got []EdgeRec
	var gotBelow []bool
	var restErr error
	nbrs := make([]fabric.DPtr, chunk)
	met := func(rec EdgeRec, nb fabric.DPtr, under bool) {
		rec.Neighbor = nb
		got, gotBelow = append(got, rec), append(gotBelow, under)
	}
	c := w.Edges()
	for runs := 0; c.NextRun(); runs++ {
		run := c.Rec
		if c.Rec.Neighbor > top {
			met(run, c.Rec.Neighbor, false)
		} else {
			met(run, c.Rec.Neighbor, true)
			over := false
			for k := 1; k > 0 && !over; {
				k, over = c.StepUpTo(nbrs, top)
				for _, nb := range nbrs[:k] {
					met(run, nb, true)
				}
			}
			if !over {
				continue
			}
			met(run, c.Rec.Neighbor, false)
		}
		if last := runs == len(heads)-1; c.LastRun() != last && wantErr == nil {
			t.Fatalf("%d records, top %v: run %d of %d stopped, LastRun %v", n, top, runs, len(heads), !last)
		}
		rest, viewErr := c.RestOfRun(), w.err
		w.err = nil
		for k := rest.StepRun(nbrs); k > 0; k = rest.StepRun(nbrs) {
			for _, nb := range nbrs[:k] {
				met(run, nb, false)
			}
		}
		if rest.NextRun() {
			t.Fatalf("%d records, top %v: the rest of a run walked on into another", n, top)
		}
		if w.err != nil {
			t.Fatalf("%d records, top %v: a resumed cursor recorded %v on the view", n, top, w.err)
		}
		w.err, restErr = viewErr, cmp.Or(restErr, rest.Err())
	}
	sameRecords(t, got, want)
	if !slices.Equal(gotBelow, below) {
		t.Fatalf("%d records, top %v, chunk %d: met below the bound %v, want %v", n, top, chunk, gotBelow, below)
	}
	if gotErr := cmp.Or(w.Err(), restErr); (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%d records, top %v: bounded walk error %v, run walk error %v", n, top, gotErr, wantErr)
	}
}

// checkRunsAscend fails unless the neighbors of every light run of the
// n-record region ascend: an encoder starts a new run where they would
// descend, and a reader that stops a run at a bound relies on it.
func checkRunsAscend(t *testing.T, region []byte, n int) {
	t.Helper()
	var nbrs [16]fabric.DPtr
	w := regionView(region, n)
	c := w.Edges()
	for c.NextRun() {
		if c.Rec.Heavy {
			continue
		}
		prev := c.Rec.Neighbor
		for k := c.StepRun(nbrs[:]); k > 0; k = c.StepRun(nbrs[:]) {
			for _, nb := range nbrs[:k] {
				if nb < prev {
					t.Fatalf("a light run descends from %v to %v", prev, nb)
				}
				prev = nb
			}
		}
	}
	if err := w.Err(); err != nil {
		t.Fatalf("walking an encoded region: %v", err)
	}
}
