package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// writeFixture is two committed vertices, a on rank 0 and b on rank 1, each
// with props string properties and degree out-edges to leaves of their own
// on its rank, created in order, so that each record's delta takes a byte:
// at 1 KiB blocks, each holder is one block at degree 8 and at degree 512.
// With htap the engine runs with HTAP snapshots on, and no cut pinned.
type writeFixture struct {
	e     *Engine
	a, b  fabric.DPtr
	first lpg.PTypeID // the first of the property types
}

func newWriteFixture(t *testing.T, props, degree int, htap bool) writeFixture {
	t.Helper()
	e := NewEngine(rma.New(2), Config{BlockSize: 1024, BlocksPerRank: 1 << 12, LockTries: 256, CacheCapacity: 512, HTAPSnapshots: htap})
	var pts []lpg.PTypeID
	for i := range props {
		pt, err := e.DefinePType(fmt.Sprint("p", i), metadata.PTypeSpec{Datatype: lpg.TypeString})
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
	}
	tx := e.StartLocal(0, ReadWrite)
	vertex := func(app uint64) fabric.DPtr {
		dp, err := tx.CreateVertex(app)
		if err != nil {
			t.Fatal(err)
		}
		return dp
	}
	f := writeFixture{e: e, a: vertex(0), b: vertex(1), first: pts[0]}
	for i, dp := range []fabric.DPtr{f.a, f.b} {
		h, _ := tx.AssociateVertex(dp)
		for _, pt := range pts {
			if err := h.AddProperty(pt, []byte("a sixteen b value")); err != nil {
				t.Fatal(err)
			}
		}
		for app := uint64(1000 * (i + 1)); h.Degree() < degree; app++ {
			if e.OwnerOf(app) != dp.Rank() {
				continue
			}
			if _, err := tx.CreateEdge(dp, vertex(app), holder.DirOut, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return f
}

// blocks returns the block count of dp's holder.
func (f writeFixture) blocks(dp fabric.DPtr) int {
	head := make([]byte, 1024)
	f.e.Store().ReadBlock(dp.Rank(), dp, head)
	return holder.NumBlocks(head)
}

// commitAllocs runs op from rank 0 in a transaction that commits, n times
// after a warm-up, each followed by restore in one more, and returns the
// fewest objects and bytes one op allocated: a collection during an op can
// only add to them, by refilling the pools it emptied.
func commitAllocs(t *testing.T, e *Engine, n int, op, restore func(tx *Tx) error) (objects, bytes uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	commit := func(f func(*Tx) error) {
		tx := e.StartLocal(0, ReadWrite)
		err := f(tx)
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	objects, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := range n + 1 {
		runtime.ReadMemStats(&before)
		commit(op)
		runtime.ReadMemStats(&after)
		if i > 0 {
			objects = min(objects, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		if restore != nil {
			commit(restore)
		}
	}
	return objects, bytes
}

// TestWriteCommitAllocsIndependentOfContent is the count contract of the
// write path: a write decodes only what it changes. An AddEdge commit
// between two clean vertices (a remote endpoint among them) allocates the
// same number of objects whether they carry 1 property or 13, so no
// property is decoded; it and a SetProperty commit allocate the same
// objects at degree 8 as at degree 512, and the same bytes but for what
// rank 0's block cache keeps of the remote endpoint's block (its content
// without the slack, which grows with the degree), so no record is decoded.
// The holders keep one block at both degrees, since reading, caching and
// writing a block costs allocations of its own whatever the write decodes.
// Each AddEdge is undone by a DeleteEdge before the next, and no measured
// commit grows a chain. With HTAP snapshots on and no cut pinned, an AddEdge
// commit allocates exactly what it does with them off, at both degrees: the
// snapshot subsystem adds nothing to a write while no cut is open. At
// degree 8 an AddEdge commit allocates at most 45 objects, a SetProperty
// commit at most 20.
func TestWriteCommitAllocsIndependentOfContent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	type result struct {
		objects, bytes uint64
		blocks         int
		cached         int // the content bytes of the remote endpoint's block
	}
	measure := func(props, degree int, setProperty, htap bool) result {
		f := newWriteFixture(t, props, degree, htap)
		ends := []fabric.DPtr{f.a, f.b}
		var uid holder.EdgeUID
		op := func(tx *Tx) (err error) {
			uid, err = tx.CreateEdge(f.a, f.b, holder.DirOut, 0)
			return err
		}
		restore := func(tx *Tx) error { return tx.DeleteEdge(uid) }
		if setProperty {
			ends, restore = ends[:1], nil
			flip := false
			op = func(tx *Tx) error {
				h, err := tx.AssociateVertex(f.a)
				if err != nil {
					return err
				}
				flip = !flip
				value := "a sixteen b value"
				if flip {
					value = "changed 17 bytes!"
				}
				return h.SetProperty(f.first, []byte(value))
			}
		}
		var r result
		for _, dp := range ends {
			r.blocks += f.blocks(dp)
			if dp.Rank() != 0 {
				head := make([]byte, 1024)
				f.e.Store().ReadBlock(dp.Rank(), dp, head)
				r.cached = len(bytes.TrimRight(head, "\x00"))
			}
		}
		r.objects, r.bytes = commitAllocs(t, f.e, 20, op, restore)
		grown := 0
		for _, dp := range ends {
			grown += f.blocks(dp)
		}
		if grown != r.blocks {
			t.Fatalf("the measured commits grew the chains from %d to %d blocks", r.blocks, grown)
		}
		return r
	}
	one, thirteen := measure(1, 8, false, false), measure(13, 8, false, false)
	t.Logf("AddEdge, 1 vs 13 properties: %d vs %d objects", one.objects, thirteen.objects)
	if one.objects != thirteen.objects {
		t.Errorf("an AddEdge commit allocates %d objects between vertices with 1 property, %d with 13", one.objects, thirteen.objects)
	}
	for _, setProperty := range []bool{false, true} {
		name := map[bool]string{false: "AddEdge", true: "SetProperty"}[setProperty]
		bound := map[bool]uint64{false: 45, true: 20}[setProperty]
		low, high := measure(13, 8, setProperty, false), measure(13, 512, setProperty, false)
		t.Logf("%s, degree 8 vs 512: %d vs %d objects, %d vs %d bytes", name, low.objects, high.objects, low.bytes, high.bytes)
		if low.objects > bound {
			t.Errorf("a %s commit at degree 8 allocates %d objects, want at most %d", name, low.objects, bound)
		}
		if low.blocks != high.blocks {
			t.Fatalf("%s: the holders take %d blocks at degree 8, %d at degree 512", name, low.blocks, high.blocks)
		}
		// The cache's copy may also move up a size class, at most 128 bytes
		// at these sizes.
		if low.objects != high.objects || high.bytes > low.bytes+uint64(high.cached-low.cached+128) {
			t.Errorf("a %s commit allocates %d objects, %d bytes at degree 8, and %d objects, %d bytes at degree 512; the cached block grew %d bytes",
				name, low.objects, low.bytes, high.objects, high.bytes, high.cached-low.cached)
		}
	}
	for _, degree := range []int{8, 512} {
		off, on := measure(13, degree, false, false), measure(13, degree, false, true)
		t.Logf("AddEdge at degree %d, HTAP off vs on: %d vs %d objects, %d vs %d bytes", degree, off.objects, on.objects, off.bytes, on.bytes)
		if off.objects != on.objects || off.bytes != on.bytes {
			t.Errorf("at degree %d an AddEdge commit allocates %d objects, %d bytes with HTAP snapshots off, and %d objects, %d bytes with them on",
				degree, off.objects, off.bytes, on.objects, on.bytes)
		}
	}
}
