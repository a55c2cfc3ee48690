package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/lpg"
)

// TestLimitHopMigrationStress holds the LIMIT hop to the naive walk while
// its last frontier moves. Readers run Run and then RunNaive of a LIMIT
// 2-hop pattern in one read-only transaction; a mover migrates leaves of
// rank 1 to rank 0 and back home again, taking them from the last, so a leaf
// a hop left unread lands below every DPtr it read, where it belongs in the
// rows; halfway through the mover publishes the first stub on rank 2 and
// then on rank 3, so the hops meet stub ranks and stub-free ones in one
// frontier, and ranks that turn from one into the other under them; a writer
// flips leaves' ages. Every transaction that commits must have got the same
// rows from both executors. It runs over a cache that holds every holder and
// over a one-block cache. Run under -race in CI (the read-path stress step).
func TestLimitHopMigrationStress(t *testing.T) {
	for _, cacheBlocks := range []int{1 << 10, 1} {
		t.Run(fmt.Sprintf("cache=%d", cacheBlocks), func(t *testing.T) {
			limitHopMigrationStress(t, storeShape{blockSize: defaultShape.blockSize, cacheBlocks: cacheBlocks})
		})
	}
}

func limitHopMigrationStress(t *testing.T, shape storeShape) {
	const (
		ranks          = 4
		leaves         = 90
		readers        = 2
		readsPerReader = 120
		moves          = 80
		writes         = 120
	)
	// Leaf i lives on rank i%3 + 1.
	leafApp := func(i int) uint64 { return uint64(ranks*(i/3) + i%3 + 1) }
	g := newFanGraph(t, ranks, shape, leafApp, span(0, 30), span(30, 60), span(60, leaves))
	p := &Pattern{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut, Cons: g.ageOver(30)}},
		Limit: 5, Project: g.age, HasProject: true}
	// where translates a leaf's application ID to its current DPtr.
	where := func(app uint64) (fabric.DPtr, error) {
		tx := g.e.StartLocal(0, core.ReadOnly)
		defer tx.Abort()
		return tx.TranslateVertexID(app)
	}

	var (
		wg                   sync.WaitGroup
		mu                   sync.Mutex
		firstErr             error
		committed, discarded int
		migrated             int
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				tx := g.e.StartLocal(fabric.Rank(r), core.ReadOnly)
				got, err := Run(tx, g.src, p)
				var want *Result
				if err == nil {
					want, err = RunNaive(tx, g.src, p)
				}
				if err != nil {
					tx.Abort()
					mu.Lock()
					discarded++
					mu.Unlock()
					continue
				}
				if tx.Commit() != nil {
					mu.Lock()
					discarded++
					mu.Unlock()
					continue
				}
				if !reflect.DeepEqual(got, want) {
					report(fmt.Errorf("a committed transaction's LIMIT hop returned %+v, the naive walk %+v", got.Rows, want.Rows))
					return
				}
				mu.Lock()
				committed++
				mu.Unlock()
			}
		}(r)
	}
	wg.Add(1)
	go func() { // the mover
		defer wg.Done()
		for k := 0; k < moves; k++ {
			// Rank 1's leaves from the last: each lands on rank 0 below
			// every leaf a hop reads first, where it belongs in the rows.
			leaf, home := leaves-3-3*(k%(leaves/3)), fabric.Rank(1)
			switch k {
			case moves / 2:
				leaf, home = 1, 2 // rank 2's first stub
			case 3 * moves / 4:
				leaf, home = 2, 3 // rank 3's first stub
			}
			app := leafBase + leafApp(leaf)
			cur, err := where(app)
			if err != nil {
				continue
			}
			dest := fabric.Rank(0)
			if cur.Rank() == 0 {
				dest = home
			}
			n, err := g.e.MigrateVertices(dest, []core.MigrationMove{{App: app, Old: cur, Dest: dest}})
			if err != nil {
				report(fmt.Errorf("migration of leaf %d to rank %d: %v", leaf, dest, err))
				return
			}
			mu.Lock()
			migrated += n
			mu.Unlock()
		}
	}()
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < writes; k++ {
			leaf := rng.Intn(leaves)
			tx := g.e.StartLocal(fabric.Rank(1+k%3), core.ReadWrite)
			cur, err := tx.TranslateVertexID(leafBase + leafApp(leaf))
			var h *core.VertexHandle
			if err == nil {
				h, err = tx.AssociateVertex(cur)
			}
			if err == nil {
				err = h.SetProperty(g.age, lpg.EncodeUint64(uint64(10+40*(k%2))))
			}
			if err != nil {
				tx.Abort()
				continue
			}
			_ = tx.Commit() // a lost race is a failed commit, not a fault
		}
	}()
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if committed == 0 || migrated == 0 {
		t.Fatalf("%d reader transactions committed and %d leaves migrated: the stress proved nothing", committed, migrated)
	}
	t.Logf("%d reader transactions committed, %d discarded; %d migrations", committed, discarded, migrated)
}
