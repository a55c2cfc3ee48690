package analytics

import (
	"encoding/binary"
	"runtime"
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/holder"
)

// TestCSRBuildBoundsCorruptDegree: a vertex holder whose header claims
// 2^32−1 edge records over a stream of a few hundred bytes must fail the CSR
// build with an error, and the build must not size its adjacency array from
// the claimed count (32 GiB of neighbor IDs).
func TestCSRBuildBoundsCorruptDegree(t *testing.T) {
	rt, g := testGraph(t, 1, smallCfg)
	p := g.DB.Process(0)
	store := g.DB.Engine().Store()
	dp := p.LocalVertices()[0]
	head := make([]byte, store.BlockSize())
	store.ReadBlock(0, dp, head)
	binary.LittleEndian.PutUint32(head[4:], 1<<32-1) // the header's edge-record count
	store.WriteBlock(0, dp, head)

	// Degree sizes the array: refuse to build at all if it reports the
	// header's claim.
	tx := p.StartTransaction(gdi.ReadOnly)
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if d, nb := h.Degree(), holder.NumBlocks(head); d > store.BlockSize()*nb {
		t.Fatalf("Degree reports %d records in a %d-block holder", d, nb)
	}
	tx.Abort()

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	before := mem.TotalAlloc
	var buildErr error
	rt.Run(g.DB, func(p *gdi.Process) {
		tx := p.StartCollectiveTransaction(gdi.ReadOnly)
		defer tx.Commit()
		_, buildErr = buildCSR(p, tx)
	})
	runtime.ReadMemStats(&mem)
	if buildErr == nil {
		t.Error("the CSR build over a corrupt holder returned no error")
	}
	if n := mem.TotalAlloc - before; n > 64<<20 {
		t.Errorf("the CSR build allocated %d MiB", n>>20)
	}
}
