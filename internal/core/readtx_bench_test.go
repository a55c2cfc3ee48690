package core

import (
	"fmt"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// BenchmarkReadOnlyTx is the "tx point read" rung: a read-only transaction
// that translates a warm application ID, associates the vertex, reads one
// property or its edges, and commits, on 4 simulated ranks with 512-byte
// blocks and no injected latency. The degrees are the median, p90 and p95
// request degrees of the oltp-rm workload and a small vertex; each is read
// on its own rank (every block from the pool) and from another rank, with
// every block in the validated cache.
//
//	go test -run '^$' -bench BenchmarkReadOnlyTx -benchmem ./internal/core/
func BenchmarkReadOnlyTx(b *testing.B) {
	degrees := []int{8, 93, 3571, 11192}
	e := NewEngine(rma.New(4), Config{
		BlockSize:     512,
		BlocksPerRank: 1 << 13,
		LockTries:     256,
		CacheCapacity: 1 << 12,
	})
	pt, err := e.DefinePType("payload", metadata.PTypeSpec{Datatype: lpg.TypeBytes})
	if err != nil {
		b.Fatal(err)
	}
	// One leaf pool serves every center; leaf i is a neighbour of every
	// center of degree > i.
	leaves := make([]fabric.DPtr, degrees[len(degrees)-1])
	seed := e.StartLocal(0, ReadWrite)
	for i := range leaves {
		if leaves[i], err = seed.CreateVertex(uint64(1000 + i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		b.Fatal(err)
	}
	centers := make([]fabric.DPtr, len(degrees))
	for k, d := range degrees {
		tx := e.StartLocal(0, ReadWrite)
		if centers[k], err = tx.CreateVertex(uint64(k)); err == nil {
			var h *VertexHandle
			if h, err = tx.AssociateVertex(centers[k]); err == nil {
				err = h.SetProperty(pt, payloadPattern(uint64(k), 4))
			}
		}
		for _, leaf := range leaves[:d] {
			if err == nil {
				_, err = tx.CreateEdge(centers[k], leaf, holder.DirOut, 0)
			}
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			b.Fatal(err)
		}
	}

	for k, d := range degrees {
		center := centers[k]
		for _, where := range []struct {
			name   string
			origin fabric.Rank
		}{{"local", center.Rank()}, {"cached-remote", (center.Rank() + 1) % 4}} {
			for _, read := range []string{"Property", "Edges"} {
				b.Run(fmt.Sprintf("degree=%d/%s/%s", d, where.name, read), func(b *testing.B) {
					op := func() {
						tx := e.StartLocal(where.origin, ReadOnly)
						dp, err := tx.TranslateVertexID(uint64(k))
						if err != nil {
							b.Fatal(err)
						}
						h, err := tx.AssociateVertex(dp)
						if err != nil {
							b.Fatal(err)
						}
						if read == "Property" {
							if _, ok := h.Property(pt); !ok {
								b.Fatal("no property")
							}
						} else if infos, err := h.Edges(MaskAll, nil); err != nil || len(infos) != d {
							b.Fatalf("Edges = %d edges, %v; want %d", len(infos), err, d)
						}
						if err := tx.Commit(); err != nil {
							b.Fatal(err)
						}
					}
					op() // warms the translation and block caches
					b.ReportAllocs()
					b.ResetTimer()
					for range b.N {
						op()
					}
				})
			}
		}
	}
}
