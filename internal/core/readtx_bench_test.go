package core

import (
	"fmt"
	"math/rand"
	"slices"
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
// every block in the validated cache. Every center is built through
// CreateEdge, which keeps insertion order, so none has the sorted runs a
// bulk load lays out. Those centers link to the leaf pool in creation
// order, which places the leaves on the 4 ranks in turn: each delta crosses
// a rank and takes 8 bytes. The shuffled center links to the same 11 192
// leaves in a random order, so its deltas vary in length and a quarter stay
// within a rank.
//
//	go test -run '^$' -bench BenchmarkReadOnlyTx -benchmem ./internal/core/
func BenchmarkReadOnlyTx(b *testing.B) {
	type center struct {
		degree   int
		shuffled bool
	}
	centers := []center{{8, false}, {93, false}, {3571, false}, {11192, false}, {11192, true}}
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
	leaves := make([]fabric.DPtr, 11192)
	seed := e.StartLocal(0, ReadWrite)
	for i := range leaves {
		if leaves[i], err = seed.CreateVertex(uint64(1000 + i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		b.Fatal(err)
	}
	dps := make([]fabric.DPtr, len(centers))
	for k, c := range centers {
		linked := leaves[:c.degree]
		if c.shuffled {
			linked = slices.Clone(linked)
			rand.New(rand.NewSource(1)).Shuffle(len(linked), func(i, j int) { linked[i], linked[j] = linked[j], linked[i] })
		}
		tx := e.StartLocal(0, ReadWrite)
		if dps[k], err = tx.CreateVertex(uint64(k)); err == nil {
			var h *VertexHandle
			if h, err = tx.AssociateVertex(dps[k]); err == nil {
				err = h.SetProperty(pt, payloadPattern(uint64(k), 4))
			}
		}
		for _, leaf := range linked {
			if err == nil {
				_, err = tx.CreateEdge(dps[k], leaf, holder.DirOut, 0)
			}
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			b.Fatal(err)
		}
	}

	for k, c := range centers {
		center, d := dps[k], c.degree
		name := fmt.Sprint("degree=", d)
		if c.shuffled {
			name += "-shuffled"
		}
		for _, where := range []struct {
			name   string
			origin fabric.Rank
		}{{"local", center.Rank()}, {"cached-remote", (center.Rank() + 1) % 4}} {
			for _, read := range []string{"Property", "Edges"} {
				b.Run(fmt.Sprintf("%s/%s/%s", name, where.name, read), func(b *testing.B) {
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
						} else if infos, err := h.Edges(MaskAll, nil); err != nil || infos.Len() != d {
							b.Fatalf("Edges = %d edges, %v; want %d", infos.Len(), err, d)
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
