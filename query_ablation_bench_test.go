package gdi_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/query"
)

// BenchmarkQueryAblation measures what the declarative layer buys: the same
// 2-hop friend-of-friend pattern (age predicate on the final hop, a LIMIT,
// an age projection) executed through the compiled frontier-batched plan —
// each hop associates its whole frontier in one GET train per owner rank —
// against the naive per-vertex AssociateVertex walk that pays one scalar
// round trip per frontier vertex. At 1µs injected remote latency the train
// count is the whole game, so the block cache stays off: the wire is what
// gets measured. The graph is a uniform ring with chords — every holder
// fits one block, so the compiled plan's train count is exactly the
// one-per-owner-rank-per-hop contract, which both variants assert on a
// probe query before the timed loop.
func BenchmarkQueryAblation(b *testing.B) {
	const (
		ranks       = 8
		numVertices = 4096
		fan         = 24 // out-degree; chords ±1..fan spread hops over all ranks
		qPerRank    = 4
		rootPool    = 64
		ageOver     = 30
		limit       = 20
	)
	run := func(b *testing.B, naive bool) {
		rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
		db := rt.CreateDatabase(gdi.DatabaseParams{
			BlockSize:     1024, // fan in+out edges plus the age prop, one block
			BlocksPerRank: 1 << 13,
		})
		age, err := db.DefinePType("age", gdi.PTypeSpec{
			Datatype: gdi.TypeUint64, SizeType: gdi.SizeFixed, Limit: 8})
		if err != nil {
			b.Fatal(err)
		}
		var loadErr error
		rt.Run(db, func(p *gdi.Process) {
			var vs []gdi.VertexSpec
			var es []gdi.EdgeSpec
			if p.Rank() == 0 {
				for app := uint64(0); app < numVertices; app++ {
					vs = append(vs, gdi.VertexSpec{
						AppID: app,
						Props: []gdi.Property{{PType: age, Value: gdi.Uint64Value(app * 7 % 100)}},
					})
					// Chord steps 1..fan: successive neighbors land on
					// successive ranks, so every hop's frontier spans all
					// owner ranks.
					for k := 1; k <= fan; k++ {
						es = append(es, gdi.EdgeSpec{
							OriginApp: app,
							TargetApp: (app + uint64(k)) % numVertices,
							Dir:       gdi.DirOut,
						})
					}
				}
			}
			if err := p.BulkLoadVertices(vs); err != nil {
				loadErr = err
				return
			}
			if err := p.BulkLoadEdges(es); err != nil {
				loadErr = err
			}
		})
		if loadErr != nil {
			b.Fatal(loadErr)
		}
		cons := constraint.New(db.Engine().Registry(0))
		sub := cons.AddSubconstraint(constraint.Subconstraint{})
		cons.AddPropCond(sub, constraint.PropCond{
			PType:    age,
			Datatype: gdi.TypeUint64,
			Op:       constraint.OpGe,
			Operand:  gdi.Uint64Value(ageOver),
		})
		pattern := &query.Pattern{
			Kind: query.KHop,
			Hops: []query.Hop{
				{Mask: gdi.MaskAll},
				{Mask: gdi.MaskAll, Cons: cons},
			},
			Limit:      limit,
			Project:    age,
			HasProject: true,
		}
		roots := make([]gdi.VertexID, rootPool)
		{
			tx := db.Process(0).StartTransaction(gdi.ReadOnly)
			rng := rand.New(rand.NewSource(17))
			for j := range roots {
				if roots[j], err = tx.TranslateVertexID(rng.Uint64() % numVertices); err != nil {
					b.Fatal(err)
				}
			}
			tx.Commit()
		}
		runQuery := func(p *gdi.Process, root gdi.VertexID) (int, error) {
			tx := p.StartTransaction(gdi.ReadOnly)
			defer tx.Abort()
			var res *query.Result
			var err error
			if naive {
				res, err = query.RunNaive(tx, root, pattern)
			} else {
				res, err = query.Run(tx, root, pattern)
			}
			if err != nil {
				return 0, err
			}
			if err := tx.Commit(); err != nil {
				return 0, err
			}
			return len(res.Rows), nil
		}

		// The train contract, pinned before the clock starts: the compiled
		// plan associates each hop's frontier in one vectored GET train per
		// owner rank — at most hops+1 association rounds of at most ranks-1
		// remote trains each — while the naive walk never batches (every
		// remote fetch is a scalar get, so GetBatches stays 0).
		fab := db.Engine().Fabric()
		fab.ResetCounters()
		if _, err := runQuery(db.Process(0), roots[0]); err != nil {
			b.Fatal(err)
		}
		probe := fab.TotalSnapshot()
		if naive {
			if probe.GetBatches != 0 {
				b.Fatalf("naive walk issued %d GET trains, want 0 (scalar gets only)", probe.GetBatches)
			}
			if probe.RemoteGets == 0 {
				b.Fatal("naive walk issued no remote gets — nothing to measure")
			}
		} else {
			maxTrains := int64(len(pattern.Hops)+1) * (ranks - 1)
			if probe.GetBatches == 0 {
				b.Fatal("compiled plan issued no GET trains — the batch path did not engage")
			}
			if probe.GetBatches > maxTrains {
				b.Fatalf("compiled plan issued %d GET trains, want <= %d (one per owner rank per hop)",
					probe.GetBatches, maxTrains)
			}
		}

		var rows atomic.Int64
		fab.ResetCounters()
		b.ResetTimer()
		start := time.Now()
		for it := 0; it < b.N; it++ {
			rt.Run(db, func(p *gdi.Process) {
				base := (it*ranks + int(p.Rank())) * qPerRank
				for q := 0; q < qPerRank; q++ {
					n, err := runQuery(p, roots[(base+q)%rootPool])
					if err != nil {
						b.Error(err)
						return
					}
					rows.Add(int64(n))
				}
			})
		}
		b.StopTimer()
		queries := float64(b.N) * ranks * qPerRank
		snap := fab.TotalSnapshot()
		b.ReportMetric(queries/time.Since(start).Seconds(), "queries/s")
		b.ReportMetric(float64(snap.GetBatches)/queries, "trains/op")
		b.ReportMetric(float64(snap.RemoteGets)/queries, "gets/op")
		if rows.Load() == 0 {
			b.Fatal("no 2-hop rows matched — the predicate filtered everything")
		}
	}
	b.Run("naive", func(b *testing.B) { run(b, true) })
	b.Run("compiled", func(b *testing.B) { run(b, false) })
}
