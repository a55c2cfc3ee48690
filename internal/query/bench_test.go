package query_test

import (
	"math/rand"
	"sync"
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/query"
	"github.com/gdi-go/gdi/internal/workload"
)

// khopFixture is BenchmarkKHopLimit's graph: the gdi-ldbc graph at scale 13
// (edge factor 16) over 4 ranks at zero latency, loaded once per test
// binary, with its friends pattern and a fixed pool of roots.
type khopFixture struct {
	db      *gdi.Database
	pattern *query.Pattern
	roots   []fabric.DPtr
	records []int // per root: the edge records the final round harvests
}

var (
	khopOnce  sync.Once
	khopFix   *khopFixture
	khopSetup error
)

// khopRoots is the size of the root pool.
const khopRoots = 256

func loadKHopFixture() (*khopFixture, error) {
	const ranks = 4
	cfg := kron.Config{Scale: 13, EdgeFactor: 16, Seed: 1, NumLabels: 20, NumProps: 13}.WithDefaults()
	rt := gdi.Init(ranks)
	buckets, entries := workload.IndexSizing(cfg, ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:           512,
		BlocksPerRank:       int((cfg.NumVertices()*10+cfg.NumEdges()*2)/ranks) + (1 << 13),
		IndexBucketsPerRank: buckets,
		IndexEntriesPerRank: entries,
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		return nil, err
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		return nil, err
	}
	// The friends query of the ldbc mix: both directions twice, age ≥ 30 at
	// the last hop, LIMIT 20, the age projected.
	cons := constraint.New(db.Engine().Registry(0))
	cons.AddPropCond(cons.AddSubconstraint(constraint.Subconstraint{}), constraint.PropCond{
		PType: sch.AgeProp, Datatype: gdi.TypeUint64, Op: constraint.OpGe, Operand: gdi.Uint64Value(30)})
	f := &khopFixture{db: db, pattern: &query.Pattern{
		Kind:       query.KHop,
		Hops:       []query.Hop{{Mask: gdi.MaskAll}, {Mask: gdi.MaskAll, Cons: cons}},
		Limit:      20,
		Project:    sch.AgeProp,
		HasProject: true,
	}}
	tx := db.Process(0).StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	rng := rand.New(rand.NewSource(1))
	for len(f.roots) < khopRoots {
		id, err := tx.TranslateVertexID(rng.Uint64() % cfg.NumVertices())
		if err != nil {
			return nil, err
		}
		// The final round reads the root's neighbors and harvests theirs.
		_, layer, err := tx.ExpandFrontier([]fabric.DPtr{id}, gdi.MaskAll, nil)
		if err != nil {
			return nil, err
		}
		records := 0
		for _, nb := range layer {
			if nb == id {
				continue
			}
			h, err := tx.AssociateVertex(nb)
			if err != nil {
				return nil, err
			}
			if err := h.ForEachNeighbor(gdi.MaskAll, func(fabric.DPtr) { records++ }); err != nil {
				return nil, err
			}
		}
		f.roots, f.records = append(f.roots, id), append(f.records, records)
	}
	return f, nil
}

// BenchmarkKHopLimit runs the ldbc mix's friends query — a 2-hop k-hop
// under MaskAll with age ≥ 30 at the last hop, LIMIT 20 and a projection —
// in a read-only transaction of its own per query, rooted in turn at each
// of a fixed pool of 256 vertices of a scale-13, 4-rank graph at zero
// latency, from rank 0. Besides ns/op, B/op and allocs/op it reports
// records/op, the edge records of the layer the query's final round
// harvests, decoded/op, those of them the round decoded
// (core.Tx.DecodedRecords), and rows/op.
func BenchmarkKHopLimit(b *testing.B) {
	khopOnce.Do(func() { khopFix, khopSetup = loadKHopFixture() })
	if khopSetup != nil {
		b.Fatal(khopSetup)
	}
	f := khopFix
	p := f.db.Process(0)
	records, decoded, rows := 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		k := i % len(f.roots)
		tx := p.StartTransaction(gdi.ReadOnly)
		res, err := query.Run(tx, f.roots[k], f.pattern)
		decoded += tx.DecodedRecords()
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err != nil {
			b.Fatal(err)
		}
		records += f.records[k]
		rows += len(res.Rows)
	}
	b.ReportMetric(float64(records)/float64(b.N), "records/op")
	b.ReportMetric(float64(decoded)/float64(b.N), "decoded/op")
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}
