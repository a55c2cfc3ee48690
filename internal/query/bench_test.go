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

// khopFixture is a graph of the k-hop benchmarks: the gdi-ldbc graph at
// scale 13 (edge factor 16) at zero latency, loaded once per test binary,
// with its friends pattern and a fixed pool of roots.
type khopFixture struct {
	db      *gdi.Database
	pattern *query.Pattern
	roots   []fabric.DPtr
	records []int // per root: the edge records the final round harvests
}

// khopLoad loads a fixture once per test binary.
type khopLoad struct {
	once  sync.Once
	fix   *khopFixture
	setup error
}

// khop4 is BenchmarkKHopLimit's fixture: 4 ranks. khopMany is
// BenchmarkKHopLimitManyRanks': khopManyRanks ranks.
var khop4, khopMany khopLoad

// khopManyRanks spreads the scale-13 graph's 8 192 vertices 64 to a rank,
// over a pool of 128 × 10 880 blocks, past 2^20.
const khopManyRanks = 128

// get loads the fixture over ranks ranks on its first call.
func (l *khopLoad) get(ranks int) (*khopFixture, error) {
	l.once.Do(func() { l.fix, l.setup = loadKHopFixture(ranks) })
	return l.fix, l.setup
}

// khopRoots is the size of the root pool.
const khopRoots = 256

func loadKHopFixture(ranks int) (*khopFixture, error) {
	cfg := kron.Config{Scale: 13, EdgeFactor: 16, Seed: 1, NumLabels: 20, NumProps: 13}.WithDefaults()
	rt := gdi.Init(ranks)
	buckets, entries := workload.IndexSizing(cfg, ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:           512,
		BlocksPerRank:       int(cfg.NumVertices()*10+cfg.NumEdges()*2)/ranks + (1 << 13),
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
func BenchmarkKHopLimit(b *testing.B) { benchKHop(b, &khop4, 4) }

// BenchmarkKHopLimitManyRanks is BenchmarkKHopLimit on the same graph over
// 128 ranks: a pool of 1.4 M blocks, the 2-hop's candidates spread over
// every rank, each with a few dozen vertices.
func BenchmarkKHopLimitManyRanks(b *testing.B) { benchKHop(b, &khopMany, khopManyRanks) }

// benchKHop runs the friends query on l's fixture over ranks ranks.
func benchKHop(b *testing.B, l *khopLoad, ranks int) {
	f, err := l.get(ranks)
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkExpandTwoHops expands BenchmarkKHopLimit's roots in turn two
// hops under MaskAll with ExpandFrontier, which reads and dedups every
// neighbor, in a read-only transaction of its own per root. Besides ns/op,
// B/op and allocs/op it reports vertices/op, the second layer's size.
func BenchmarkExpandTwoHops(b *testing.B) { benchExpand(b, &khop4, 4) }

// BenchmarkExpandTwoHopsManyRanks is BenchmarkExpandTwoHops over
// BenchmarkKHopLimitManyRanks' ranks.
func BenchmarkExpandTwoHopsManyRanks(b *testing.B) { benchExpand(b, &khopMany, khopManyRanks) }

// benchExpand expands two hops from the roots of l's fixture over ranks
// ranks.
func benchExpand(b *testing.B, l *khopLoad, ranks int) {
	f, err := l.get(ranks)
	if err != nil {
		b.Fatal(err)
	}
	p := f.db.Process(0)
	vertices := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		tx := p.StartTransaction(gdi.ReadOnly)
		_, hop1, err := tx.ExpandFrontier([]fabric.DPtr{f.roots[i%len(f.roots)]}, gdi.MaskAll, nil)
		var hop2 []fabric.DPtr
		if err == nil {
			_, hop2, err = tx.ExpandFrontier(hop1, gdi.MaskAll, nil)
		}
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err != nil {
			b.Fatal(err)
		}
		vertices += len(hop2)
	}
	b.ReportMetric(float64(vertices)/float64(b.N), "vertices/op")
}
