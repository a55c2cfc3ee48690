package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/query"
	"github.com/gdi-go/gdi/internal/stats"
)

// The LDBC-SNB-interactive-flavored mix: the same three query-class shapes
// the SNB interactive workload is built from, sized down to the kron graph —
// short point reads (IS-style), 2-hop friend-of-friend pattern queries with
// a predicate and a LIMIT (IC-style, compiled onto the batch API through
// internal/query), and update transactions (U-style). Per-class latency
// histograms report what per-op histograms cannot: a multi-hop pattern query
// and a point read live on completely different latency scales.

// QueryClass partitions the mix.
type QueryClass int

const (
	// ClassShort is an IS-flavored point read: one vertex's properties and
	// labels.
	ClassShort QueryClass = iota
	// ClassFriends is an IC-flavored 2-hop friend-of-friend: the compiled
	// k-hop pattern with an age predicate on the final hop, a LIMIT, and an
	// age projection.
	ClassFriends
	// ClassUpdate is a U-flavored update transaction: a property rewrite or
	// an edge insert.
	ClassUpdate
	// NumQueryClasses sizes per-class arrays.
	NumQueryClasses
)

// String names the class in reports.
func (c QueryClass) String() string {
	switch c {
	case ClassShort:
		return "short-read"
	case ClassFriends:
		return "2hop-friends"
	case ClassUpdate:
		return "update"
	default:
		return fmt.Sprintf("QueryClass(%d)", int(c))
	}
}

// LDBCConfig parameterizes one interactive-mix run.
type LDBCConfig struct {
	// Workers and OpsPerWorker shape the closed loop exactly as RunConfig
	// does.
	Workers      int
	OpsPerWorker int
	// KeySpace is the loaded graph's appID range.
	KeySpace uint64
	// Seed reproduces the run.
	Seed int64
	// ZipfS, when positive, skews query roots (rank 0 hottest).
	ZipfS float64
	// Weights are the relative class frequencies; zero means the LDBC-ish
	// default 70/20/10 (interactive mixes are read-dominated with a thin
	// update stream).
	Weights [NumQueryClasses]int
	// FriendLimit caps each 2-hop result (SNB's LIMIT 20 when zero).
	FriendLimit int
	// AgeOver is the friend-of-friend predicate: friends-of-friends with
	// age >= AgeOver.
	AgeOver uint64
	// InsertBase offsets fresh appIDs clear of earlier runs.
	InsertBase uint64
}

// LDBCResult reports one run with per-class accounting.
type LDBCResult struct {
	Workers  int
	Ops      int64
	Failed   int64
	Rows     int64 // total 2-hop rows returned — proof the queries did work
	Elapsed  time.Duration
	PerClass [NumQueryClasses]*stats.Histogram
}

// QPS returns the successful-query throughput.
func (r LDBCResult) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops-r.Failed) / r.Elapsed.Seconds()
}

// FailedFraction returns the failed-transaction fraction.
func (r LDBCResult) FailedFraction() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Ops)
}

// pickClass draws one class from the weight vector.
func pickClass(weights [NumQueryClasses]int, rng *rand.Rand) QueryClass {
	total := 0
	for _, w := range weights {
		total += w
	}
	r, acc := rng.Intn(total), 0
	for c := QueryClass(0); c < NumQueryClasses; c++ {
		acc += weights[c]
		if r < acc {
			return c
		}
	}
	return ClassShort
}

// friendPattern builds the IC-flavored 2-hop pattern: expand KNOWS-shaped
// edges both directions, keep final-hop vertices with age >= over, order
// canonically, cut to limit, and project the age property.
func friendPattern(db *gdi.Database, sch kron.Schema, over uint64, limit int) *query.Pattern {
	cons := constraint.New(db.Engine().Registry(0))
	i := cons.AddSubconstraint(constraint.Subconstraint{})
	cons.AddPropCond(i, constraint.PropCond{
		PType:    sch.AgeProp,
		Datatype: gdi.TypeUint64,
		Op:       constraint.OpGe,
		Operand:  gdi.Uint64Value(over),
	})
	return &query.Pattern{
		Kind: query.KHop,
		Hops: []query.Hop{
			{Mask: gdi.MaskAll},
			{Mask: gdi.MaskAll, Cons: cons},
		},
		Limit:      limit,
		Project:    sch.AgeProp,
		HasProject: true,
	}
}

// RunLDBC drives cfg.Workers concurrent sessions of the interactive mix
// against db and aggregates per-class latency.
func RunLDBC(db *gdi.Database, sch kron.Schema, cfg LDBCConfig) (LDBCResult, error) {
	if cfg.Workers <= 0 || cfg.OpsPerWorker <= 0 || cfg.KeySpace == 0 {
		return LDBCResult{}, fmt.Errorf("workload: bad LDBC config %+v", cfg)
	}
	if cfg.Weights == ([NumQueryClasses]int{}) {
		cfg.Weights = [NumQueryClasses]int{ClassShort: 70, ClassFriends: 20, ClassUpdate: 10}
	}
	if cfg.FriendLimit == 0 {
		cfg.FriendLimit = 20
	}
	res := LDBCResult{Workers: cfg.Workers}
	for i := range res.PerClass {
		res.PerClass[i] = &stats.Histogram{}
	}
	perWorker := make([][NumQueryClasses]*stats.Histogram, cfg.Workers)
	for w := range perWorker {
		for i := range perWorker[w] {
			perWorker[w][i] = &stats.Histogram{}
		}
	}
	pattern := friendPattern(db, sch, cfg.AgeOver, cfg.FriendLimit)

	var zipf *Zipf
	if cfg.ZipfS > 0 {
		zipf = NewZipf(int(cfg.KeySpace), cfg.ZipfS)
	}
	pickKey := func(rng *rand.Rand) uint64 {
		if zipf == nil {
			return rng.Uint64() % cfg.KeySpace
		}
		return zipf.Sample(rng)
	}
	nextApp := func(w, i int) uint64 {
		return cfg.KeySpace + cfg.InsertBase + uint64(i)*uint64(cfg.Workers) + uint64(w) + 1
	}

	var issued, failed, rows, hardErrs atomic.Int64
	var firstErr atomic.Value
	size := db.Engine().Fabric().Size()

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := db.Process(gdi.Rank(w % size))
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			inserts := 0
			for i := 0; i < cfg.OpsPerWorker; i++ {
				class := pickClass(cfg.Weights, rng)
				app := pickKey(rng)
				t0 := time.Now()
				var err error
				switch class {
				case ClassShort:
					err = ldbcShortRead(p, sch, app)
				case ClassFriends:
					var n int
					n, err = ldbcFriends(p, pattern, app)
					rows.Add(int64(n))
				case ClassUpdate:
					app2 := pickKey(rng)
					if rng.Intn(2) == 0 {
						app = nextApp(w, inserts)
						inserts++
					}
					err = ldbcUpdate(p, sch, rng, app, app2)
				}
				issued.Add(1)
				perWorker[w][class].Observe(time.Since(t0))
				switch {
				case err == nil:
				case errors.Is(err, ErrTxFailed):
					failed.Add(1)
				default:
					hardErrs.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Ops = issued.Load()
	res.Failed = failed.Load()
	res.Rows = rows.Load()
	for w := range perWorker {
		for i := range perWorker[w] {
			res.PerClass[i].Merge(perWorker[w][i])
		}
	}
	if hardErrs.Load() > 0 {
		return res, fmt.Errorf("workload: %d hard errors, first: %v", hardErrs.Load(), firstErr.Load())
	}
	return res, nil
}

// ldbcShortRead is the IS-style point read: age and labels of one vertex.
func ldbcShortRead(p *gdi.Process, sch kron.Schema, app uint64) error {
	tx := p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	id, err := tx.TranslateVertexID(app)
	if err != nil {
		return mapErr(err)
	}
	h, err := tx.AssociateVertex(id)
	if err != nil {
		return mapErr(err)
	}
	h.Property(sch.AgeProp)
	h.Labels()
	return mapErr(tx.Commit())
}

// ldbcFriends is the IC-style 2-hop friend-of-friend query. It returns the
// row count so the driver can prove the run did real pattern matching.
func ldbcFriends(p *gdi.Process, pattern *query.Pattern, app uint64) (int, error) {
	tx := p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	id, err := tx.TranslateVertexID(app)
	if err != nil {
		return 0, mapErr(err)
	}
	res, err := query.Run(tx, id, pattern)
	if err != nil {
		return 0, mapErr(err)
	}
	if err := tx.Commit(); err != nil {
		return 0, mapErr(err)
	}
	return len(res.Rows), nil
}

// ldbcUpdate is the U-style update transaction: an age rewrite on an
// existing vertex, or (for fresh appIDs above the key space) a vertex
// insert wired to app2 by one edge.
func ldbcUpdate(p *gdi.Process, sch kron.Schema, rng *rand.Rand, app, app2 uint64) error {
	tx := p.StartTransaction(gdi.ReadWrite)
	defer tx.Abort()
	id, err := tx.TranslateVertexID(app)
	if errors.Is(err, gdi.ErrNotFound) {
		// Fresh appID: the person-insert shape.
		if id, err = tx.CreateVertex(app); err != nil {
			return mapErr(err)
		}
		h, err := tx.AssociateVertex(id)
		if err != nil {
			return mapErr(err)
		}
		if len(sch.Labels) > 0 {
			if err := h.AddLabel(sch.Labels[0]); err != nil {
				return mapErr(err)
			}
		}
		if err := h.SetProperty(sch.AgeProp, gdi.Uint64Value(rng.Uint64()%100)); err != nil {
			return mapErr(err)
		}
		to, err := tx.TranslateVertexID(app2)
		if err != nil {
			return mapErr(err)
		}
		if _, err := tx.CreateEdge(id, to, gdi.DirOut, 0); err != nil {
			return mapErr(err)
		}
		return mapErr(tx.Commit())
	}
	if err != nil {
		return mapErr(err)
	}
	h, err := tx.AssociateVertex(id)
	if err != nil {
		return mapErr(err)
	}
	if err := h.SetProperty(sch.AgeProp, gdi.Uint64Value(rng.Uint64()%100)); err != nil {
		return mapErr(err)
	}
	return mapErr(tx.Commit())
}
