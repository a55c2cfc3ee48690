package main

import (
	"errors"
	"math/rand"
	"runtime"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/query"
	"github.com/gdi-go/gdi/internal/workload"
)

// class groups requests whose latencies are comparable. Reads are retrieve
// vertex / count edges / retrieve edges / IS short read; writes are insert
// vertex / update vertex / add edge / U update; delete vertex is kept apart
// because it is three orders of magnitude heavier; the rest are one class per
// query shape or analytics kernel.
type class uint8

const (
	clRead class = iota
	clWrite
	clDelete
	clQuery
	clBFS
	clPageRank
	clWCC
	clLCC
	numClasses
)

var classNames = [numClasses]string{"read", "write", "delete", "query", "bfs", "pagerank", "wcc", "lcc"}

// opKind is one request shape: the seven Table 3 operations, numbered as
// workload.Op numbers them, then the three interactive-mix classes.
type opKind uint8

const (
	opGetProps   = opKind(workload.OpGetProps)
	opAddVertex  = opKind(workload.OpAddVertex)
	opDelVertex  = opKind(workload.OpDelVertex)
	opUpdProp    = opKind(workload.OpUpdProp)
	opCountEdges = opKind(workload.OpCountEdges)
	opGetEdges   = opKind(workload.OpGetEdges)
	opAddEdge    = opKind(workload.OpAddEdge)
)

const (
	opShortRead opKind = opKind(workload.NumOps) + iota
	opFriends
	opUpdate
)

func (k opKind) class() class {
	switch k {
	case opGetProps, opCountEdges, opGetEdges, opShortRead:
		return clRead
	case opDelVertex:
		return clDelete
	case opFriends:
		return clQuery
	default:
		return clWrite
	}
}

// request is one generated operation.
type request struct {
	kind      opKind
	app, app2 uint64
}

// friendsLimit and friendsAgeOver are the IC-flavoured 2-hop query's LIMIT
// and predicate, gdi-ldbc's defaults.
const (
	friendsLimit   = 20
	friendsAgeOver = 30
)

// friendsPattern is the IC-flavoured 2-hop friend-of-friend pattern the
// shipped gdi-ldbc driver runs: expand all edges twice, keep final-hop
// vertices with age >= friendsAgeOver, LIMIT friendsLimit, project the age.
func friendsPattern(db *gdi.Database, sch kron.Schema) *query.Pattern {
	cons := constraint.New(db.Engine().Registry(0))
	i := cons.AddSubconstraint(constraint.Subconstraint{})
	cons.AddPropCond(i, constraint.PropCond{
		PType: sch.AgeProp, Datatype: gdi.TypeUint64,
		Op: constraint.OpGe, Operand: gdi.Uint64Value(friendsAgeOver),
	})
	return &query.Pattern{
		Kind:       query.KHop,
		Hops:       []query.Hop{{Mask: gdi.MaskAll}, {Mask: gdi.MaskAll, Cons: cons}},
		Limit:      friendsLimit,
		Project:    sch.AgeProp,
		HasProject: true,
	}
}

// generator produces one worker's request stream. It draws from its rng in
// exactly the order workload.Run and workload.RunLDBC do, so for one seed the
// benchmark issues the requests the shipped drivers issue (the equivalence
// test pins this). Table 3 clients draw property values from a second rng, as
// workload.GDASystem's clients do; interactive-mix updates draw them from the
// stream's rng, as workload.RunLDBC does.
type generator struct {
	s        spec
	rng      *rand.Rand
	zipf     *workload.Zipf
	keySpace uint64
	worker   int
	inserts  int
	deleted  []uint64 // application IDs this worker deleted and has not re-inserted

	// roots is this worker's shuffled copy of the query-root pool, nextRoot
	// its position in it, and shuffle the rng that reshuffles it: a second
	// rng, so that the request stream's draws stay those of the shipped
	// driver.
	roots    []uint64
	nextRoot int
	shuffle  *rand.Rand
}

func newGenerator(s spec, seed int64, worker int, keySpace uint64) *generator {
	g := &generator{s: s, rng: rand.New(rand.NewSource(seed + int64(worker)*7919)), keySpace: keySpace, worker: worker}
	if s.zipfS > 0 {
		g.zipf = workload.NewZipf(int(keySpace), s.zipfS)
	}
	if s.queryRoots > 0 {
		pool := rand.New(rand.NewSource(datasetSeed)) // the pool belongs to the dataset, not to the run
		for i := 0; i < s.queryRoots; i++ {
			g.roots = append(g.roots, pool.Uint64()%keySpace)
		}
		g.shuffle = rand.New(rand.NewSource(seed ^ int64(worker+1)<<32))
		g.nextRoot = len(g.roots)
	}
	return g
}

// queryRoot returns the next root of this worker's walk over the pool.
func (g *generator) queryRoot() uint64 {
	if g.nextRoot == len(g.roots) {
		g.shuffle.Shuffle(len(g.roots), func(i, j int) { g.roots[i], g.roots[j] = g.roots[j], g.roots[i] })
		g.nextRoot = 0
	}
	g.nextRoot++
	return g.roots[g.nextRoot-1]
}

func (g *generator) key() uint64 {
	if g.zipf != nil {
		return g.zipf.Sample(g.rng)
	}
	return g.rng.Uint64() % g.keySpace
}

// fresh returns the application ID of the next insert: a recycled one when
// the spec asks for that and there is one, else the next ID above the key
// space, disjoint across workers.
func (g *generator) fresh() uint64 {
	if n := len(g.deleted); n > 0 {
		id := g.deleted[n-1]
		g.deleted = g.deleted[:n-1]
		return id
	}
	id := g.keySpace + uint64(g.inserts)*uint64(g.s.workers) + uint64(g.worker) + 1
	g.inserts++
	return id
}

// committedDelete tells the generator that this worker deleted app.
func (g *generator) committedDelete(app uint64) {
	if g.s.recycle {
		g.deleted = append(g.deleted, app)
	}
}

func (g *generator) next() request {
	if g.s.kind == kindLDBC {
		var r request
		switch c := g.rng.Intn(100); { // 70 / 20 / 10
		case c < 70:
			r.kind = opShortRead
		case c < 90:
			r.kind = opFriends
		default:
			r.kind = opUpdate
		}
		r.app = g.key()
		if r.kind == opFriends && g.roots != nil {
			r.app = g.queryRoot()
		}
		if r.kind == opUpdate {
			r.app2 = g.key()
			if g.rng.Intn(2) == 0 {
				r.app = g.fresh()
			}
		}
		return r
	}
	f, acc := g.rng.Float64(), 0.0
	kind := opGetProps
	for op := workload.Op(0); op < workload.NumOps; op++ {
		acc += g.s.mix.Weights[op]
		if f < acc {
			kind = opKind(op)
			break
		}
	}
	r := request{kind: kind, app: g.key(), app2: g.key()}
	if kind == opAddVertex {
		r.app = g.fresh()
	}
	return r
}

// maxRetries bounds the re-submissions of a request whose transaction hit an
// optimistic or lock-contention abort. A closed-loop caller retries such a
// transaction at once, so its latency includes the wait: a DeleteVertex holds
// its neighbours' locks, hubs among them, for about a millisecond, which is
// some tens of attempts for the other client. Only a request that exhausts
// the budget counts as failed, and that means a lock was never released.
const maxRetries = 4096

// backoff waits before the n-th retry: 2 us doubling to a cap of 256 us.
// Retrying at once makes two clients that conflict on a hub abort each other
// for milliseconds; a DeleteVertex's lock train then never completes.
func backoff(n int) {
	d := 2 * time.Microsecond << min(n-1, 7)
	for t0 := time.Now(); time.Since(t0) < d; {
		runtime.Gosched()
	}
}

// outcome describes one finished request.
type outcome struct {
	failed   bool // exhausted maxRetries
	notFound bool // a looked-up vertex did not exist: a successful no-op
	aborts   int  // transaction-critical aborts absorbed by retries
	vertices int  // committed change of the vertex count
	rows     int  // rows returned by a 2-hop query
}

// client is one worker's session: one implementation, with spans recorded
// when tr is non-nil.
type client struct {
	p       *gdi.Process
	sch     kron.Schema
	pattern *query.Pattern
	stream  *rand.Rand // the generator's rng (interactive-mix updates)
	values  *rand.Rand // property values of Table 3 writes
	tr      *tracer
}

func newClient(db *gdi.Database, sch kron.Schema, g *generator) *client {
	return &client{
		p:       db.Process(gdi.Rank(g.worker)),
		sch:     sch,
		pattern: friendsPattern(db, sch),
		stream:  g.rng,
		values:  rand.New(rand.NewSource(int64(g.worker)*31 + 17)),
	}
}

// do runs one request to completion, retrying aborted transactions. A hard
// error (anything but an abort or a missing vertex) is returned.
func (c *client) do(r request) (outcome, error) {
	var out outcome
	c.tr.beginOp(r.kind.class())
	defer c.tr.endOp()
	for {
		err := c.attempt(r, &out)
		switch {
		case err == nil:
			return out, nil
		case errors.Is(err, gdi.ErrNotFound):
			out.notFound = true
			return out, nil
		case errors.Is(err, gdi.ErrTransactionCritical):
			out.aborts++
			if out.aborts > maxRetries {
				out.failed = true
				return out, nil
			}
			backoff(out.aborts)
		default:
			return out, err
		}
	}
}

// txn is one transaction attempt with its spans.
type txn struct {
	c  *client
	tx *gdi.Transaction
}

func (t txn) translate(app uint64) (gdi.VertexID, error) {
	s := t.c.tr.begin(phTranslate)
	id, err := t.tx.TranslateVertexID(app)
	t.c.tr.end(s)
	return id, err
}

func (t txn) associate(id gdi.VertexID) (*gdi.Vertex, error) {
	s := t.c.tr.begin(phAssociate)
	h, err := t.tx.AssociateVertex(id)
	t.c.tr.end(s)
	return h, err
}

func (t txn) commit() error {
	s := t.c.tr.begin(phCommit)
	err := t.tx.Commit()
	t.c.tr.end(s)
	return err
}

// attempt runs the request as one transaction, with the call sequence of
// workload.GDASystem's client (Table 3 operations) and of workload.RunLDBC
// (interactive classes).
func (c *client) attempt(r request, out *outcome) error {
	mode := gdi.ReadWrite
	if cl := r.kind.class(); cl == clRead || cl == clQuery {
		mode = gdi.ReadOnly
	}
	s := c.tr.begin(phBegin)
	t := txn{c, c.p.StartTransaction(mode)}
	c.tr.end(s)
	defer t.tx.Abort()

	switch r.kind {
	case opGetProps, opCountEdges, opGetEdges, opShortRead:
		id, err := t.translate(r.app)
		if err != nil {
			return err
		}
		h, err := t.associate(id)
		if err != nil {
			return err
		}
		s := c.tr.begin(phAccess)
		switch r.kind {
		case opGetProps:
			h.Property(c.sch.AgeProp)
		case opCountEdges:
			h.CountEdges(gdi.MaskAll)
		case opGetEdges:
			_, err = h.Edges(gdi.MaskAll, nil)
		case opShortRead:
			h.Property(c.sch.AgeProp)
			h.Labels()
		}
		c.tr.end(s)
		if err != nil {
			return err
		}
		return t.commit()

	case opFriends:
		id, err := t.translate(r.app)
		if err != nil {
			return err
		}
		s := c.tr.begin(phRun)
		res, err := query.Run(t.tx, id, c.pattern)
		c.tr.end(s)
		if err != nil {
			return err
		}
		if err := t.commit(); err != nil {
			return err
		}
		out.rows = len(res.Rows)
		return nil

	case opAddVertex:
		return t.insert(r.app, c.sch.Labels[r.app%uint64(len(c.sch.Labels))], c.values, 0, false, out)

	case opDelVertex:
		id, err := t.translate(r.app)
		if err != nil {
			return err
		}
		s := c.tr.begin(phMutate)
		err = t.tx.DeleteVertex(id)
		c.tr.end(s)
		if err != nil {
			return err
		}
		if err := t.commit(); err != nil {
			return err
		}
		out.vertices = -1
		return nil

	case opUpdProp, opUpdate:
		values := c.values
		if r.kind == opUpdate {
			values = c.stream
		}
		id, err := t.translate(r.app)
		if r.kind == opUpdate && errors.Is(err, gdi.ErrNotFound) {
			// Fresh application ID: the person-insert shape, wired to app2.
			return t.insert(r.app, c.sch.Labels[0], values, r.app2, true, out)
		}
		if err != nil {
			return err
		}
		h, err := t.associate(id)
		if err != nil {
			return err
		}
		s := c.tr.begin(phMutate)
		err = h.SetProperty(c.sch.AgeProp, gdi.Uint64Value(values.Uint64()%100))
		c.tr.end(s)
		if err != nil {
			return err
		}
		return t.commit()

	case opAddEdge:
		a, err := t.translate(r.app)
		if err != nil {
			return err
		}
		b, err := t.translate(r.app2)
		if err != nil {
			return err
		}
		s := c.tr.begin(phMutate)
		_, err = t.tx.CreateEdge(a, b, gdi.DirOut, 0)
		c.tr.end(s)
		if err != nil {
			return err
		}
		return t.commit()
	}
	return nil
}

// insert creates vertex app with one label and an age, optionally wired to
// app2 by one edge, and commits.
func (t txn) insert(app uint64, label gdi.LabelID, values *rand.Rand, app2 uint64, wire bool, out *outcome) error {
	c := t.c
	s := c.tr.begin(phMutate)
	id, err := t.tx.CreateVertex(app)
	c.tr.end(s)
	if err != nil {
		return err
	}
	h, err := t.associate(id)
	if err != nil {
		return err
	}
	s = c.tr.begin(phMutate)
	if err = h.AddLabel(label); err == nil {
		err = h.SetProperty(c.sch.AgeProp, gdi.Uint64Value(values.Uint64()%100))
	}
	c.tr.end(s)
	if err != nil {
		return err
	}
	if wire {
		to, err := t.translate(app2)
		if err != nil {
			return err
		}
		s = c.tr.begin(phMutate)
		_, err = t.tx.CreateEdge(id, to, gdi.DirOut, 0)
		c.tr.end(s)
		if err != nil {
			return err
		}
	}
	if err := t.commit(); err != nil {
		return err
	}
	out.vertices = 1
	return nil
}
