package workload

import (
	"errors"
	"math/rand"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/baseline/lockgdb"
	"github.com/gdi-go/gdi/internal/baseline/rpcgdb"
	"github.com/gdi-go/gdi/internal/kron"
)

// GDASystem drives a gdi database: worker w plays rank w, every operation
// is one GDI transaction (the paper's OLTP methodology).
type GDASystem struct {
	DB     *gdi.Database
	Schema kron.Schema
}

// Name identifies the system in reports.
func (s *GDASystem) Name() string { return "GDA" }

// NewClient binds worker w to rank w (mod size).
func (s *GDASystem) NewClient(w int) Client {
	return &gdaClient{
		p:   s.DB.Process(gdi.Rank(w % s.DB.Engine().Fabric().Size())),
		sch: s.Schema,
		rng: rand.New(rand.NewSource(int64(w)*31 + 17)),
	}
}

type gdaClient struct {
	p   *gdi.Process
	sch kron.Schema
	rng *rand.Rand
}

// mapErr translates engine errors into the driver's accounting: contention
// aborts count as failed transactions, not-found lookups are no-ops.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, gdi.ErrTransactionCritical):
		return ErrTxFailed
	case errors.Is(err, gdi.ErrNotFound):
		return nil
	default:
		return err
	}
}

func (c *gdaClient) Do(op Op, app, app2 uint64) error {
	switch op {
	case OpGetProps:
		tx := c.p.StartTransaction(gdi.ReadOnly)
		defer tx.Abort()
		id, err := tx.TranslateVertexID(app)
		if err != nil {
			return mapErr(err)
		}
		h, err := tx.AssociateVertex(id)
		if err != nil {
			return mapErr(err)
		}
		h.Property(c.sch.AgeProp)
		return mapErr(tx.Commit())
	case OpCountEdges:
		tx := c.p.StartTransaction(gdi.ReadOnly)
		defer tx.Abort()
		id, err := tx.TranslateVertexID(app)
		if err != nil {
			return mapErr(err)
		}
		h, err := tx.AssociateVertex(id)
		if err != nil {
			return mapErr(err)
		}
		h.CountEdges(gdi.MaskAll)
		return mapErr(tx.Commit())
	case OpGetEdges:
		tx := c.p.StartTransaction(gdi.ReadOnly)
		defer tx.Abort()
		id, err := tx.TranslateVertexID(app)
		if err != nil {
			return mapErr(err)
		}
		h, err := tx.AssociateVertex(id)
		if err != nil {
			return mapErr(err)
		}
		if _, err := h.Edges(gdi.MaskAll, nil); err != nil {
			return mapErr(err)
		}
		return mapErr(tx.Commit())
	case OpAddVertex:
		tx := c.p.StartTransaction(gdi.ReadWrite)
		defer tx.Abort()
		id, err := tx.CreateVertex(app)
		if err != nil {
			return mapErr(err)
		}
		h, err := tx.AssociateVertex(id)
		if err != nil {
			return mapErr(err)
		}
		if len(c.sch.Labels) > 0 {
			if err := h.AddLabel(c.sch.Labels[app%uint64(len(c.sch.Labels))]); err != nil {
				return mapErr(err)
			}
		}
		if err := h.SetProperty(c.sch.AgeProp, gdi.Uint64Value(c.rng.Uint64()%100)); err != nil {
			return mapErr(err)
		}
		return mapErr(tx.Commit())
	case OpDelVertex:
		tx := c.p.StartTransaction(gdi.ReadWrite)
		defer tx.Abort()
		id, err := tx.TranslateVertexID(app)
		if err != nil {
			return mapErr(err)
		}
		if err := tx.DeleteVertex(id); err != nil {
			return mapErr(err)
		}
		return mapErr(tx.Commit())
	case OpUpdProp:
		tx := c.p.StartTransaction(gdi.ReadWrite)
		defer tx.Abort()
		id, err := tx.TranslateVertexID(app)
		if err != nil {
			return mapErr(err)
		}
		h, err := tx.AssociateVertex(id)
		if err != nil {
			return mapErr(err)
		}
		if err := h.SetProperty(c.sch.AgeProp, gdi.Uint64Value(c.rng.Uint64()%100)); err != nil {
			return mapErr(err)
		}
		return mapErr(tx.Commit())
	case OpAddEdge:
		tx := c.p.StartTransaction(gdi.ReadWrite)
		defer tx.Abort()
		a, err := tx.TranslateVertexID(app)
		if err != nil {
			return mapErr(err)
		}
		b, err := tx.TranslateVertexID(app2)
		if err != nil {
			return mapErr(err)
		}
		if _, err := tx.CreateEdge(a, b, gdi.DirOut, 0); err != nil {
			return mapErr(err)
		}
		return mapErr(tx.Commit())
	default:
		return nil
	}
}

// LockSystem drives the Neo4j-like baseline.
type LockSystem struct {
	DB *lockgdb.DB
}

// Name identifies the system in reports.
func (s *LockSystem) Name() string { return "Neo4j-like (lockgdb)" }

// NewClient returns a session (the store is shared; sessions are stateless).
func (s *LockSystem) NewClient(w int) Client {
	return &lockClient{db: s.DB, rng: rand.New(rand.NewSource(int64(w)*13 + 3))}
}

type lockClient struct {
	db  *lockgdb.DB
	rng *rand.Rand
}

func (c *lockClient) Do(op Op, app, app2 uint64) error {
	switch op {
	case OpGetProps:
		c.db.GetProps(app)
	case OpCountEdges:
		c.db.CountEdges(app)
	case OpGetEdges:
		c.db.GetEdges(app)
	case OpAddVertex:
		c.db.AddVertex(app, 0, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	case OpDelVertex:
		c.db.DeleteVertex(app)
	case OpUpdProp:
		c.db.UpdateProperty(app, 0, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	case OpAddEdge:
		c.db.AddEdge(app, app2)
	}
	return nil
}

// RPCSystem drives the JanusGraph-like baseline.
type RPCSystem struct {
	DB *rpcgdb.DB
}

// Name identifies the system in reports.
func (s *RPCSystem) Name() string { return "JanusGraph-like (rpcgdb)" }

// NewClient returns a session.
func (s *RPCSystem) NewClient(w int) Client {
	return &rpcClient{db: s.DB}
}

type rpcClient struct {
	db *rpcgdb.DB
}

func (c *rpcClient) Do(op Op, app, app2 uint64) error {
	switch op {
	case OpGetProps:
		c.db.GetProps(app)
	case OpCountEdges:
		c.db.CountEdges(app)
	case OpGetEdges:
		c.db.GetEdges(app)
	case OpAddVertex:
		c.db.AddVertex(app, 0, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	case OpDelVertex:
		c.db.DeleteVertex(app)
	case OpUpdProp:
		c.db.UpdateProperty(app, 0, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	case OpAddEdge:
		c.db.AddEdge(app, app2)
	}
	return nil
}

// IndexSizing returns the internal-index sizing (DatabaseParams
// IndexBucketsPerRank and IndexEntriesPerRank) for a database that loads
// cfg's graph on the given number of ranks: about one bucket per loaded
// vertex, and twice the loaded entries plus slack, so an uneven hash and the
// run's own inserts still fit — and never less than the engine defaults
// (1<<12 buckets, 1<<14 entries), which are ample up to scale 15 and
// overflow from scale 16 on two ranks. A full index fails the bulk load, or
// the commit that creates the vertex, with ErrNoMemory.
func IndexSizing(cfg kron.Config, ranks int) (bucketsPerRank, entriesPerRank int) {
	perRank := int(cfg.NumVertices() / uint64(ranks))
	return max(perRank+64, 1<<12), max(2*perRank+1024, 1<<14)
}

// LoadGDA bulk-loads the kron graph into a gdi database (collective). Bulk
// load outcomes are collective, so every rank sees the same failure.
func LoadGDA(rt *gdi.Runtime, db *gdi.Database, cfg kron.Config, sch kron.Schema) error {
	errs := make([]error, rt.Size())
	rt.Run(db, func(p *gdi.Process) {
		r, n := int(p.Rank()), p.Size()
		if errs[r] = p.BulkLoadVertices(kron.VerticesFor(cfg, sch, r, n)); errs[r] != nil {
			return
		}
		errs[r] = p.BulkLoadEdges(kron.EdgesFor(cfg, sch, r, n))
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadLock fills the Neo4j-like baseline with the identical graph.
func LoadLock(db *lockgdb.DB, cfg kron.Config) {
	cfg = cfg.WithDefaults()
	n := cfg.NumVertices()
	for app := uint64(0); app < n; app++ {
		db.AddVertex(app, uint32(app%20), 0, []byte{byte(app), 0, 0, 0, 0, 0, 0, 0})
	}
	var sch kron.Schema
	for _, sp := range kron.EdgesFor(cfg, sch, 0, 1) {
		db.AddEdge(sp.OriginApp, sp.TargetApp)
	}
}

// LoadRPC fills the JanusGraph-like baseline with the identical graph.
func LoadRPC(db *rpcgdb.DB, cfg kron.Config) {
	cfg = cfg.WithDefaults()
	n := cfg.NumVertices()
	for app := uint64(0); app < n; app++ {
		db.AddVertex(app, uint32(app%20), 0, []byte{byte(app), 0, 0, 0, 0, 0, 0, 0})
	}
	var sch kron.Schema
	for _, sp := range kron.EdgesFor(cfg, sch, 0, 1) {
		db.AddEdge(sp.OriginApp, sp.TargetApp)
	}
}
