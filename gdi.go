package gdi

import (
	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// Re-exported data-model types. These are aliases so that values flow
// between the public API and the engine without conversion; the underlying
// packages are internal and not importable directly.
type (
	// LabelID is the replicated integer ID of a label.
	LabelID = lpg.LabelID
	// PTypeID is the replicated integer ID of a property type.
	PTypeID = lpg.PTypeID
	// Datatype enumerates property value types.
	Datatype = lpg.Datatype
	// Property is one (p-type, encoded value) pair.
	Property = lpg.Property
	// PTypeSpec carries the optional §3.7 hints for a new property type.
	PTypeSpec = metadata.PTypeSpec
	// VertexID is the internal vertex ID (the paper's 64-bit DPtr). It is
	// valid database-wide and may be shared between processes.
	VertexID = fabric.DPtr
	// EdgeUID identifies an edge relative to one endpoint (§5.4.2).
	EdgeUID = holder.EdgeUID
	// Direction is an edge direction.
	Direction = holder.Direction
	// DirMask selects directions in edge queries.
	DirMask = core.DirMask
	// EdgeList is what VertexHandle.Edges returns (GDI_GetEdgesOfVertex):
	// the incident edges as one array of neighbors, 8 bytes an edge, and a
	// table of the runs they came from. Len, At and Neighbors read it.
	EdgeList = core.EdgeList
	// EdgeInfo describes one incident edge: what EdgeList.At returns.
	EdgeInfo = core.EdgeInfo
	// Mode distinguishes read-only from read-write transactions.
	Mode = core.Mode
	// Transaction is a GDI transaction (local or collective). In a local
	// transaction, TranslateVertexID also associates the vertex it
	// translates, so the AssociateVertex that follows costs nothing, and a
	// translation the process has confirmed before costs 0 round trips
	// beyond that association.
	Transaction = core.Tx
	// VertexFuture is a pending non-blocking vertex association created by
	// Transaction.AssociateVertexAsync; resolve it with Wait or poll with
	// Test. Flushing any future of a transaction batches every queued fetch
	// into vectored one-sided reads grouped by owner rank (§5.6).
	VertexFuture = core.VertexFuture
	// Vertex is the process-local access object for one vertex (§3.5).
	Vertex = core.VertexHandle
	// Edge is the process-local access object for one heavy edge.
	Edge = core.EdgeHandle
	// Constraint is a DNF filter over labels and properties (§3.6).
	Constraint = constraint.Constraint
	// Subconstraint is one conjunction inside a Constraint.
	Subconstraint = constraint.Subconstraint
	// LabelCond is a label presence/absence condition.
	LabelCond = constraint.LabelCond
	// PropCond is a property comparison condition.
	PropCond = constraint.PropCond
	// Op is a property comparison operator.
	Op = constraint.Op
	// VertexSpec describes a vertex for bulk loading.
	VertexSpec = core.VertexSpec
	// EdgeSpec describes an edge for bulk loading.
	EdgeSpec = core.EdgeSpec
	// Rank identifies a process.
	Rank = fabric.Rank
	// Comm exposes the collective-communication layer for user queries
	// (global reductions at the end of OLSP aggregations, Listing 3).
	Comm = collective.Comm
	// Transport is the fabric SPI every backend implements: the in-process
	// simulator (Init) and wire transports such as internal/fabric/tcp
	// (InitWithTransport).
	Transport = fabric.Transport
	// TrafficSnapshot is a plain-value copy of one rank's one-sided traffic
	// counters, as returned by Transport.CounterSnapshot/TotalSnapshot.
	TrafficSnapshot = fabric.Snapshot
)

// Datatype values.
const (
	TypeBytes         = lpg.TypeBytes
	TypeUint64        = lpg.TypeUint64
	TypeInt64         = lpg.TypeInt64
	TypeFloat64       = lpg.TypeFloat64
	TypeBool          = lpg.TypeBool
	TypeString        = lpg.TypeString
	TypeDate          = lpg.TypeDate
	TypeFloat64Vector = lpg.TypeFloat64Vector
)

// Entity, size, and multiplicity hints (§3.7).
const (
	EntityAny    = lpg.EntityAny
	EntityVertex = lpg.EntityVertex
	EntityEdge   = lpg.EntityEdge

	SizeUnlimited = lpg.SizeUnlimited
	SizeMax       = lpg.SizeMax
	SizeFixed     = lpg.SizeFixed

	MultiSingle = lpg.MultiSingle
	MultiMany   = lpg.MultiMany
)

// Edge directions and query masks.
const (
	DirOut        = holder.DirOut
	DirIn         = holder.DirIn
	DirUndirected = holder.DirUndirected

	MaskOut        = core.MaskOut
	MaskIn         = core.MaskIn
	MaskUndirected = core.MaskUndirected
	MaskAll        = core.MaskAll
)

// Transaction modes.
const (
	// ReadOnly transactions reject mutations and enable read-path
	// optimizations (§3.3).
	ReadOnly = core.ReadOnly
	// ReadWrite transactions may mutate graph data.
	ReadWrite = core.ReadWrite
)

// Constraint operators.
const (
	OpExists = constraint.OpExists
	OpEq     = constraint.OpEq
	OpNe     = constraint.OpNe
	OpLt     = constraint.OpLt
	OpLe     = constraint.OpLe
	OpGt     = constraint.OpGt
	OpGe     = constraint.OpGe
	OpPrefix = constraint.OpPrefix
)

// Canonical errors (GDI error classes, §3.3). Check with errors.Is.
var (
	// ErrTransactionCritical marks failures after which the transaction is
	// guaranteed to fail; the user must start a new transaction.
	ErrTransactionCritical = core.ErrTxCritical
	// ErrNotFound reports missing vertices, edges, labels, or properties.
	ErrNotFound = core.ErrNotFound
	// ErrTransactionClosed reports use of a closed transaction.
	ErrTransactionClosed = core.ErrTxClosed
	// ErrReadOnly reports a mutation inside a read-only transaction.
	ErrReadOnly = core.ErrReadOnly
	// ErrNoMemory reports storage exhaustion.
	ErrNoMemory = core.ErrNoMemory
	// ErrBadArgument reports arguments violating the GDI contract.
	ErrBadArgument = core.ErrBadArgument
)

// Value encoding helpers: property values travel as byte slices typed by
// their p-type's Datatype.
var (
	Uint64Value        = lpg.EncodeUint64
	Uint64Of           = lpg.DecodeUint64
	Int64Value         = lpg.EncodeInt64
	Int64Of            = lpg.DecodeInt64
	Float64Value       = lpg.EncodeFloat64
	Float64Of          = lpg.DecodeFloat64
	BoolValue          = lpg.EncodeBool
	BoolOf             = lpg.DecodeBool
	StringValue        = lpg.EncodeString
	StringOf           = lpg.DecodeString
	Float64VectorValue = lpg.EncodeFloat64Vector
	Float64VectorOf    = lpg.DecodeFloat64Vector
)

// Runtime hosts P processes and their interconnect — the GDI environment
// created by GDI_Init. The interconnect is any fabric SPI backend: Init
// builds the in-process simulator; InitWithTransport accepts a prebuilt
// transport (e.g. the multi-process TCP mesh of internal/fabric/tcp).
type Runtime struct {
	fab Transport
}

// RuntimeOptions tunes the simulated fabric.
type RuntimeOptions struct {
	// RemoteLatencyNs, if non-zero, injects that many nanoseconds on every
	// remote one-sided operation (used by the latency experiments).
	RemoteLatencyNs int64
}

// Init creates a runtime with nprocs simulated processes (GDI_Init).
func Init(nprocs int, opts ...RuntimeOptions) *Runtime {
	var o RuntimeOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	fab := rma.New(nprocs, rma.Options{Latency: rma.Latency{RemoteNs: o.RemoteLatencyNs}})
	return &Runtime{fab: fab}
}

// InitWithTransport creates a runtime over an already-bootstrapped fabric
// backend. On a wire transport the calling process hosts exactly the ranks
// the transport reports Local; Run then executes fn only for those.
func InitWithTransport(t Transport) *Runtime { return &Runtime{fab: t} }

// Transport returns the runtime's fabric backend.
func (rt *Runtime) Transport() Transport { return rt.fab }

// Size returns the number of processes.
func (rt *Runtime) Size() int { return rt.fab.Size() }

// Finalize tears the runtime down (GDI_Finalize): closes the transport's
// connections and listeners. The simulated fabric's Close is a no-op.
func (rt *Runtime) Finalize() { rt.fab.Close() }

// DatabaseParams sizes a database (GDI_CreateDatabase's parameter block).
type DatabaseParams struct {
	// BlockSize is the BGDL block size in bytes (default 512): the §5.5
	// communication/fragmentation trade-off knob.
	BlockSize int
	// BlocksPerRank is each process's block-pool capacity (default 65536).
	BlocksPerRank int
	// IndexBucketsPerRank / IndexEntriesPerRank size the internal index.
	IndexBucketsPerRank int
	IndexEntriesPerRank int
	// LockTries bounds lock acquisition before a transaction-critical
	// failure (default 64).
	LockTries int
	// CacheCapacity is the size in blocks (default 8192) of every process's
	// version-validated cache of remote block copies: repeated vertex-holder
	// reads revalidate their cached blocks against the version counters
	// embedded in the per-vertex lock words (one atomic-load train per owner
	// rank) and skip the remote GET traffic entirely on a hit. Cache hit/miss
	// counters are reported through the fabric's counter snapshots.
	CacheCapacity int
	// RebalanceHeatTracking enables the per-process access-heat counters the
	// workload-aware rebalancer consumes: every vertex-holder fetch records
	// one access for (accessing process, vertex). Off by default, in which
	// case the hot path pays nothing and Rebalance plans no moves.
	RebalanceHeatTracking bool
	// HTAPSnapshots enables the MVCC-lite snapshot subsystem: collective
	// AcquireCut pins transaction-consistent cuts of the block store while
	// OLTP commits keep landing, and writers retire overwritten block
	// versions into per-process arenas, so the HTAP analytics sessions build
	// their CSR from a cut.
	HTAPSnapshots bool
}

// Database is one distributed graph database. Multiple databases may
// coexist in one runtime (§3.9).
type Database struct {
	rt  *Runtime
	eng *core.Engine
}

// CreateDatabase creates a database over all processes (GDI_CreateDatabase).
func (rt *Runtime) CreateDatabase(p DatabaseParams) *Database {
	eng := core.NewEngine(rt.fab, core.Config{
		BlockSize:             p.BlockSize,
		BlocksPerRank:         p.BlocksPerRank,
		DHTBucketsPerRank:     p.IndexBucketsPerRank,
		DHTEntriesPerRank:     p.IndexEntriesPerRank,
		LockTries:             p.LockTries,
		CacheCapacity:         p.CacheCapacity,
		RebalanceHeatTracking: p.RebalanceHeatTracking,
		HTAPSnapshots:         p.HTAPSnapshots,
	})
	return &Database{rt: rt, eng: eng}
}

// Run executes fn on every process of the runtime and waits for completion
// (the SPMD launch, mpirun's role).
func (rt *Runtime) Run(db *Database, fn func(p *Process)) {
	rt.fab.Run(func(r Rank) {
		fn(&Process{db: db, rank: r})
	})
}

// Engine exposes the underlying core engine for the evaluation harness.
func (db *Database) Engine() *core.Engine { return db.eng }

// DefineLabel registers a label on every replica from driver context
// (the collective GDI_CreateLabel; inside Run use Process.CreateLabel).
func (db *Database) DefineLabel(name string) (LabelID, error) { return db.eng.DefineLabel(name) }

// DefinePType registers a property type on every replica from driver
// context (the collective GDI_CreatePropertyType).
func (db *Database) DefinePType(name string, spec PTypeSpec) (PTypeID, error) {
	return db.eng.DefinePType(name, spec)
}

// NewConstraint creates an empty constraint bound to the current metadata
// version (GDI_CreateConstraint); use AddSubconstraint/AddLabelCond/
// AddPropCond to populate it.
func (db *Database) NewConstraint() *Constraint {
	return constraint.New(db.eng.Registry(0))
}

// TotalVertices sums all per-process vertex shards (diagnostics). It reads
// the shards directly, so it is meaningful only when every rank lives in
// this process (the simulator backend); over a wire transport, sum
// Process-local counts with AllreduceInt64 from SPMD context instead.
func (db *Database) TotalVertices() int {
	n := 0
	for r := 0; r < db.rt.Size(); r++ {
		n += db.eng.LocalVertexCount(Rank(r))
	}
	return n
}

// Process is one rank's view of a database: the context in which local GDI
// calls execute. Handles and transactions created by a Process are only
// meaningful on that process (§3.5).
type Process struct {
	db   *Database
	rank Rank
}

// Process returns rank r's Process outside of Run (driver-context testing).
func (db *Database) Process(r Rank) *Process { return &Process{db: db, rank: r} }

// Rank returns the process's rank.
func (p *Process) Rank() Rank { return p.rank }

// Database returns the owning database.
func (p *Process) Database() *Database { return p.db }

// Size returns the number of processes in the runtime.
func (p *Process) Size() int { return p.db.rt.Size() }

// StartTransaction begins a local transaction (GDI_StartTransaction).
func (p *Process) StartTransaction(mode Mode) *Transaction {
	return p.db.eng.StartLocal(p.rank, mode)
}

// StartCollectiveTransaction begins a collective transaction
// (GDI_StartCollectiveTransaction); every process must call it.
func (p *Process) StartCollectiveTransaction(mode Mode) *Transaction {
	return p.db.eng.StartCollective(p.rank, mode)
}

// CreateLabel registers a label collectively from SPMD context.
func (p *Process) CreateLabel(name string) (LabelID, error) {
	return p.db.eng.CreateLabelCollective(p.rank, name)
}

// CreatePType registers a property type collectively from SPMD context.
func (p *Process) CreatePType(name string, spec PTypeSpec) (PTypeID, error) {
	return p.db.eng.CreatePTypeCollective(p.rank, name, spec)
}

// LabelByName resolves a label handle from its name (GDI_GetLabelFromName).
func (p *Process) LabelByName(name string) (LabelID, bool) {
	l, ok := p.db.eng.Registry(p.rank).LabelByName(name)
	if !ok {
		return 0, false
	}
	return l.ID, true
}

// PTypeByName resolves a property type from its name.
func (p *Process) PTypeByName(name string) (PTypeID, bool) {
	pt, ok := p.db.eng.Registry(p.rank).PTypeByName(name)
	if !ok {
		return 0, false
	}
	return pt.ID, true
}

// LocalVertices lists this process's vertex shard
// (GDI_GetLocalVerticesOfIndex over the implicit all-vertices index).
func (p *Process) LocalVertices() []VertexID { return p.db.eng.LocalVertices(p.rank) }

// LocalVerticesWithLabel lists this process's shard of one label's posting
// list (GDI_GetLocalVerticesOfIndex). Index maintenance is eventually
// consistent (§3.8).
func (p *Process) LocalVerticesWithLabel(l LabelID) []VertexID {
	return p.db.eng.LocalVerticesWithLabel(p.rank, l)
}

// BulkLoadVertices ingests vertices collectively (BULK workloads). Every
// process must call it, and all of them return together: when any process runs
// out of blocks or the internal index is full, each returns an error wrapping
// ErrNoMemory.
func (p *Process) BulkLoadVertices(specs []VertexSpec) error {
	return p.db.eng.BulkLoadVertices(p.rank, specs)
}

// BulkLoadEdges ingests edges collectively; both endpoints of every edge must
// already be loaded. The outcome is collective: an edge naming a missing
// vertex fails the call on every process with ErrNotFound, before any edge is
// stored.
func (p *Process) BulkLoadEdges(specs []EdgeSpec) error {
	return p.db.eng.BulkLoadEdges(p.rank, specs)
}

// RebalanceStats reports one workload-aware rebalancing round.
type RebalanceStats = core.RebalanceStats

// Rebalance runs one workload-aware rebalancing round (collective: every
// process must call it). The processes pool their access-heat samples, a
// greedy Schism-style plan moves each hot vertex to its dominant accessor,
// and every process executes the migrations it is the destination of in
// batched migration trains — live, while OLTP traffic keeps running.
// Requires DatabaseParams.RebalanceHeatTracking; without recorded heat the
// round is an (inexpensive) no-op.
func (p *Process) Rebalance() (RebalanceStats, error) {
	return p.db.eng.Rebalance(p.rank)
}

// Replicate seeds k-replica holder chains on this process: every vertex is
// backed by one primary chain plus up to k-1 follower chains on distinct
// ranks, kept in lockstep by the commit fan-out. This process pulls follower
// copies of the vertices owned by its k-1 predecessor ranks (mod size), so
// calling it on every rank gives each vertex a full replica ring. Returns
// the number of follower chains seeded. k <= 1 is a no-op.
func (p *Process) Replicate(k int) int {
	return p.db.eng.ReplicateUniform(p.rank, k)
}

// ReplicateHot seeds follower chains for up to topM of this process's
// hottest remotely-owned vertices (by recorded access heat — requires
// DatabaseParams.RebalanceHeatTracking), bringing read-mostly hot data next
// to its readers without replicating the cold tail. Returns the number of
// follower chains seeded.
func (p *Process) ReplicateHot(k, topM int) int {
	return p.db.eng.ReplicateHot(p.rank, k, topM)
}

// PromoteDead fails over the follower chains this process holds for
// vertices whose primary rank has died: each is promoted to primary by a
// DHT compare-and-swap (exactly one survivor wins per vertex), the losers
// re-key their copies under the new primary, and the directory entry of the
// dead rank is dropped. Callers must only invoke it after in-flight commits
// on the surviving ranks have drained. Returns the number of vertices this
// process won promotion of.
func (p *Process) PromoteDead() int {
	return p.db.eng.PromoteDead(p.rank)
}

// ReplicaStats is a snapshot of the engine-wide replication counters.
type ReplicaStats struct {
	Reads      int64 // optimistic reads served from a local follower chain
	Reseeds    int64 // follower chains seeded (initial replication + repair)
	Promotions int64 // followers promoted to primary after a rank death
	Drops      int64 // follower chains dropped (reshape, delete, lockstep loss)
}

// ReplicaStats returns the database's replication counters.
func (db *Database) ReplicaStats() ReplicaStats {
	return ReplicaStats{
		Reads:      db.eng.ReplicaReads(),
		Reseeds:    db.eng.Reseeds(),
		Promotions: db.eng.Promotions(),
		Drops:      db.eng.ReplicaDrops(),
	}
}

// Barrier synchronizes all processes.
func (p *Process) Barrier() { p.db.eng.Comm().Barrier(p.rank) }

// Comm exposes the collective layer for user-level reductions (e.g. the
// final global count of Listing 3).
func (p *Process) Comm() *Comm { return p.db.eng.Comm() }

// AllreduceInt64 sums a value across all processes and returns the total on
// every process.
func (p *Process) AllreduceInt64(v int64) int64 {
	return collective.Allreduce(p.db.eng.Comm(), p.rank, v, func(a, b int64) int64 { return a + b })
}

// AllreduceFloat64 sums a float64 across all processes.
func (p *Process) AllreduceFloat64(v float64) float64 {
	return collective.Allreduce(p.db.eng.Comm(), p.rank, v, func(a, b float64) float64 { return a + b })
}

// AllgatherVertexIDs concatenates every process's ID slice on all processes
// (rank order).
func (p *Process) AllgatherVertexIDs(ids []VertexID) []VertexID {
	all := collective.Allgather(p.db.eng.Comm(), p.rank, ids)
	var out []VertexID
	for _, s := range all {
		out = append(out, s...)
	}
	return out
}
