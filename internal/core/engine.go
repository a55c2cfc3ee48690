// Package core implements the GDA storage and transaction engine of §5 of
// the paper — the machinery underneath the public GDI API:
//
//   - sharded graph data over the BGDL block layer (packages block, holder);
//   - the internal index translating application-level vertex IDs to DPtrs,
//     backed by the fully-offloaded DHT (package dht), with a per-rank,
//     version-validated translation cache in front of it (xlate.go);
//   - per-rank explicit indexes (vertex enumeration and label postings),
//     maintained with eventual consistency at commit time;
//   - replicated metadata registries (package metadata);
//   - local and collective ACID transactions with per-vertex reader-writer
//     locks, dirty-block tracking, and a write-back commit protocol.
//
// Work/depth: unless stated otherwise, every data-path routine is O(1) work
// and depth measured in block operations for holders that fit one block, and
// O(b) for holders spanning b blocks.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/dht"
	"github.com/gdi-go/gdi/internal/exchange"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/snapshot"
)

// Canonical engine errors. ErrTxCritical follows the GDI error model (§3.3):
// once a routine returns a transaction-critical error the transaction is
// guaranteed to fail; the user must abort and start a new one.
var (
	// ErrTxCritical marks transaction-critical failures (lock contention,
	// storage exhaustion mid-commit, stale metadata).
	ErrTxCritical = errors.New("core: transaction-critical error")
	// ErrNotFound reports a missing vertex, edge, label, or property.
	ErrNotFound = errors.New("core: not found")
	// ErrTxClosed reports use of a committed or aborted transaction.
	ErrTxClosed = errors.New("core: transaction already closed")
	// ErrReadOnly reports a mutation inside a read-only transaction.
	ErrReadOnly = errors.New("core: mutation in read-only transaction")
	// ErrNoMemory reports block-pool exhaustion.
	ErrNoMemory = errors.New("core: out of blocks")
	// ErrBadArgument reports arguments violating the GDI contract.
	ErrBadArgument = errors.New("core: bad argument")
)

// Config sizes an Engine.
type Config struct {
	// BlockSize is the BGDL block size in bytes (§5.5's tunable
	// communication/fragmentation trade-off).
	BlockSize int
	// BlocksPerRank is each rank's block-pool capacity.
	BlocksPerRank int
	// DHTBucketsPerRank and DHTEntriesPerRank size the internal index.
	DHTBucketsPerRank int
	DHTEntriesPerRank int
	// LockTries bounds lock acquisition; exceeding it aborts the
	// transaction (the paper's failed transactions).
	LockTries int
	// CacheCapacity is the size in blocks (default 8192) of every rank's
	// version-validated cache of remote block copies: vertex-holder fetches
	// revalidate cached blocks against the version counters in the
	// per-block lock words (one atomic-load train per owner rank) and skip
	// the GET traffic on a hit.
	CacheCapacity int
	// RebalanceHeatTracking enables the per-rank access-heat counters the
	// workload-aware rebalancer consumes: every vertex-holder fetch records
	// one access for (accessing rank, appID) in a rank-local shard. Off by
	// default — the hot path then pays nothing.
	RebalanceHeatTracking bool
	// HTAPSnapshots enables the MVCC-lite snapshot subsystem (package
	// snapshot): collective AcquireCut pins transaction-consistent cuts of
	// the block store while commits keep landing, and writers retire
	// overwritten block versions into per-rank arenas. Off by default — the commit path
	// then pays only an uncontended RWMutex and one atomic load per write.
	HTAPSnapshots bool
}

// withDefaults fills zero fields with workable defaults.
func (c Config) withDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = block.DefaultBlockSize
	}
	if c.BlocksPerRank == 0 {
		c.BlocksPerRank = 1 << 16
	}
	if c.DHTBucketsPerRank == 0 {
		c.DHTBucketsPerRank = 1 << 12
	}
	if c.DHTEntriesPerRank == 0 {
		c.DHTEntriesPerRank = 1 << 14
	}
	if c.LockTries == 0 {
		c.LockTries = 64
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 1 << 13
	}
	return c
}

// Engine is one distributed graph database instance (GDI supports several
// concurrent databases per environment, §3.9 — each gets its own Engine).
type Engine struct {
	fab   fabric.Transport
	store *block.Store
	index *dht.Map
	comm  *collective.Comm
	regs  []*metadata.Registry
	local []*localIndex
	heat  []*heatShard    // per-rank access-heat counters (rebalancing)
	repl  []*replicaShard // per-rank replica directories (read-scale replication)
	xlate []xlateCache    // per-rank translation caches (xlate.go)
	// frontiers holds idle frontier arenas, which a transaction takes at its
	// first hop and returns at its close (frontier.go).
	frontiers chan *frontierScratch
	cfg       Config
	mp        bool // true when some rank lives in another OS process

	// dead is the engine's view of failed ranks, filled by the transport's
	// peer-death notifications; PromoteDead drains it into follower
	// promotions.
	deadMu sync.Mutex
	dead   map[fabric.Rank]bool

	// snap is the HTAP snapshot manager (nil unless Config.HTAPSnapshots).
	// htapGate is the commit gate: commits (and live migration) hold it in
	// read mode across their whole apply phase — first write-back PUT through
	// final lock release — while AcquireCut holds it exclusively across every
	// rank's shard stamping. The exclusion makes the per-rank guard-stamp
	// trains one transaction-consistent cut: no commit is mid-write-back
	// while any rank stamps, so every commit's writes land atomically before
	// or after the cut.
	snap     *snapshot.Manager
	htapGate sync.RWMutex

	xchgOnce sync.Once
	xchg     *exchange.Exchange

	optAborts  atomic.Int64 // optimistic read transactions failing validation
	migrations atomic.Int64 // vertices moved by live migration
	migSkips   atomic.Int64 // planned migrations skipped (contention/staleness)
	forwards   atomic.Int64 // reads that chased a migration forwarding stub

	replicaReads atomic.Int64 // optimistic fetches served by a local follower
	reseeds      atomic.Int64 // follower copies seeded (initial + repair)
	promotions   atomic.Int64 // followers promoted to primary after a rank death
	replicaDrops atomic.Int64 // follower groups dropped (reshape, delete, lockstep loss)

	xlateHits   atomic.Int64 // translations the rank caches served
	xlateMisses atomic.Int64 // translations that went to the internal index
}

// localIndex is one rank's shard of the explicit indexes: the set of local
// vertices (for collective scans) and label postings. It is maintained at
// commit time, i.e. with eventual consistency relative to remote readers
// (§3.8); access is guarded because committing ranks update the owner's
// shard directly in this simulation.
type localIndex struct {
	mu      sync.Mutex
	verts   map[fabric.DPtr]uint64 // local vertex -> appID
	byLabel map[lpg.LabelID]map[fabric.DPtr]struct{}
	changes uint64 // addVertex and removeVertex calls: the shard's half of StoreEpoch
}

func newLocalIndex() *localIndex {
	return &localIndex{
		verts:   make(map[fabric.DPtr]uint64),
		byLabel: make(map[lpg.LabelID]map[fabric.DPtr]struct{}),
	}
}

// NewEngine collectively creates a database engine over fabric f.
func NewEngine(f fabric.Transport, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		fab:   f,
		store: block.NewStore(f, block.Config{BlockSize: cfg.BlockSize, BlocksPerRank: cfg.BlocksPerRank, CacheBlocks: cfg.CacheCapacity}),
		index: dht.New(f, dht.Config{BucketsPerRank: cfg.DHTBucketsPerRank, EntriesPerRank: cfg.DHTEntriesPerRank}),
		comm:  collective.New(f),
		regs:  make([]*metadata.Registry, f.Size()),
		local: make([]*localIndex, f.Size()),
		heat:  make([]*heatShard, f.Size()),
		repl:  make([]*replicaShard, f.Size()),
		xlate: make([]xlateCache, f.Size()),
		dead:  make(map[fabric.Rank]bool),
		cfg:   cfg,

		frontiers: make(chan *frontierScratch, frontierPoolSlots),
	}
	for r := range e.regs {
		e.regs[r] = metadata.NewRegistry()
		e.local[r] = newLocalIndex()
		e.heat[r] = newHeatShard()
		e.repl[r] = newReplicaShard()
		e.xlate[r].size = xlateSlots(cfg.DHTEntriesPerRank)
	}
	f.NotifyPeerDeath(func(r fabric.Rank) {
		e.deadMu.Lock()
		e.dead[r] = true
		e.deadMu.Unlock()
	})
	e.mp = computeMultiProcess(f)
	if e.mp {
		if cfg.HTAPSnapshots {
			// The snapshot manager shares cut objects and arenas by
			// reference across ranks; it has no wire representation yet.
			panic("core: HTAPSnapshots requires a shared-address-space transport (run HTAP on the simulator backend)")
		}
		e.registerServices()
	}
	if cfg.HTAPSnapshots {
		e.snap = snapshot.NewManager(e.store)
		// Writers retire the bytes a cut pins through the store's pre-write
		// hook. A version moves only when its block was written, so no
		// release can strand a cut's stamp without that hook firing first.
		e.store.SetRetirer(e.snap)
	}
	return e
}

// Fabric returns the engine's fabric.
func (e *Engine) Fabric() fabric.Transport { return e.fab }

// Comm returns the engine's communicator for user-level collectives.
func (e *Engine) Comm() *collective.Comm { return e.comm }

// exchangeBytesPerRank sizes the one-sided exchange's per-rank inbox;
// oversized rounds stream in sub-rounds.
const exchangeBytesPerRank = 1 << 21

// Exchange returns the engine's one-sided alltoallv context, allocating its
// inbox windows on first use (so OLTP-only databases never pay for them).
// The first calls may race across ranks; allocation is serialized.
func (e *Engine) Exchange() *exchange.Exchange {
	e.xchgOnce.Do(func() {
		e.xchg = exchange.New(e.fab, e.comm, exchangeBytesPerRank)
	})
	return e.xchg
}

// Store exposes the block pool (used by diagnostics and tests).
func (e *Engine) Store() *block.Store { return e.store }

// Codec returns the holder wire format, which is always holder.CodecV2.
// Kept because the benchmark module passes it to holder.EncodeVertexCodec.
func (e *Engine) Codec() holder.Codec { return holder.CodecV2 }

// Registry returns rank r's metadata replica.
func (e *Engine) Registry(r fabric.Rank) *metadata.Registry { return e.regs[r] }

// OwnerOf returns the rank a vertex with the given application ID is placed
// on. GDA distributes vertices round-robin (§5.4); the GDI spec is
// deliberately orthogonal to this choice.
func (e *Engine) OwnerOf(appID uint64) fabric.Rank {
	return fabric.Rank(appID % uint64(e.fab.Size()))
}

// lookupVertices resolves application IDs to primary DPtrs through the
// internal index, all of them at once (dht.Map.LookupBatch: two round trips
// per remote rank per chunk at chain length one, where a loop of scalar
// lookups pays two per ID). ok[i] is false for an ID the index does not hold.
func (e *Engine) lookupVertices(origin fabric.Rank, apps []uint64) (dps []fabric.DPtr, ok []bool) {
	vals := make([]uint64, len(apps))
	ok = make([]bool, len(apps))
	e.index.LookupBatch(origin, apps, vals, ok)
	dps = make([]fabric.DPtr, len(apps))
	for i, v := range vals {
		dps[i] = fabric.DPtr(v)
	}
	return dps, ok
}

// DefineLabel registers a label on every replica. It is the driver-context
// convenience for the collective GDI_CreateLabel; inside SPMD code use
// CreateLabelCollective.
func (e *Engine) DefineLabel(name string) (lpg.LabelID, error) {
	var id lpg.LabelID
	for r, reg := range e.regs {
		l, err := reg.AddLabel(name)
		if err != nil {
			return 0, err
		}
		if r == 0 {
			id = l.ID
		} else if l.ID != id {
			return 0, fmt.Errorf("core: replica divergence registering label %q", name)
		}
	}
	return id, nil
}

// DefinePType registers a property type on every replica (driver-context
// form of the collective GDI_CreatePropertyType).
func (e *Engine) DefinePType(name string, spec metadata.PTypeSpec) (lpg.PTypeID, error) {
	var id lpg.PTypeID
	for r, reg := range e.regs {
		pt, err := reg.AddPType(name, spec)
		if err != nil {
			return 0, err
		}
		if r == 0 {
			id = pt.ID
		} else if pt.ID != id {
			return 0, fmt.Errorf("core: replica divergence registering p-type %q", name)
		}
	}
	return id, nil
}

// CreateLabelCollective registers a label from SPMD context: every rank must
// call it with the same name. Collective, O(log P) depth for the barrier.
func (e *Engine) CreateLabelCollective(rank fabric.Rank, name string) (lpg.LabelID, error) {
	e.comm.Barrier(rank)
	l, err := e.regs[rank].AddLabel(name)
	e.comm.Barrier(rank)
	if err != nil {
		return 0, err
	}
	return l.ID, nil
}

// CreatePTypeCollective registers a property type from SPMD context.
func (e *Engine) CreatePTypeCollective(rank fabric.Rank, name string, spec metadata.PTypeSpec) (lpg.PTypeID, error) {
	e.comm.Barrier(rank)
	pt, err := e.regs[rank].AddPType(name, spec)
	e.comm.Barrier(rank)
	if err != nil {
		return 0, err
	}
	return pt.ID, nil
}

// LocalVertices snapshots rank r's vertex shard: the "get local vertices of
// an index" primitive collective transactions iterate (Listings 2 and 3).
func (e *Engine) LocalVertices(r fabric.Rank) []fabric.DPtr {
	li := e.local[r]
	li.mu.Lock()
	defer li.mu.Unlock()
	out := make([]fabric.DPtr, 0, len(li.verts))
	for dp := range li.verts {
		out = append(out, dp)
	}
	return out
}

// LocalVertexCount returns the size of rank r's vertex shard.
func (e *Engine) LocalVertexCount(r fabric.Rank) int {
	li := e.local[r]
	li.mu.Lock()
	defer li.mu.Unlock()
	return len(li.verts)
}

// LocalVerticesWithLabel snapshots rank r's posting list for one label.
func (e *Engine) LocalVerticesWithLabel(r fabric.Rank, l lpg.LabelID) []fabric.DPtr {
	li := e.local[r]
	li.mu.Lock()
	defer li.mu.Unlock()
	out := make([]fabric.DPtr, 0, len(li.byLabel[l]))
	for dp := range li.byLabel[l] {
		out = append(out, dp)
	}
	return out
}

// StoreEpoch is rank r's store epoch: a counter that moves after every change
// to what a scan of r's shard reads — r's vertex set (LocalVertices) and the
// holder bytes behind it. It sums the block store's write count (Store.Epoch:
// every block-data write call this process issues, to any rank) and r's
// vertex-set changes, each bumped after the write or the change has landed.
// So a reader that samples the epoch before it reads the shard either sees a
// concurrent change or samples a larger epoch afterwards. A commit publishes
// a new vertex after its blocks land, which is why the vertex-set half is
// needed beside the store half.
//
// On a wire transport the epoch covers the writes this process issues and
// the shard changes served here: a write into a remote rank's holder moves
// the writer's epoch, not the owner's. Analytics compare epochs across ranks
// with one OR-reduction, so the writer's vote covers the owner.
func (e *Engine) StoreEpoch(r fabric.Rank) uint64 {
	li := e.local[r]
	li.mu.Lock()
	defer li.mu.Unlock()
	return e.store.Epoch() + li.changes
}

func (li *localIndex) addVertex(dp fabric.DPtr, appID uint64, labels []lpg.LabelID) {
	li.mu.Lock()
	defer li.mu.Unlock()
	li.verts[dp] = appID
	for _, l := range labels {
		set, ok := li.byLabel[l]
		if !ok {
			set = make(map[fabric.DPtr]struct{})
			li.byLabel[l] = set
		}
		set[dp] = struct{}{}
	}
	li.changes++
}

func (li *localIndex) removeVertex(dp fabric.DPtr, labels []lpg.LabelID) {
	li.mu.Lock()
	defer li.mu.Unlock()
	delete(li.verts, dp)
	for _, l := range labels {
		if set, ok := li.byLabel[l]; ok {
			delete(set, dp)
		}
	}
	li.changes++
}

func (li *localIndex) updateLabels(dp fabric.DPtr, old, new []lpg.LabelID) {
	li.mu.Lock()
	defer li.mu.Unlock()
	for _, l := range old {
		if set, ok := li.byLabel[l]; ok {
			delete(set, dp)
		}
	}
	for _, l := range new {
		set, ok := li.byLabel[l]
		if !ok {
			set = make(map[fabric.DPtr]struct{})
			li.byLabel[l] = set
		}
		set[dp] = struct{}{}
	}
}

// FreeBlocks reports the number of free blocks on rank r (diagnostics).
func (e *Engine) FreeBlocks(r fabric.Rank) int { return e.store.FreeBlocks(r, r) }

// OptimisticAborts reports how many optimistic read transactions failed
// version validation at commit — the optimistic-abort counter OLTP reports
// print alongside the train counters.
func (e *Engine) OptimisticAborts() int64 { return e.optAborts.Load() }

// Migrations reports how many vertices live migration has moved.
func (e *Engine) Migrations() int64 { return e.migrations.Load() }

// MigrationSkips reports planned migrations that were skipped because the
// vertex was lock-contended, already moved, or deleted by plan-apply time.
func (e *Engine) MigrationSkips() int64 { return e.migSkips.Load() }

// ForwardedReads reports how many holder fetches chased a migration
// forwarding stub to the vertex's current primary (stale-DPtr traffic; it
// decays as transactions re-translate IDs against the swung DHT entries).
func (e *Engine) ForwardedReads() int64 { return e.forwards.Load() }

// ReplicaReads reports how many optimistic fetches were served from a local
// follower copy instead of paying the remote fetch trains.
func (e *Engine) ReplicaReads() int64 { return e.replicaReads.Load() }

// Reseeds reports how many follower copies have been seeded (initial
// replication plus post-failure repair).
func (e *Engine) Reseeds() int64 { return e.reseeds.Load() }

// Promotions reports how many followers have been promoted to primary after
// a rank death.
func (e *Engine) Promotions() int64 { return e.promotions.Load() }

// ReplicaDrops reports how many follower groups were dropped — by a reshaping
// or deleting commit, or because a follower fell out of lockstep.
func (e *Engine) ReplicaDrops() int64 { return e.replicaDrops.Load() }

// ReplicaCount reports how many follower copies rank r currently hosts.
func (e *Engine) ReplicaCount(r fabric.Rank) int { return e.repl[r].size() }

// isDead reports the engine's view of rank r's liveness (union of the
// transport's advisory signal and the deaths already notified).
func (e *Engine) isDead(r fabric.Rank) bool {
	e.deadMu.Lock()
	d := e.dead[r]
	e.deadMu.Unlock()
	return d || !e.fab.Alive(r)
}

// deadSet snapshots the set of ranks the engine believes dead.
func (e *Engine) deadSet() map[fabric.Rank]bool {
	out := make(map[fabric.Rank]bool)
	e.deadMu.Lock()
	for r := range e.dead {
		out[r] = true
	}
	e.deadMu.Unlock()
	for r := 0; r < e.fab.Size(); r++ {
		if !e.fab.Alive(fabric.Rank(r)) {
			out[fabric.Rank(r)] = true
		}
	}
	return out
}

// Snapshots returns the HTAP snapshot manager, or nil when
// Config.HTAPSnapshots is off.
func (e *Engine) Snapshots() *snapshot.Manager { return e.snap }

// SnapshotCuts reports how many HTAP cuts have been acquired.
func (e *Engine) SnapshotCuts() int64 {
	if e.snap == nil {
		return 0
	}
	return e.snap.CutsAcquired()
}

// RetiredBlocks reports how many block versions writers have retired into
// the snapshot arenas on behalf of pinned cuts.
func (e *Engine) RetiredBlocks() int64 {
	if e.snap == nil {
		return 0
	}
	return e.snap.RetiredBlocks()
}

// ArenaBytes reports how many retired-version bytes the snapshot arenas
// currently hold; zero once every cut has released.
func (e *Engine) ArenaBytes() int64 {
	if e.snap == nil {
		return 0
	}
	return e.snap.ArenaBytes()
}
