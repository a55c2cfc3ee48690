// Package gdi is a Go implementation of the Graph Database Interface (GDI)
// of Besta, Gerstenberger, et al., "The Graph Database Interface: Scaling
// Online Transactional and Analytical Graph Workloads to Hundreds of
// Thousands of Cores" (SC 2023), together with GDI-RMA ("GDA"), the paper's
// RDMA-based implementation, rebuilt on a simulated one-sided RMA fabric.
//
// GDI is a storage-layer interface for graph databases: CRUD on the Labeled
// Property Graph model (vertices, edges, labels, properties), ACID
// transactions (local and collective), explicit indexes, and DNF
// constraints. The interface is decoupled from its implementation, exactly
// as MPI is; this package provides both the interface surface and one
// high-performance implementation.
//
// # Execution model
//
// Like MPI programs, GDI programs are SPMD: a Runtime hosts P simulated
// processes ("ranks", playing the paper's compute servers), and application
// code runs on every rank:
//
//	rt := gdi.Init(8)
//	defer rt.Finalize()
//	db := rt.CreateDatabase(gdi.DatabaseParams{})
//	person, _ := db.DefineLabel("Person")
//	rt.Run(db, func(p *gdi.Process) {
//	    tx := p.StartTransaction(gdi.ReadWrite)
//	    v, _ := tx.CreateVertex(uint64(p.Rank()))
//	    h, _ := tx.AssociateVertex(v)
//	    h.AddLabel(person)
//	    tx.Commit()
//	})
//
// # Mapping to the GDI specification
//
// The C-style routines of the GDI specification map to Go as follows
// (the semantics, including collective-vs-local classification, §3.2, are
// preserved):
//
//	GDI_Init / GDI_Finalize                    Init / Runtime.Finalize
//	GDI_CreateDatabase                         Runtime.CreateDatabase
//	GDI_CreateLabel [C]                        Database.DefineLabel / Process.CreateLabel
//	GDI_CreatePropertyType [C]                 Database.DefinePType / Process.CreatePType
//	GDI_GetLabelFromName                       Process.LabelByName
//	GDI_StartTransaction [L]                   Process.StartTransaction
//	GDI_StartCollectiveTransaction [C]         Process.StartCollectiveTransaction
//	GDI_CloseTransaction [L]                   Transaction.Commit / Transaction.Abort
//	GDI_TranslateVertexID [L]                  Transaction.TranslateVertexID
//	GDI_AssociateVertex [L]                    Transaction.AssociateVertex
//	GDI_AssociateVertex (non-blocking) [L]     Transaction.AssociateVertexAsync
//	GDI_AssociateVertex (vectored) [L]         Transaction.AssociateVertices
//	GDI_CreateVertex / GDI_DeleteVertex        Transaction.CreateVertex / DeleteVertex
//	GDI_CreateEdge / GDI_DeleteEdge            Transaction.CreateEdge / DeleteEdge
//	GDI_AddLabelToVertex                       Vertex.AddLabel
//	GDI_GetAllLabelsOfVertex                   Vertex.Labels
//	GDI_AddPropertyToVertex                    Vertex.AddProperty
//	GDI_UpdatePropertyOfVertex                 Vertex.SetProperty
//	GDI_GetPropertiesOfVertex                  Vertex.Properties / Vertex.Property
//	GDI_GetEdgesOfVertex                       Vertex.Edges
//	GDI_GetNeighborVerticesOfVertex            Vertex.Neighbors
//	GDI_GetLocalVerticesOfIndex [L]            Process.LocalVerticesWithLabel
//	GDI_Bulk load vertices/edges [C]           Process.BulkLoadVertices / BulkLoadEdges
//	GDI constraints (§3.6)                     Constraint / Subconstraint builders
//
// # Non-blocking operations
//
// Like MPI — and like the GDI specification, which deliberately mirrors
// MPI's blocking/non-blocking split — the hot read path comes in two tiers.
// The blocking tier (Transaction.AssociateVertex) completes each remote
// access before returning: simple, but a traversal that associates its
// frontier one vertex at a time pays one full remote round-trip per vertex,
// serially. The non-blocking tier decouples issuing from completion:
//
//	futs := make([]*gdi.VertexFuture, len(frontier))
//	for i, v := range frontier {
//	    futs[i] = tx.AssociateVertexAsync(v) // queue; no communication
//	}
//	for _, f := range futs {
//	    h, err := f.Wait()                   // first Wait flushes the queue
//	    ...
//	}
//
// Queued fetches are flushed together: grouped by owner rank and issued as
// vectored one-sided read trains, so a frontier spanning k ranks costs k
// remote latencies instead of len(frontier) (§5.6's pipelining of one-sided
// accesses, the mechanism behind GDI-RMA's frontier-expansion scalability).
// Transaction.AssociateVertices wraps the queue-then-flush pattern into one
// call and reports missing vertices positionally as nil handles; it is what
// the analytics kernels (BFS, k-hop, LCC) use to expand whole frontiers.
// VertexFuture.Test polls for completion without communicating.
//
// Use futures or the batch call whenever more than one association is in
// flight and the results are not needed between issues — frontier
// expansions, neighborhood materializations, multi-vertex lookups. Stay
// with the blocking call when the next access depends on the previous
// result (pointer chasing) or inside mutating code paths, where the
// fetch-then-mutate ordering reads most naturally. Both tiers share the
// per-transaction cache and read protocol, so they can be mixed freely;
// a blocking call implies a flush of everything queued, exactly as a
// blocking MPI call implies progress.
//
// # Batched writes
//
// The write path mirrors the read tier's batching. During a read-write
// transaction, mutations do not pay remote lock round-trips: a transaction
// reads optimistically (below), and a mutation only marks its holder dirty,
// which defers the holder's exclusive lock to commit; a freshly created
// vertex is unpublished until commit, so nothing can reach it before then.
// Commit then organizes all remote write traffic into trains:
//
//  1. Lock train and validation (prepare). Every dirty holder — rewritten,
//     created or deleted vertices and heavy-edge holders — is locked as one
//     vectored CAS train per owner rank, in globally sorted (deadlock-free)
//     order, each word seeded with the version its holder was read at, so
//     an uncontended train takes one round per rank. The read set is then
//     validated: a word the lock train took passes when it carries the
//     version read, and every other holder read is checked by one
//     atomic-load train per owner rank, failing on a moved version or a
//     word another writer holds. Contention or a moved version rolls back
//     and aborts the transaction with ErrTransactionCritical.
//  2. Write-back train (apply). All dirty holder blocks and deletion
//     poisons are flushed as one vectored PUT train per owner rank, instead
//     of one blocking PUT per block. Each transaction lands its own write
//     set; concurrent committers of one rank never overlap, because each
//     holds exclusive locks on its holders. Each rank's train is isolated:
//     a train to a rank that died mid-write is absorbed, and the trains to
//     the live ranks still land.
//  3. Release train. All locks still held at the end of commit are dropped
//     as one train per owner rank, again seeded with the versions they are
//     held at.
//
// A transaction's effects become visible only between its write-back
// landing and its locks releasing, so readers never observe partial
// commits, and the prepare/apply split keeps aborts clean (a transaction
// that fails in prepare — lock train, stale metadata, block exhaustion — has
// written nothing). Lock conflicts surface at Commit: two writers contending
// for the same vertex both proceed past their mutating calls and one (or
// both) fails there. Under injected remote latency a commit touching holders
// on k ranks pays O(k) round-trips rather than one per lock word and dirty
// block.
//
// # ID translation and bulk loading
//
// Application IDs resolve to internal DPtrs through the offloaded DHT. A
// lookup is the bucket load plus one four-word atomic-load train per chain
// hop — two round trips at chain length one. Transaction.TranslateVertexID
// associates the vertex it translates, and each rank caches the answer with
// its guard version: a hit costs 0 round trips beyond the association (see
// ARCHITECTURE.md, "Life of a translation"). Process.BulkLoadVertices and
// Process.BulkLoadEdges are collective and translate in trains too (they
// never fill the cache): vertices are routed to their
// owners with one all-to-all and their index entries to the keys' home ranks
// with a second, where they are inserted locally; the edge loader resolves
// each distinct endpoint once, with a batched level-synchronous lookup (one
// train per rank per chain level), instead of twice per edge. The outcome of
// a bulk load is collective: if any rank meets a missing endpoint
// (ErrNotFound), an exhausted block pool or a full index (ErrNoMemory),
// every rank returns an error wrapping the same sentinel, and none is left
// waiting in an exchange. Size the index for the graph
// (DatabaseParams.IndexEntriesPerRank of about twice the vertices per rank):
// a full index now fails the load, or the commit that creates the vertex,
// where it used to store vertices nobody could find.
//
// # Caching and optimistic reads
//
// The third read-path tier avoids remote traffic entirely. Every per-vertex
// lock word carries a version counter that a release bumps iff its hold
// wrote the block; holder content only changes while the write bit is set,
// and a hold that wrote nothing (a failed commit, a migration given up)
// drops the word at its version. That one word is a full coherence
// protocol:
//
//   - Block cache (DatabaseParams.CacheCapacity blocks). Each process keeps
//     an LRU cache of remote block copies stamped with the guard version
//     they were read at. A fetch loads the guard words — one train per owner
//     rank, however many holders it covers — and any cached block whose
//     stamp matches the current version (write bit clear) is served
//     locally, with no GET traffic. Misses are installed for next time; a
//     bumped version simply makes the stale copy miss. There are no
//     invalidation messages: writers invalidate by releasing their locks.
//
//   - Optimistic reads. No transaction takes read locks, a collective one
//     included. A fetch is accepted only if its guard shows the same
//     version with the write bit clear on both sides of the read (cached
//     copies satisfy this by construction, so a fully cached
//     fetch needs no second look), and the transaction records every
//     (holder, version) pair it read. The guard loads ride the fetch's own trains:
//     a guarded GET train (fabric.ByteWin.GuardedGetBatch, one round trip)
//     loads the word, GETs the block and loads the word again, so a cold
//     one-block holder costs one round trip and a k-block chain k
//     (ARCHITECTURE.md, "Life of a holder read"). Commit
//     validates the whole read set with one atomic-load train per owner
//     rank (a read-write transaction after its lock train, which vouches
//     for what it locked): if every version is unchanged the transaction
//     serializes at that instant; if any moved, it fails with
//     ErrTransactionCritical — the optimistic abort of §3.8 — and the
//     caller retries, exactly as with lock contention. A collective
//     transaction is a local one between barriers: it reads the same way,
//     and each rank's Commit validates that rank's read set, so its
//     outcome is per-rank.
//
// Every tier reads a holder's chain through one batched reader, which also
// rejects a block whose count or table names no real chain (ARCHITECTURE.md,
// "Life of a holder read"). Cache hit/miss counters surface in the fabric
// snapshots and in the gdi-oltp report alongside the train counters.
//
// # Query layer
//
// internal/query is a small declarative traversal layer over the
// transactional API: a Pattern names a motif — k-hop expansion, triangles
// through a source, fixed-length simple paths — with an optional DNF
// constraint per hop (§3.6 label/property predicates), a LIMIT, and a
// property projection. query.Run compiles the pattern onto
// Transaction.ExpandFrontier: each hop's frontier is deduplicated, read in
// one batched round — one vectored GET train per owner rank, regardless of
// frontier size — filtered against the hop's constraint, and its neighbor
// union becomes the next frontier. The naive reference executor
// (query.RunNaive) keeps the same contract on handles, one scalar
// AssociateVertex round trip per vertex; the two are golden-tested
// equivalent across replicated engines, migrated vertices, and read-only
// and read-write transactions, and TestCompiledExpansionBatchesTrains pins the
// count: the compiled plan rides at most one GET train per owner rank per
// hop, the naive walk none, with identical rows. Results are canonically
// ordered, so runs are reproducible under any association interleaving.
//
// Traversal cost model. A hop does not materialize handles. In a local
// transaction a frontier vertex costs one guard stamp, which its read loads
// in the GET train ahead of its head block (no load train goes first), the
// blocks the hop needs of it, and the bytes of its labels and properties —
// no heap object: holders are read into a pooled frontier arena the transaction holds
// until it closes (cache hits copied, misses in one GET train per rank per
// round), the constraint is evaluated in place on the encoded entry region,
// neighbors are harvested straight off the varint runs a run at a time, and
// a (vertex, version) pair joins the read set Commit
// revalidates. What a hop fetches depends on what it does next: a harvesting
// hop reads whole chains (it wants the edges); the last, filter-only hop reads
// each holder only up to the end of its entries — the holder stream is
// header | table | homes | replicas | entries | edges, so that is the
// primary block for all but mega-hubs, and a frontier vertex costs its
// properties, not its degree. A hop allocates its results, its read-set
// growth and the fabric's word slices, one per train and rank: a warm
// read-only transaction that runs one hop and commits allocates at most 9
// objects, whatever the hop's width and its vertices' degrees (CI pins this
// next to the point-read guard). Closing the transaction returns the arena
// to a pool that keeps at most two of them, each of at most 1 MiB.
// LIMIT is a bounded top-k on the canonical order over IDs, and a
// projection costs no round of its own: the final round copies the
// projected property of each vertex it returns out of the entries it has
// just read and matched (or out of the handle it saw the vertex through), so
// the rows are built without an association, and the read set holds each
// row once. LIMIT also stops the last hop early, whose cost follows what it reads, not the width
// of the layer: the query's final round is one call
// (Transaction.FilterNeighbors), whose harvest ORs each neighbor into the
// hop's bitmap — a bitmap over the DPtr space, kept in 64-byte pages that
// exist only where a neighbor falls, so bit order is ascending DPtr order
// and a hop costs the pages its neighbors fall on, not the pool's size — and
// drops the layers before the last from it, with no per-neighbor test, list
// or copy. The hop then reads its candidates
// straight off the bits: each is an 8-byte DPtr until the hop stamps,
// resolves or reads it, and only then gets a record. A rank's forwarding
// word, which every migration that publishes a stub on the rank bumps, tells
// the hop with one load that none of the rank's DPtrs is a stub, and the
// lock word's stub bit tells it which DPtrs of the other ranks are; every
// other DPtr is its vertex's ID. So the hop reads the next set bits after a
// cursor, a chunk at a time, until LIMIT matches sort below the next set
// bit, loading only the guard words of what it reads, and ends with one
// clear of the pages the harvest touched. A LIMIT also bounds the harvest:
// a light run's neighbors ascend, so the harvest leaves every run of 8
// records or more undecoded, paused at its head, and the reader feeds the
// paused runs only up to a bound it raises as its reads need candidates —
// the first spans 2×LIMIT blocks from the lowest head, and each raise
// doubles it — so a LIMIT round decodes the records below its last bound,
// not its layer's degree. The bound is lifted, and every run fed to its
// end, when a rank that may hold a candidate is dead or has held a stub, or
// the transaction must see vertices through handles. Without a LIMIT the
// same reader reads every candidate in one chunk: there is one filter-only
// reader, whether a harvest feeds it or a list
// (Transaction.FilterFrontier).
// Commit validates the forwarding words of the ranks whose vertices went
// unread, and the stamped versions of the unread vertices elsewhere: a write
// to an unread vertex does not fail it, a migration does. Forwarding stubs,
// follower-served vertices, holders caught mid-write, and the vertices a
// writing transaction holds (so it sees its own writes and deletions) fall
// back to one AssociateVertices batch; a frontier vertex that no longer
// exists is ErrNotFound.
//
// The cmd/gdi-ldbc driver exercises the layer end to end with an
// LDBC-SNB-interactive-flavored mix — IS-style point reads, IC-style 2-hop
// friend-of-friend patterns with an age predicate, and U-style updates —
// reporting per-query-class latency and the train counters that show what
// the compiled plans put on the wire.
//
// # Analytics kernels
//
// The iterative OLAP kernels (BFS, PageRank, CDLP, WCC, LCC) compact each
// rank's shard into a CSR snapshot, which the caller's analytics.Graph keeps
// until the store epoch moves (ARCHITECTURE.md, "Life of an analytics
// snapshot"). A collective index-exchange pass assigns every local vertex a
// dense int32 index (ascending VertexID order) and resolves every neighbor —
// each distinct remote neighbor is looked up on its owner exactly once — to a
// pre-resolved (rank, remoteIndex) pair. Adjacency then lives in flat
// offset+target arrays (the CSR layout of the high-performance graph
// literature) and iteration values in dense []float64/[]uint64 arrays, so the
// kernels run with zero map lookups and zero per-edge allocations.
//
// Iteration traffic moves through a one-sided exchange
// (alltoallv) built on per-rank RMA inboxes: each rank's inbox segment is
// statically partitioned into one slot per source, and a sender writes its
// whole per-destination payload — however many messages it carries — as a
// single vectored PUT train into its slot, paying the injected remote
// latency once per destination rank and round (the §5.6 message-aggregation
// pattern). Receivers drain their own slots locally; payloads larger than a
// slot stream transparently over sub-rounds, with a dissemination or-reduce
// doubling as the epoch-closing barrier. Self-rank buckets are handed over
// directly and never touch the fabric: a rank-local round issues zero PUT
// trains, which a counter-based test enforces. All exchange traffic is
// visible in the PutBatches/BytesPut counters and in the gdi-olap
// bytes-moved report columns.
//
// BFS is direction-optimizing over bitmap frontiers in the dense index
// space: sparse levels push frontier indices to their owners
// (bitmap-deduplicated per destination), and once the frontier grows dense
// relative to the unvisited remainder (Beamer's heuristic on vertex counts)
// the level switches to pull — the claimed-frontier bitmap is broadcast and
// every rank scans its own unvisited vertices for a frontier neighbor.
// BFSDense reports the push/pull split per traversal.
//
// LCC counts triangles over a degree orientation — each edge points to the
// endpoint higher in the global (degree, packed ID) order, so an out-set
// holds at most √(2m) vertices — which meets the paper's O(n + m^{3/2})
// bound in three exchange rounds (degrees, out-sets, corner credits) that
// ship each out-set once per rank it touches, so its bytes grow with the
// out-sets rather than with Σ deg².
//
// PageRank, WCC and CDLP pull through a mirror plan built once per CSR
// (Gemini's mirror/ghost scheme): each iteration sends one 8-byte value per
// (vertex, other rank holding a neighbor of it), not one record per edge,
// and each vertex gathers its in-neighbors' values through precomputed
// slots. PageRank's slots follow the order of its straightforward map-based
// formulation (source rank, ascending source ID, holder record order); the
// other kernels' results do not depend on order. The tests keep the
// map-based kernels as an oracle: PageRank/CDLP/WCC results are
// bit-identical to it (LCC's too, since its per-vertex counts are integers),
// also after live migration, and the dense arrays make PageRank run-to-run
// deterministic (no map-iteration order in the sums). KHop, BI2 and the GNN layer are the OLSP side instead:
// collective transactions that associate vertices through handles.
//
// # Live rebalancing
//
// Process.Rebalance moves hot vertices to the rank that reads them most,
// without stopping traffic: heat tracking (DatabaseParams.RebalanceHeatTracking)
// samples accesses rank-locally, rank 0 plans greedy Schism-style moves, and
// each destination runs migration trains that copy holder chains under
// best-effort write locks, leave one-hop forwarding stubs at the vacated
// blocks, swing the DHT entries and release with a version bump, which is
// the whole invalidation broadcast; the release also sets each stub's lock
// word stub bit, so a reader's stamp knows a stub before it fetches one. ARCHITECTURE.md, "Life of a chain move",
// describes the train; TestMigrationCoherenceStress and
// TestRebalanceMovesHotVerticesToAccessor test it, the latter counting a hot
// read round's remote operations: some before the round, none after it.
//
// # Replication
//
// k-replica holder chains (Process.Replicate, Process.ReplicateHot) keep up
// to k-1 follower copies of a vertex's chain on other ranks, in lockstep
// with the primary through mirrored version words: commits fan same-shape
// rewrites out to them, optimistic reads are served by a local follower and
// validated against the primary, and Process.PromoteDead fails a dead rank's
// vertices over to one surviving follower each through a single DHT
// compare-and-swap. ARCHITECTURE.md, "Life of a replicated commit" and "Life
// of a chain move", describe the protocol; TestKillARankFailoverStress,
// gdi-cluster -kill and TestReplicateSeedsFollowerAndServesReads test it,
// the latter counting a warm follower-served read: no GET, and one
// validation load at the primary.
//
// # HTAP snapshots
//
// DatabaseParams.HTAPSnapshots adds an MVCC-lite layer so the iterative
// analytics kernels run over a consistent snapshot while OLTP commit trains
// keep landing — no stop-the-world quiesce, and no second copy of the
// database. The subsystem keys everything off state the engine already
// maintains: the 31-bit version counters in every block's lock word, and
// the commit gate the write path already passes through.
//
//   - Cut acquisition: analytics.OpenHTAP pins a cut collectively. Rank 0
//     takes the commit gate exclusively — in-flight commits drain, new ones
//     wait — and every rank stamps its shard with one guard-word train
//     (snapshot.Manager.PinRank reads all lock-word versions in a single
//     batched load) and records its vertex listing.
//     The gate reopens after one barrier; pinning costs OLTP a pause
//     proportional to one lock-word scan, not to the analytics runtime.
//
//   - Version retirement: after the cut is live, a writer about to
//     overwrite or free a block whose stamped version some active cut pinned
//     first copies the old bytes into its rank's version arena (the
//     copy-on-write step, hooked into the block store's pre-write path; a
//     release that wrote nothing moves no version, so nothing else needs a
//     hook). A cut reader that loses the race — the block's
//     version no longer matches its stamp — finds the retired bytes in the
//     arena instead; the read protocol re-checks the arena after the live
//     read so the handoff has no window. An arena entry is shared only by
//     the cuts pinned when it was retired (a continuation block's lock word
//     never moves, so a later cut stamping the same version gets its own
//     entry), reference-counted by them and freed when the last releases;
//     Engine.ArenaBytes must return to zero once all sessions close (a
//     leak test holds it there, including for cuts dropped mid-iteration
//     via HTAPSession.Drop).
//
//   - Refresh: HTAPSession.Refresh pins a new cut, releases the old one and
//     rebuilds the session's CSR from the new cut — the very build OpenHTAP
//     runs, so a refreshed session is bit-identical to one opened at the
//     same cut (golden-tested across commits, live migration and bulk
//     loads). The write path keeps no log for it: a commit's only HTAP work
//     is passing the commit gate and retiring the blocks a cut pinned.
//
// Knobs and counters: DatabaseParams.HTAPSnapshots enables the subsystem
// (commits skip all of it when off); Engine.SnapshotCuts, RetiredBlocks and
// ArenaBytes expose cut and copy-on-write activity.
// TestHTAPCutStableUnderWrites pins a cut while commits land and retire block
// versions, and requires the cut's PageRank to be bit-identical to the
// quiesced run. TestHTAPCoherenceStress runs writers,
// optimistic readers, and repeated cut PageRank + Refresh rounds under the
// race detector in CI; gdi-olap -htap reports cut-analytics wall time next
// to the served QPS of a live LinkBench load.
//
// # Holder wire format
//
// Holder chains — the per-vertex block streams everything above the block
// store reads and writes — share one wire format: a 32-byte header, the
// block table, the former-homes list and the replica groups (the regions
// SetTableEntry, RewriteAsReplica, migration and failover rewrite in place),
// then the varint label/property entries, then the edge records as
// delta+varint runs:
//
//   - Maximal runs of consecutive edge records sharing (direction, weight
//     class, label) collapse to one uvarint run header, the label, the first
//     neighbor DPtr as an absolute uvarint, and zig-zag varint deltas
//     between successors. Neighbors that land near each other — the common
//     case under locality-aware placement, where co-resident DPtrs differ
//     only in their offset bits — cost one or two bytes each instead of
//     eight.
//
//   - Edge UIDs index into the records, so nothing reorders stored records.
//     A transaction's CreateEdge appends in insertion order; a bulk edge load
//     appends each vertex's batch in canonical order — grouped by
//     (direction, weight class, label), neighbors ascending — so a
//     bulk-loaded holder has one run per group, mostly one-byte deltas, and
//     the same bytes however the edge specs were dealt to the ranks.
//
//   - An inline flag marks single-block holders: a holder whose whole stream
//     fits its head block skips the chain walk entirely on the read path.
//
// The read path is allocation-free in steady state: point reads run through
// a per-worker ReadArena whose view decodes varints in place from the
// fetched blocks — no materialized edge slices — and a CI allocation guard
// asserts 0 allocs/op on the cached optimistic point-read and
// ForEachNeighbor paths, and at most two per read-only Edges call (outside
// -race builds, whose shadow allocations would distort
// testing.AllocsPerRun): its result, an EdgeList, is the neighbor array
// GDI_GetEdgesOfVertex fills, 8 bytes an edge, into which each light run is
// decoded in place, plus a table of the runs the edges came from. The edge region has one decoder, the holder
// package's EdgeCursor; ARCHITECTURE.md's "Life of a holder read" names its
// callers. The cursor, its varint readers and the whole-holder round trip
// are fuzzed (FuzzVarintEdgeRun against a reference decoder, FuzzUvarint,
// FuzzHolderV2RoundTrip) with checked-in corpora.
//
// # Fabric backends
//
// All one-sided communication flows through the fabric SPI
// (internal/fabric): ByteWin and WordWin RMA windows with vectored op
// trains, per-rank Inboxes, an ordered Messenger carrying the collective
// layer, control-plane service calls, and the traffic counters. Everything
// above the seam — the transaction engine, the lock and commit trains, the
// block cache, the dense analytics exchange — is backend-agnostic. Two
// backends implement it:
//
//   - The in-process simulator (internal/rma), built by Init: all ranks are
//     goroutines in one address space, windows are shared slices, and the
//     fabric carries the injectable latency model and the per-op counters
//     the traffic-contract tests count.
//
//   - The TCP wire transport (internal/fabric/tcp), passed to
//     InitWithTransport: one OS process per rank in a full connection mesh,
//     every remote operation or vectored train one framed request/response
//     round-trip serviced in the owner's process. Windows are identified
//     across processes by collective allocation order, which Transport.Run
//     verifies before releasing application code. Command gdi-cluster
//     launches such a cluster; CI's cluster-smoke job diffs its dense
//     analytics output against the simulator's, bit-identical at equal
//     seed.
//
// Restrictions on the wire: DatabaseParams.HTAPSnapshots is refused at
// engine construction (the cut broadcast relies on a shared address space),
// and payloads crossing wire collectives must be gob-encodable. See
// ARCHITECTURE.md in the repository root for the layer diagram and the two
// SPMD contracts backends must honor, and docs/OPERATIONS.md for launching
// and operating clusters.
//
// # Consistency (§3.8)
//
// Graph data is serializable: transactions read optimistically and validate
// their reads at commit, and write-lock what they write at commit with
// bounded acquisition; contended or invalidated transactions fail with
// ErrTransactionCritical and must be restarted by the caller (this is what
// the paper reports as the failed-transaction percentage).
// Metadata and indexes are eventually consistent; write transactions that
// race a metadata change detect staleness at commit and abort. Live
// migration preserves all of this: a migration train holds the vertex's
// exclusive lock, so it serializes against writers, and readers reject any
// snapshot that raced a move, at read time or at commit.
package gdi
