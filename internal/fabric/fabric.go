// Package fabric defines the service-provider interface (SPI) between the
// GDI engine layers and the interconnect that carries their one-sided
// traffic — the hexagonal seam of the system: contracts live here, mechanisms
// live behind them.
//
// The paper's GDI-RMA implementation runs on Cray Aries RDMA hardware through
// foMPI's MPI-3 one-sided routines. This reproduction has two backends:
//
//   - package rma, the process-local simulator (all ranks are goroutines in
//     one address space, with per-op traffic counters and an injectable
//     latency model for the ablation experiments);
//   - package fabric/tcp, a real multi-process transport (each rank is its
//     own OS process; one-sided operations travel as framed request/response
//     trains over a TCP mesh).
//
// Everything above this package — locks, block store, DHT, collectives,
// exchange, core transaction engine, snapshots, analytics — depends only on
// the interfaces here, so the same engine binary runs unmodified over either
// backend. The defining one-sided property is part of the contract: the
// target rank's *application* code never executes on the data path. (The TCP
// backend services remote operations with a transport-owned handler
// goroutine, exactly as an RDMA NIC services them with its DMA engine.)
//
// # SPMD contract
//
// Programs are SPMD, as with MPI: every rank executes the same code, and
// window allocation (NewByteWin, NewWordWin, NewInbox) is collective — all
// ranks must perform the same allocations in the same order, because windows
// are identified across processes by allocation sequence. Wire transports
// verify the sequence at launch (see Transport.Run) and fail fast on a
// divergence instead of silently corrupting remote memory.
package fabric

import "fmt"

// ByteWin is a byte-granularity RMA window: every rank owns a segment of
// SegSize bytes, and any rank may Put/Get arbitrary ranges of any segment.
// It models the MPI data window used by BGDL for block payloads.
//
// Bulk accesses are atomic at page granularity (mirroring the per-cache-line
// atomicity a DMA engine provides); higher layers are responsible for
// protocol-level consistency, exactly as with real RDMA.
type ByteWin interface {
	// SegSize returns the per-rank segment size in bytes.
	SegSize() int
	// Put writes data into target's segment at off (one-sided PUT).
	Put(origin, target Rank, off int, data []byte)
	// Get reads len(buf) bytes from target's segment at off into buf (GET).
	Get(origin, target Rank, off int, buf []byte)
	// GetBatch issues every op towards target as one pipelined train of
	// non-blocking GETs and completes them all before returning — the
	// paper's §5.6 pattern of posting many one-sided accesses and paying a
	// single synchronization. A batch of size one costs exactly as much as a
	// scalar Get.
	GetBatch(origin, target Rank, ops []GetOp)
	// PutBatch is the write-side counterpart of GetBatch. Ops within one
	// train must not overlap; the window provides no ordering between them.
	PutBatch(origin, target Rank, ops []PutOp)
	// GuardedGetBatch issues every op towards target as one train — one
	// round trip — where each op does up to three steps: an atomic load of
	// guard word op.Guard of target's segment in the guard window into
	// op.Before (when op.LoadBefore), a GET of len(op.Buf) bytes at op.Off
	// (none when Buf is empty), and a second load of the guard into op.After
	// (when op.LoadAfter). It is the seqlock reader's train: the guard word
	// stamps the bytes on both sides of the copy, so a reader that finds the
	// same version, free of writers, in Before and After knows the bytes are
	// one version's.
	//
	// Ordering guarantee, LoadBatch's extended to bytes: the target applies
	// the ops one after another in slice order and, within an op, the load
	// before, the copy and the load after in that order, each load a
	// sequentially consistent atomic load. So After is read no earlier than
	// the last byte of Buf is copied, and Before no later than the first.
	// guard must be a word window of the same transport. The train counts as
	// a GET train when it carries a GET and as an atomic train otherwise;
	// every load and every GET in it counts as well.
	GuardedGetBatch(origin, target Rank, guard WordWin, ops []GuardedGetOp)
}

// WordWin is a 64-bit-word-granularity RMA window with atomic semantics: the
// system and usage windows of BGDL, lock words, and the offloaded DHT all
// live in word windows. Word operations map to the network-accelerated
// remote atomics the paper relies on (AGET/APUT/CAS/FetchAdd).
type WordWin interface {
	// Words returns the per-rank segment size in 64-bit words.
	Words() int
	// Load atomically reads target's word idx (AGET).
	Load(origin, target Rank, idx int) uint64
	// Store atomically writes target's word idx (APUT).
	Store(origin, target Rank, idx int, val uint64)
	// CAS atomically compares target's word idx with old and, when equal,
	// replaces it with new. It returns the previous value and whether the
	// swap happened. On failure the reported value may already be stale
	// again; callers must retry from it.
	CAS(origin, target Rank, idx int, old, new uint64) (prev uint64, swapped bool)
	// LoadBatch atomically reads every word in idxs from target's segment as
	// one train of remote atomic gets and returns the values in order.
	//
	// Ordering guarantee: the target applies the loads one after another in
	// idxs order, each a sequentially consistent atomic load — out[j] is read
	// no earlier than out[i] for i < j. A train is not a snapshot (a writer
	// may land between two of its loads), but a reader can place a guard word
	// last and know that everything before it was read before the guard: the
	// DHT's entry fetch reads key, val, next and then the reuse tag this way,
	// and a matching tag vouches for the three words read ahead of it.
	// Backends must preserve this when they vectorize the train.
	LoadBatch(origin, target Rank, idxs []int) []uint64
	// CASBatch issues every op towards target as one train of remote CAS
	// atomics and returns the per-op results in order. The ops are applied
	// independently (no transactional semantics across the train).
	CASBatch(origin, target Rank, ops []CASOp) []CASResult
	// FetchAdd atomically adds delta to target's word idx and returns the
	// previous value (MPI_Fetch_and_op with MPI_SUM).
	FetchAdd(origin, target Rank, idx int, delta uint64) uint64
}

// GetOp is one element of a vectored read: len(Buf) bytes from the target's
// segment at Off.
type GetOp struct {
	Off int
	Buf []byte
}

// PutOp is one element of a vectored write: len(Data) bytes into the
// target's segment at Off.
type PutOp struct {
	Off  int
	Data []byte
}

// GuardedGetOp is one element of a guarded GET train (see
// ByteWin.GuardedGetBatch): optional loads of guard word Guard around an
// optional GET of len(Buf) bytes at Off. Before and After are outputs, set
// only when their load was asked for.
type GuardedGetOp struct {
	Guard                 int
	LoadBefore, LoadAfter bool
	Off                   int
	Buf                   []byte
	Before, After         uint64
}

// Loads returns how many guard loads op asks for.
func (op *GuardedGetOp) Loads() int {
	n := 0
	if op.LoadBefore {
		n++
	}
	if op.LoadAfter {
		n++
	}
	return n
}

// CASOp is one element of a vectored compare-and-swap train.
type CASOp struct {
	Idx      int
	Old, New uint64
}

// CASResult reports one constituent CAS of a train: the previous word value
// and whether the swap happened, with the same retry contract as CAS.
type CASResult struct {
	Prev    uint64
	Swapped bool
}

// Inbox is a one-sided per-rank mailbox: the alltoallv substrate of the
// dense analytics engine. Every rank owns one segment, statically
// partitioned into one slot per source rank, so a delivery needs no offset
// negotiation — the sender writes header plus payload into its own slot of
// the target's segment as a single vectored PUT train, and the target
// executes no code on the data path.
//
// Epoch discipline is the caller's job, exactly as with raw MPI RMA: at most
// one delivery per (source, target) pair per epoch, all Delivers completed
// (externally, e.g. with a barrier) before the target Drains, and the Drain
// completed before the next epoch's Delivers begin.
type Inbox interface {
	// Budget returns the largest payload one delivery can carry.
	Budget() int
	// Deliver writes payload into the origin's slot of target's mailbox as
	// one PUT train. Payloads beyond Budget are a programming error.
	Deliver(origin, target Rank, payload []byte)
	// Drain scans the caller's own mailbox slots in ascending source order,
	// invokes fn once per delivery, and clears the consumed headers for the
	// next epoch. The payload slice is freshly allocated; fn may retain it.
	Drain(me Rank, fn func(src Rank, payload []byte))
}

// Messenger is the pairwise ordered message substrate underneath the
// collective layer (package collective): every directed (from, to) rank pair
// is an independent FIFO channel. The collective algorithms — dissemination
// barrier, binomial trees — are pure control flow over these pairs, which is
// what makes them backend-agnostic.
//
// Shared reports whether all ranks share one address space. When true, the
// collective layer moves Go values by reference through Send/Recv — zero
// serialization, and reference semantics some in-process subsystems (the
// HTAP cut broadcast) rely on. When false, only SendBytes/RecvBytes are
// usable and the collective layer encodes values for the wire; in-process
// Send/Recv panic on wire transports.
type Messenger interface {
	Shared() bool
	Send(from, to Rank, v any)
	Recv(from, to Rank) any
	SendBytes(from, to Rank, b []byte)
	RecvBytes(from, to Rank) []byte
}

// PeerError reports that an operation targeted a rank the transport knows to
// be dead (its process exited, its connection dropped, or the simulator's
// KillRank hook marked it). The SPI's data-path methods return no errors —
// remote operations on healthy fabrics cannot fail — so peer death surfaces
// as a typed panic that failure-aware layers (the commit fan-out, promotion,
// kill-a-rank harnesses) recover and convert; everything else keeps its
// fail-stop behavior.
type PeerError struct {
	// Rank is the dead peer.
	Rank Rank
	// Op names the operation that observed the death (diagnostics only).
	Op string
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("fabric: peer rank %d is dead (%s)", e.Rank, e.Op)
}

// AsPeerDeath reports whether a recovered panic value is a PeerError, and
// returns it. Use in recover blocks:
//
//	defer func() {
//		if pe, ok := fabric.AsPeerDeath(recover()); ok { ... }
//	}()
func AsPeerDeath(v any) (*PeerError, bool) {
	pe, ok := v.(*PeerError)
	return pe, ok
}

// ServiceID names a control-plane service handler (see Transport.Register).
type ServiceID uint8

// Engine service IDs. The data path is strictly one-sided, but a handful of
// control-plane maintenance operations target another rank's process-local
// bookkeeping (the explicit vertex/label indexes a committer maintains on
// the owner). In one address space these are direct calls; across processes
// they ride the transport's service channel — the same pragmatic escape
// hatch real RDMA systems keep for their control plane.
const (
	// SvcIndexAdd publishes a new vertex into the owner's explicit indexes.
	SvcIndexAdd ServiceID = iota
	// SvcIndexRemove retracts a deleted vertex from the owner's indexes.
	SvcIndexRemove
	// SvcIndexRelabel updates a vertex's label postings on the owner.
	SvcIndexRelabel
	// SvcReplicaInstall installs a primary→follower entry in the follower
	// rank's replica directory.
	SvcReplicaInstall
	// SvcReplicaDrop removes a replica-directory entry on the follower rank.
	SvcReplicaDrop
	// SvcReplicaRekey moves a replica-directory entry to a new primary after
	// a follower promotion.
	SvcReplicaRekey
	// SvcListVertices returns the (appID, DPtr) listing of the target rank's
	// vertex shard, for replica placement planning.
	SvcListVertices
)

// Handler services one control-plane call on the target rank. It must be
// safe for concurrent invocation.
type Handler func(from Rank, req []byte) []byte

// Transport is the full fabric SPI: a group of N ranks, their windows, their
// counters, and the control plane. It plays the role of MPI_COMM_WORLD plus
// the RDMA NIC.
//
// A Transport is safe for concurrent use by all of its local ranks.
type Transport interface {
	// Size returns the number of ranks in the fabric.
	Size() int
	// Local reports whether rank r's window memory lives in this process.
	// The simulator answers true for every rank; a wire transport answers
	// true only for its own rank. Layers use it to route process-local
	// bookkeeping: direct access when local, a service Call when not.
	Local(r Rank) bool
	// Run executes fn for every rank hosted by this process and waits for
	// completion — the SPMD launch, mpirun's role. The simulator runs all N
	// ranks as goroutines; a wire transport runs exactly one (its own) and
	// first verifies that all processes performed the same window
	// allocation sequence.
	Run(fn func(rank Rank))
	// Close releases the transport's resources (connections, listeners).
	// The simulator's Close is a no-op.
	Close() error

	// NewByteWin collectively allocates a byte window with segSize bytes
	// per rank.
	NewByteWin(segSize int) ByteWin
	// NewWordWin collectively allocates a word window with nWords 64-bit
	// words per rank.
	NewWordWin(nWords int) WordWin
	// NewInbox collectively allocates an inbox with segBytes of mailbox
	// space per rank, split evenly across source slots.
	NewInbox(segBytes int) Inbox
	// Messenger returns the pairwise substrate of the collective layer.
	Messenger() Messenger

	// Flush completes all outstanding non-blocking operations issued by
	// origin towards target (MPI_Win_flush). Both backends complete
	// operations eagerly, so Flush only charges accounting.
	Flush(origin, target Rank)
	// FlushAll completes all outstanding operations issued by origin to
	// every target (MPI_Win_flush_all).
	FlushAll(origin Rank)

	// Register installs the handler for one service ID. Registering a
	// service twice panics: services are engine-global, so a wire transport
	// carries at most one database engine per process.
	Register(svc ServiceID, h Handler)
	// Call invokes svc on rank target and returns its response. On the
	// simulator this is a direct function call; on a wire transport it is
	// one request/response round-trip to the target's process.
	Call(origin, target Rank, svc ServiceID, req []byte) []byte

	// CounterSnapshot returns a copy of rank r's traffic counters. Wire
	// transports fetch remote ranks' counters over the service channel.
	CounterSnapshot(r Rank) Snapshot
	// TotalSnapshot sums the counters of every rank.
	TotalSnapshot() Snapshot
	// ResetCounters zeroes the counters of every rank.
	ResetCounters()
	// AddCache accounts lookups of origin's rank-local block cache. The
	// cache lives in the block layer; the counters live here so cache
	// traffic is reported alongside the one-sided traffic it replaces.
	AddCache(origin Rank, hits, misses int64)

	// Alive reports whether rank r is believed reachable. The simulator
	// answers true unless a test harness killed the rank; a wire transport
	// answers false once the connection to r's process has died. Liveness is
	// advisory — an operation may still hit a peer that died an instant ago,
	// in which case it panics with *PeerError.
	Alive(r Rank) bool
	// NotifyPeerDeath registers fn to be invoked (once per death, from a
	// transport-owned goroutine) when a peer rank is detected dead: the
	// liveness signal replica promotion hangs off. Multiple registrations
	// all fire. Callbacks must not block and must not issue fabric
	// operations toward the dead rank.
	NotifyPeerDeath(fn func(r Rank))
}
