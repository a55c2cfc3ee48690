// Package block implements the Blocked Graph Data Layout (BGDL) of GDI-RMA
// (§5.3, §5.5 of the paper): a distributed-memory pool of fixed-size blocks
// with lock-free, fully one-sided allocation.
//
// Three RMA windows back the layout, exactly as in the paper:
//
//   - the data window holds the block payloads that make up vertex and edge
//     holder objects;
//   - the usage window is a free-list: usage[i] is the index of the free
//     block following block i;
//   - the system window holds, per rank, the tagged head of the free list
//     (word 0) plus one reader-writer lock word per block (words 1..#blocks),
//     used by the transaction layer for the per-vertex locks of §5.6. Word
//     1, the lock word of the reserved block 0, guards no holder: it is the
//     rank's forwarding word, whose version counts the migrations that
//     published a forwarding stub on the rank (ForwardingWord).
//
// Blocks are addressed with 64-bit DPtrs (16-bit rank, 48-bit block index).
// Block index 0 of every rank is reserved so that DPtr 0 remains NULL.
//
// AcquireBlock and ReleaseBlock follow the paper's protocol: get the list
// head, get the next-free link, CAS the head forward. The head word packs a
// 32-bit ABA tag with the 32-bit block index (the "established tagged
// pointer technique" the paper cites), so a concurrent release/acquire pair
// cannot resurrect a stale head.
//
// When Config.CacheBlocks is set, every rank additionally keeps a
// version-validated cache of remote block copies (see cache.go): the
// stamped read protocol — LockStampsInto, ReadBlocksStamped, InstallStamped,
// or the one-call ReadBlocksCached wrapper — revalidates cached holders
// against the version counters embedded in the per-block lock words and
// skips the GET traffic entirely on a hit.
package block

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/gdi-go/gdi/internal/fabric"
)

// ErrNoFreeBlocks is returned when the target rank's pool is exhausted.
var ErrNoFreeBlocks = errors.New("block: target rank has no free blocks")

// Store is the distributed block pool. All ranks share one Store; every
// method is safe for concurrent use from any rank.
type Store struct {
	f         fabric.Transport
	blockSize int
	perRank   int

	data  fabric.ByteWin // block payloads
	usage fabric.WordWin // free-list links
	sys   fabric.WordWin // word 0: tagged free-list head; words 1+i: lock words

	caches []*blockCache // per-rank version-validated block caches; nil when disabled

	retirer atomic.Pointer[Retirer] // pre-write hook of the snapshot layer; nil when disabled

	// epoch counts the block-data write calls this process has issued, to
	// any rank; see Epoch.
	epoch atomic.Uint64
}

// Epoch is the number of WriteBlock and WriteBlocksBatch calls this process
// has issued, remote targets included. Each call bumps it once, after its
// PUTs have landed (or panicked part-way), so a reader that samples the epoch
// and then reads block bytes either sees a write's bytes or, on its next
// sample, a larger epoch. Nothing else writes the data window.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Retirer receives a notification for every block whose payload is about to
// be overwritten, before the first byte of the new value lands. The HTAP
// snapshot layer uses it to retire the old bytes into its version arena for
// any pinned cut still naming them.
type Retirer interface {
	BeforeWrite(dp fabric.DPtr)
}

// SetRetirer installs (or, with nil, removes) the store's pre-write hook.
func (s *Store) SetRetirer(r Retirer) {
	if r == nil {
		s.retirer.Store(nil)
		return
	}
	s.retirer.Store(&r)
}

// beforeWrite runs the retirement hook for dp, if installed.
func (s *Store) beforeWrite(dp fabric.DPtr) {
	if r := s.retirer.Load(); r != nil {
		(*r).BeforeWrite(dp)
	}
}

// Config sizes the pool.
type Config struct {
	// BlockSize is the payload size of each block in bytes. The paper leaves
	// it user-tunable (communication vs. fragmentation); it must be a
	// positive multiple of 8.
	BlockSize int
	// BlocksPerRank is the pool capacity of each rank, including the
	// reserved block 0. Must be at least 2 and at most 2^32-1 so that a
	// block index fits the 32-bit half of the tagged head word.
	BlocksPerRank int
	// CacheBlocks, when positive, gives every rank a version-validated
	// cache of that many remote block copies, served by the stamped read
	// protocol (ReadBlocksStamped and the ReadBlocksCached wrapper) and
	// revalidated against the guard lock words' version stamps. (A capacity,
	// not a switch; the name stays because the benchmark module sets it.)
	CacheBlocks int
}

// DefaultBlockSize matches the paper's example block granularity.
const DefaultBlockSize = 512

// NewStore collectively creates the block pool over fabric f.
func NewStore(f fabric.Transport, cfg Config) *Store {
	if cfg.BlockSize <= 0 || cfg.BlockSize%8 != 0 {
		panic(fmt.Sprintf("block: block size %d must be a positive multiple of 8", cfg.BlockSize))
	}
	if cfg.BlocksPerRank < 2 || uint64(cfg.BlocksPerRank) >= 1<<32 {
		panic(fmt.Sprintf("block: blocks per rank %d out of range [2, 2^32)", cfg.BlocksPerRank))
	}
	s := &Store{
		f:         f,
		blockSize: cfg.BlockSize,
		perRank:   cfg.BlocksPerRank,
		data:      f.NewByteWin(cfg.BlockSize * cfg.BlocksPerRank),
		usage:     f.NewWordWin(cfg.BlocksPerRank),
		sys:       f.NewWordWin(1 + cfg.BlocksPerRank),
	}
	if cfg.CacheBlocks > 0 {
		s.caches = make([]*blockCache, f.Size())
		for r := range s.caches {
			s.caches[r] = newBlockCache(cfg.CacheBlocks)
		}
	}
	// Thread the free list through blocks 1..perRank-1 of every rank. This
	// is initialization-time setup, performed locally by construction: each
	// process initializes exactly the ranks whose segments it hosts (every
	// rank on the simulator, only its own on a wire transport — the SPMD
	// peers initialize theirs).
	for r := 0; r < f.Size(); r++ {
		rank := fabric.Rank(r)
		if !f.Local(rank) {
			continue
		}
		for i := 1; i < cfg.BlocksPerRank-1; i++ {
			s.usage.Store(rank, rank, i, uint64(i+1))
		}
		s.usage.Store(rank, rank, cfg.BlocksPerRank-1, 0)
		s.sys.Store(rank, rank, 0, packHead(0, 1))
	}
	return s
}

// BlockSize returns the payload size of one block.
func (s *Store) BlockSize() int { return s.blockSize }

// BlocksPerRank returns each rank's pool capacity (including reserved
// block 0).
func (s *Store) BlocksPerRank() int { return s.perRank }

// Fabric returns the underlying fabric.
func (s *Store) Fabric() fabric.Transport { return s.f }

// packHead combines a 32-bit ABA tag with a 32-bit free-block index.
// Index 0 means the list is empty.
func packHead(tag uint32, idx uint32) uint64 { return uint64(tag)<<32 | uint64(idx) }

func unpackHead(h uint64) (tag uint32, idx uint32) { return uint32(h >> 32), uint32(h) }

// AcquireBlock allocates one block on target and returns its DPtr. It is
// fully one-sided: two atomic gets plus one CAS on the fast path (the
// paper's three-step protocol). O(1) work and depth per attempt.
func (s *Store) AcquireBlock(origin, target fabric.Rank) (fabric.DPtr, error) {
	for {
		head := s.sys.Load(origin, target, 0)
		tag, idx := unpackHead(head)
		if idx == 0 {
			return fabric.NullDPtr, ErrNoFreeBlocks
		}
		next := s.usage.Load(origin, target, int(idx))
		if _, ok := s.sys.CAS(origin, target, 0, head, packHead(tag+1, uint32(next))); ok {
			return fabric.MakeDPtr(target, uint64(idx)), nil
		}
		// Another origin raced us on this rank's list; retry from the new head.
	}
}

// ReleaseBlock returns dp to its owner's free list. One atomic get, one
// atomic put, one CAS per attempt.
func (s *Store) ReleaseBlock(origin fabric.Rank, dp fabric.DPtr) {
	s.checkDPtr(dp)
	s.invalidateCached(origin, dp)
	target := dp.Rank()
	idx := uint32(dp.Off())
	for {
		head := s.sys.Load(origin, target, 0)
		tag, old := unpackHead(head)
		s.usage.Store(origin, target, int(idx), uint64(old))
		if _, ok := s.sys.CAS(origin, target, 0, head, packHead(tag+1, idx)); ok {
			return
		}
	}
}

// FreeBlocks counts the free blocks on target by walking its free list.
// It is a debugging/accounting helper, not part of the hot path.
func (s *Store) FreeBlocks(origin, target fabric.Rank) int {
	_, idx := unpackHead(s.sys.Load(origin, target, 0))
	n := 0
	for idx != 0 {
		n++
		idx = uint32(s.usage.Load(origin, target, int(idx)))
	}
	return n
}

// WriteBlock stores payload into block dp. The payload must not exceed the
// block size; shorter payloads leave the tail of the block unchanged.
func (s *Store) WriteBlock(origin fabric.Rank, dp fabric.DPtr, payload []byte) {
	s.checkDPtr(dp)
	if len(payload) > s.blockSize {
		panic(fmt.Sprintf("block: payload of %d bytes exceeds block size %d", len(payload), s.blockSize))
	}
	s.invalidateCached(origin, dp)
	s.beforeWrite(dp)
	defer s.epoch.Add(1)
	s.data.Put(origin, dp.Rank(), int(dp.Off())*s.blockSize, payload)
}

// ReadBlock fetches len(buf) bytes of block dp into buf.
func (s *Store) ReadBlock(origin fabric.Rank, dp fabric.DPtr, buf []byte) {
	s.checkDPtr(dp)
	if len(buf) > s.blockSize {
		panic(fmt.Sprintf("block: read of %d bytes exceeds block size %d", len(buf), s.blockSize))
	}
	s.data.Get(origin, dp.Rank(), int(dp.Off())*s.blockSize, buf)
}

// ReadBlocksBatch fetches block dps[i] into bufs[i] for every i, issuing one
// vectored GET train per distinct target rank instead of one blocking GET
// per block. With injected latency this pays one remote round-trip per
// target touched rather than one per block — the batching that hides the
// frontier-expansion latency of §5.6. The two slices must be equal length.
func (s *Store) ReadBlocksBatch(origin fabric.Rank, dps []fabric.DPtr, bufs [][]byte) {
	if len(dps) != len(bufs) {
		panic(fmt.Sprintf("block: batch of %d DPtrs with %d buffers", len(dps), len(bufs)))
	}
	if len(dps) == 0 {
		return
	}
	if len(dps) == 1 {
		s.ReadBlock(origin, dps[0], bufs[0])
		return
	}
	byTarget := make(map[fabric.Rank][]fabric.GetOp)
	for i, dp := range dps {
		s.checkDPtr(dp)
		if len(bufs[i]) > s.blockSize {
			panic(fmt.Sprintf("block: read of %d bytes exceeds block size %d", len(bufs[i]), s.blockSize))
		}
		t := dp.Rank()
		byTarget[t] = append(byTarget[t], fabric.GetOp{Off: int(dp.Off()) * s.blockSize, Buf: bufs[i]})
	}
	for t, ops := range byTarget {
		s.data.GetBatch(origin, t, ops)
	}
}

// WriteBlocksBatch stores payloads[i] into block dps[i] for every i, issuing
// one vectored PUT train per distinct target rank instead of one blocking
// PUT per block — the write-back counterpart of ReadBlocksBatch. With
// injected latency a commit's write-back pays one remote round-trip per
// owner rank touched rather than one per dirty block (§5.6). The two slices
// must be equal length; dps must not repeat within one batch (a holder block
// is written by at most one committer, which the per-vertex locks guarantee).
func (s *Store) WriteBlocksBatch(origin fabric.Rank, dps []fabric.DPtr, payloads [][]byte) {
	if len(dps) != len(payloads) {
		panic(fmt.Sprintf("block: batch of %d DPtrs with %d payloads", len(dps), len(payloads)))
	}
	if len(dps) == 0 {
		return
	}
	if len(dps) == 1 {
		s.WriteBlock(origin, dps[0], payloads[0])
		return
	}
	byTarget := make(map[fabric.Rank][]fabric.PutOp)
	for i, dp := range dps {
		s.checkDPtr(dp)
		if len(payloads[i]) > s.blockSize {
			panic(fmt.Sprintf("block: payload of %d bytes exceeds block size %d", len(payloads[i]), s.blockSize))
		}
		s.invalidateCached(origin, dp)
		s.beforeWrite(dp)
		t := dp.Rank()
		byTarget[t] = append(byTarget[t], fabric.PutOp{Off: int(dp.Off()) * s.blockSize, Data: payloads[i]})
	}
	defer s.epoch.Add(1)
	for t, ops := range byTarget {
		s.data.PutBatch(origin, t, ops)
	}
}

// LockWord returns the system window and word index of dp's lock word, for
// use by the locks package. Each block has one 64-bit RW-lock word; the
// transaction layer uses the primary block's word as the per-vertex lock.
func (s *Store) LockWord(dp fabric.DPtr) (fabric.WordWin, fabric.Rank, int) {
	s.checkDPtr(dp)
	return s.sys, dp.Rank(), 1 + int(dp.Off())
}

// ForwardingWord returns the system window and word index of rank r's
// forwarding word: the lock word of the reserved block 0, which no holder
// uses. A fresh pool leaves it 0; the transaction layer bumps its version
// before it shows a forwarding stub on r, so a word still at 0 says that no
// block of r has ever been a stub.
func (s *Store) ForwardingWord(r fabric.Rank) (fabric.WordWin, fabric.Rank, int) {
	return s.sys, r, 1
}

// ForwardingGuard is the guard LockStampsInto loads rank r's forwarding word
// through: block 0 of r (NullDPtr on rank 0).
func ForwardingGuard(r fabric.Rank) fabric.DPtr { return fabric.MakeDPtr(r, 0) }

// InPool reports whether dp names a block of the pool: a rank of the
// fabric, and an offset past the reserved block 0 and below BlocksPerRank.
// It is checkDPtr's test for a DPtr from outside the program, which it
// rejects rather than panics on.
func (s *Store) InPool(dp fabric.DPtr) bool {
	off := dp.Off()
	return int(dp.Rank()) < s.f.Size() && off != 0 && off < uint64(s.perRank)
}

func (s *Store) checkDPtr(dp fabric.DPtr) {
	if dp.IsNull() {
		panic("block: NULL DPtr")
	}
	if off := dp.Off(); off == 0 || off >= uint64(s.perRank) {
		panic(fmt.Sprintf("block: DPtr offset %d outside pool [1, %d)", off, s.perRank))
	}
}
