package rma

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/gdi-go/gdi/internal/fabric"
)

// stripeShift determines the granularity of the per-page write serialization
// inside ByteWin: concurrent accesses to different 4KiB pages never contend.
const stripeShift = 12

// ByteWin is a byte-granularity RMA window: every rank owns a segment of
// segSize bytes, and any rank may Put/Get arbitrary ranges of any segment.
// It models the MPI data window used by BGDL for block payloads.
//
// Bulk accesses are serialized per 4KiB page (mirroring the per-cache-line
// atomicity a DMA engine provides); higher layers are responsible for
// protocol-level consistency, exactly as with real RDMA.
type ByteWin struct {
	f       *Fabric
	segSize int
	segs    [][]byte
	stripes [][]sync.RWMutex
}

var _ fabric.ByteWin = (*ByteWin)(nil)

// NewByteWin collectively allocates a byte window with segSize bytes per rank.
func (f *Fabric) NewByteWin(segSize int) fabric.ByteWin {
	if segSize <= 0 {
		panic("rma: ByteWin segment size must be positive")
	}
	w := &ByteWin{f: f, segSize: segSize}
	w.segs = make([][]byte, f.n)
	w.stripes = make([][]sync.RWMutex, f.n)
	nStripes := (segSize >> stripeShift) + 1
	for r := 0; r < f.n; r++ {
		w.segs[r] = make([]byte, segSize)
		w.stripes[r] = make([]sync.RWMutex, nStripes)
	}
	return w
}

// SegSize returns the per-rank segment size in bytes.
func (w *ByteWin) SegSize() int { return w.segSize }

func (w *ByteWin) checkRange(target Rank, off, n int) {
	w.f.checkRank(target)
	if off < 0 || n < 0 || off+n > w.segSize {
		panic(fmt.Sprintf("rma: access [%d, %d) outside window segment of %d bytes", off, off+n, w.segSize))
	}
}

// checkLive enforces the simulated failure model on the data plane: byte
// accesses from a survivor to a killed rank's segment panic with
// *fabric.PeerError (the rank's block memory died with its process), while a
// rank's accesses to its own segment — and all word-window traffic — stay
// reachable (see Fabric.KillRank).
func (w *ByteWin) checkLive(origin, target Rank, op string) {
	if origin != target {
		w.f.checkDead(target, op)
	}
}

// Put writes data into target's segment at off. It is a non-blocking
// one-sided write (PUT in the paper's notation); completion is guaranteed
// after a Flush, though this simulation completes it eagerly.
func (w *ByteWin) Put(origin, target Rank, off int, data []byte) {
	w.checkRange(target, off, len(data))
	w.checkLive(origin, target, "put")
	w.f.countPut(origin, target, len(data))
	w.f.chargeOp(origin, target, len(data))
	w.putStriped(target, off, data)
}

// Get reads len(buf) bytes from target's segment at off into buf (GET).
func (w *ByteWin) Get(origin, target Rank, off int, buf []byte) {
	w.checkRange(target, off, len(buf))
	w.checkLive(origin, target, "get")
	w.f.countGet(origin, target, len(buf))
	w.f.chargeOp(origin, target, len(buf))
	w.getStriped(target, off, buf)
}

// getStriped performs the data movement of one GET under the per-page
// read locks, without accounting or latency.
func (w *ByteWin) getStriped(target Rank, off int, buf []byte) {
	if len(buf) == 0 {
		return
	}
	seg := w.segs[target]
	first, last := off>>stripeShift, (off+len(buf)-1)>>stripeShift
	for s := first; s <= last; s++ {
		w.stripes[target][s].RLock()
	}
	copy(buf, seg[off:off+len(buf)])
	for s := first; s <= last; s++ {
		w.stripes[target][s].RUnlock()
	}
}

// putStriped performs the data movement of one PUT under the per-page
// write locks, without accounting or latency.
func (w *ByteWin) putStriped(target Rank, off int, data []byte) {
	if len(data) == 0 {
		return
	}
	seg := w.segs[target]
	first, last := off>>stripeShift, (off+len(data)-1)>>stripeShift
	for s := first; s <= last; s++ {
		w.stripes[target][s].Lock()
	}
	copy(seg[off:off+len(data)], data)
	for s := first; s <= last; s++ {
		w.stripes[target][s].Unlock()
	}
}

// GetBatch issues every op towards target as one pipelined train of
// non-blocking GETs and completes them all before returning — the paper's
// §5.6 pattern of posting many one-sided accesses and paying a single
// synchronization. Each constituent get is still accounted individually
// (the NIC would still issue that many reads), but injected remote latency
// is charged once for the whole batch plus the usual per-KiB cost of the
// total payload, instead of one full round-trip per op. A batch of size one
// therefore costs exactly as much as a scalar Get.
func (w *ByteWin) GetBatch(origin, target Rank, ops []GetOp) {
	if len(ops) == 0 {
		return
	}
	w.checkLive(origin, target, "get-batch")
	total := 0
	for _, op := range ops {
		w.checkRange(target, op.Off, len(op.Buf))
		w.f.countGet(origin, target, len(op.Buf))
		total += len(op.Buf)
	}
	w.f.countGetBatch(origin, target)
	w.f.chargeOp(origin, target, total)
	for _, op := range ops {
		w.getStriped(target, op.Off, op.Buf)
	}
}

// PutBatch issues every op towards target as one pipelined train of
// non-blocking PUTs and completes them all before returning — the write-side
// counterpart of GetBatch. Each constituent put is still accounted
// individually, but injected remote latency is charged once for the whole
// train plus the per-KiB cost of the total payload, instead of one full
// round-trip per op. A batch of size one costs exactly as much as a scalar
// Put. Ops within one train must not overlap; the per-page serialization
// provides no ordering between them.
func (w *ByteWin) PutBatch(origin, target Rank, ops []PutOp) {
	if len(ops) == 0 {
		return
	}
	w.checkLive(origin, target, "put-batch")
	total := 0
	for _, op := range ops {
		w.checkRange(target, op.Off, len(op.Data))
		w.f.countPut(origin, target, len(op.Data))
		total += len(op.Data)
	}
	w.f.countPutBatch(origin, target)
	w.f.chargeOp(origin, target, total)
	for _, op := range ops {
		w.putStriped(target, op.Off, op.Data)
	}
}

// GuardedGetBatch issues every op towards target as one train of guarded
// GETs (fabric.ByteWin.GuardedGetBatch): per op, an optional atomic load of
// its guard word, a GET, and an optional second load, applied in that order
// and op after op. Each load and each GET is accounted individually, the
// train once — as a GET train when it carries a GET, as an atomic train
// otherwise — and injected remote latency is charged once for the train plus
// the per-KiB cost of its bytes and words. guard must be a word window of
// this fabric.
func (w *ByteWin) GuardedGetBatch(origin, target Rank, guard fabric.WordWin, ops []GuardedGetOp) {
	if len(ops) == 0 {
		return
	}
	gw := guard.(*WordWin)
	total := 0
	for i := range ops {
		op := &ops[i]
		if op.Loads() > 0 {
			gw.checkIdx(target, op.Guard)
		}
		w.checkRange(target, op.Off, len(op.Buf))
		total += 8*op.Loads() + len(op.Buf)
	}
	if w.f.counters[origin].CountGuardedBatch(origin == target, ops) {
		w.checkLive(origin, target, "guarded-get")
	}
	w.f.chargeOp(origin, target, total)
	words := gw.words[target]
	for i := range ops {
		op := &ops[i]
		if op.LoadBefore {
			op.Before = atomic.LoadUint64(&words[op.Guard])
		}
		w.getStriped(target, op.Off, op.Buf)
		if op.LoadAfter {
			op.After = atomic.LoadUint64(&words[op.Guard])
		}
	}
}

// WordWin is a 64-bit-word-granularity RMA window with atomic semantics:
// the system and usage windows of BGDL, lock words, and the offloaded DHT
// all live in word windows. Word operations map to the network-accelerated
// remote atomics the paper relies on (AGET/APUT/CAS/FetchAdd).
type WordWin struct {
	f     *Fabric
	nWord int
	words [][]uint64
}

var _ fabric.WordWin = (*WordWin)(nil)

// NewWordWin collectively allocates a word window with nWords 64-bit words
// per rank.
func (f *Fabric) NewWordWin(nWords int) fabric.WordWin {
	if nWords <= 0 {
		panic("rma: WordWin word count must be positive")
	}
	w := &WordWin{f: f, nWord: nWords, words: make([][]uint64, f.n)}
	for r := 0; r < f.n; r++ {
		w.words[r] = make([]uint64, nWords)
	}
	return w
}

// Words returns the per-rank segment size in 64-bit words.
func (w *WordWin) Words() int { return w.nWord }

func (w *WordWin) checkIdx(target Rank, idx int) {
	w.f.checkRank(target)
	if idx < 0 || idx >= w.nWord {
		panic(fmt.Sprintf("rma: word index %d outside window of %d words", idx, w.nWord))
	}
}

// Load atomically reads target's word idx (AGET).
func (w *WordWin) Load(origin, target Rank, idx int) uint64 {
	w.checkIdx(target, idx)
	w.f.countAtomic(origin, target)
	w.f.chargeOp(origin, target, 8)
	return atomic.LoadUint64(&w.words[target][idx])
}

// Store atomically writes target's word idx (APUT).
func (w *WordWin) Store(origin, target Rank, idx int, val uint64) {
	w.checkIdx(target, idx)
	w.f.countAtomic(origin, target)
	w.f.chargeOp(origin, target, 8)
	atomic.StoreUint64(&w.words[target][idx], val)
}

// CAS atomically compares target's word idx with old and, when equal,
// replaces it with new. It returns the previous value and whether the swap
// happened — the semantics of the paper's CAS(local_new, compare, result,
// remote).
func (w *WordWin) CAS(origin, target Rank, idx int, old, new uint64) (prev uint64, swapped bool) {
	w.checkIdx(target, idx)
	w.f.countAtomic(origin, target)
	w.f.chargeOp(origin, target, 8)
	addr := &w.words[target][idx]
	if atomic.CompareAndSwapUint64(addr, old, new) {
		return old, true
	}
	// The CAS failed; report the value that caused the failure. A concurrent
	// winner may change the word again between the CAS and this load, which
	// is indistinguishable from the hardware interleaving where our CAS ran
	// after that second change — callers must retry from the reported value.
	return atomic.LoadUint64(addr), false
}

// LoadBatch atomically reads every word in idxs from target's segment as one
// train of remote atomic gets and returns the values in order. Each
// constituent load is accounted individually, but injected remote latency is
// charged once per train — the "CAS-free word train" the block cache uses to
// revalidate many cached holders against their version stamps in a single
// round-trip. A batch of size one costs exactly as much as a scalar Load.
// The loads are applied in idxs order (the loop below), which is the ordering
// guarantee of fabric.WordWin.LoadBatch: a guard word placed last is read
// after every word before it.
func (w *WordWin) LoadBatch(origin, target Rank, idxs []int) []uint64 {
	if len(idxs) == 0 {
		return nil
	}
	for _, idx := range idxs {
		w.checkIdx(target, idx)
	}
	w.f.countAtomics(origin, target, len(idxs))
	w.f.countAtomicBatch(origin, target)
	w.f.chargeOp(origin, target, 8*len(idxs))
	out := make([]uint64, len(idxs))
	for i, idx := range idxs {
		out[i] = atomic.LoadUint64(&w.words[target][idx])
	}
	return out
}

// CASBatch issues every op towards target as one train of remote CAS
// atomics and returns the per-op results in order. Each constituent CAS is
// accounted individually, but injected remote latency is charged once per
// train — the batching the lock layer uses to acquire or release all lock
// words a commit touches on one rank in a single round-trip. The ops are
// applied independently (no transactional semantics across the train); a
// train of size one costs exactly as much as a scalar CAS.
func (w *WordWin) CASBatch(origin, target Rank, ops []CASOp) []CASResult {
	if len(ops) == 0 {
		return nil
	}
	for _, op := range ops {
		w.checkIdx(target, op.Idx)
	}
	w.f.countAtomics(origin, target, len(ops))
	w.f.countAtomicBatch(origin, target)
	w.f.chargeOp(origin, target, 8*len(ops))
	res := make([]CASResult, len(ops))
	for i, op := range ops {
		addr := &w.words[target][op.Idx]
		if atomic.CompareAndSwapUint64(addr, op.Old, op.New) {
			res[i] = CASResult{Prev: op.Old, Swapped: true}
		} else {
			res[i] = CASResult{Prev: atomic.LoadUint64(addr)}
		}
	}
	return res
}

// FetchAdd atomically adds delta to target's word idx and returns the
// previous value (MPI_Fetch_and_op with MPI_SUM).
func (w *WordWin) FetchAdd(origin, target Rank, idx int, delta uint64) uint64 {
	w.checkIdx(target, idx)
	w.f.countAtomic(origin, target)
	w.f.chargeOp(origin, target, 8)
	return atomic.AddUint64(&w.words[target][idx], delta) - delta
}
