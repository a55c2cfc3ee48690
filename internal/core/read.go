package core

import (
	"cmp"
	"slices"
	"sync"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
)

// The one holder-chain reader. Every read of a holder's block chain in this
// package queues items on a chainReader and walks them here: the association
// flush, ExpandFrontier's lean route, OptimisticPointRead, follower-served
// reads (items of the flush's batch) and the chain mover. ARCHITECTURE.md,
// "Life of a holder read", has the protocol per tier.
//
// Nothing read is trusted: a head may be a block recycled since the caller
// chose it. So a block count outside [1, BlocksPerRank], and a table entry off
// the pool or off the head's rank (a chain lives on one rank), end an item's
// walk as readImplausible before any buffer is sized or rank addressed from
// them.

// readMode says where a batch's stamps come from and what keeps its reads
// stable.
type readMode uint8

const (
	// readSeqlock: each round's trains load the guards around the blocks
	// they read — the head round ahead of the heads of unstamped items, and
	// every train behind each block off the wire. The reads count only if
	// the last of those post-stamps finds the guard at the stamped version
	// with the write bit clear, and only then are the fetched blocks cached
	// (the optimistic reads of transactions).
	readSeqlock readMode = iota
	// readStable: the stamps were loaded in a collective read epoch. Nothing
	// moves them, so fetched blocks are cached at once.
	readStable
	// readUnderLock: the caller holds each head's write lock or mark. Blocks
	// come straight from the pool, neither stamped nor cached.
	readUnderLock
)

// verdict is what a read concluded about one item.
type verdict uint8

const (
	unread          verdict = iota // queued for the next read
	readOK                         // buf holds the chain, or the prefix asked for
	readGone                       // block count 0: the holder was deleted or its block freed
	readImplausible                // a block count or table entry no holder has: a reused block
	readStub                       // a forwarding stub: holder.MovedTarget(buf) is where the vertex went
	readHeld                       // the seqlock stamp showed a writer: what was read is dropped
	readRefused                    // refused by the caller, by its head test or before the read
	readStale                      // the stamp refused a speculative translation (chainReader.admit)
	readTorn                       // the post-stamp moved: the blocks read are not one version
	// readStamped is the frontier hop's: stamped, and vouched for by the
	// stamp, but not read yet. The reader leaves it alone.
	readStamped
)

// chainItem is one holder chain of a batch.
type chainItem struct {
	head  fabric.DPtr            // the chain's first block, whose lock word guards all of it
	want  func(head []byte) bool // the caller's head test; nil accepts any holder head
	stamp uint64                 // that word before the first read (stamped modes)
	// stamped: stamp holds the word — the caller's, or the head round's. A
	// seqlock item without one has the head round load it.
	stamped bool
	post    uint64 // readSeqlock: the word behind the last block off the wire
	// follower: a follower copy, which a writer on its word makes busy, not
	// stale, in a speculative batch.
	follower bool
	buf      []byte // the stream, as far as it was read
	need     int    // blocks to read: the chain, or its entry prefix
	got      int    // blocks queued so far, head included
	verdict  verdict
	// wire: a block came off the wire or the pool, not out of the validated
	// cache; after validate, whether the post-stamp covered the item.
	wire bool
}

// fetchedRead is a block a seqlock read took off the wire, and its item.
type fetchedRead struct {
	item int32
	block.StampedRead
}

// chain returns the blocks of an item read whole, head first.
func (it *chainItem) chain() []fabric.DPtr {
	blocks := make([]fabric.DPtr, it.need)
	blocks[0] = it.head
	for i := 1; i < it.need; i++ {
		blocks[i] = holder.TableEntry(it.buf, i-1)
	}
	return blocks
}

// chainReader reads batches of holder chains. Its slices grow in one step per
// batch and serve the next, so a reader kept across batches — a frontier's,
// hop to hop, a point read's arena, or one from readerPool — allocates nothing
// once warm. Head blocks land in heads, which the next batch reuses; the
// streams of the items read OK are carved out of bytes. A caller that resets
// the reader recycles bytes, and one that does not (the flush) leaves them to
// the views that alias them.
type chainReader struct {
	items  []chainItem
	bytes  byteArena
	heads  []byte // the head round's blocks
	trains block.Trains
	// spec: the batch checks a speculative translation, whose holders must
	// carry guard version expect (admit).
	spec   bool
	expect uint64

	batch   []int32             // the items the last read walked
	reads   []block.StampedRead // the round being read…
	readOf  []int32             // …and the item each read belongs to
	walking []int32             // items whose chain continues past the round just read
	fetched []fetchedRead       // seqlock reads off the wire, cached once their item validates
	dps     []fabric.DPtr       // guards to stamp, or an unstamped round's blocks (scratch)
	bufs    [][]byte
	words   []uint64
}

// readerPool recycles the scratch of the flush and of commit validation
// across transactions: a point read takes a warm reader instead of growing
// a fresh one. The byte arena is never pooled — installed views alias it.
var readerPool = sync.Pool{New: func() any { return new(readScratch) }}

// readScratch is what readerPool holds: a chain reader and the flush's
// generations of associations.
type readScratch struct {
	chainReader
	gen, next []assoc
	link      []int32 // per pending future: the next future awaiting the same vertex, or -1
}

// getReadScratch takes a reader from the pool.
func getReadScratch() *readScratch { return readerPool.Get().(*readScratch) }

// pooledBatch caps the batch a pooled scratch may have served: a larger one
// is left to the collector, since a big batch amortizes its own allocations
// and the pool would keep its buffers live.
const pooledBatch = 256

// release drops everything the scratch points into — streams, states,
// futures' neighbours — and returns it to the pool.
func (s *readScratch) release() {
	r := &s.chainReader
	if cap(r.items) > pooledBatch || cap(r.dps) > pooledBatch {
		return
	}
	clear(r.items[:cap(r.items)])
	clear(r.reads[:cap(r.reads)])
	clear(r.fetched[:cap(r.fetched)])
	clear(r.bufs[:cap(r.bufs)])
	clear(s.gen[:cap(s.gen)])
	clear(s.next[:cap(s.next)])
	r.bytes = byteArena{}
	readerPool.Put(s)
}

// reset starts a batch of up to n items and recycles the bytes of the last.
func (r *chainReader) reset(n int) {
	r.items = slices.Grow(r.items[:0], n)
	r.bytes.reset()
}

// stamp loads the guard word of every unread item not stamped yet, one load
// train per owner rank: ahead of the reads, for a caller that acts on the
// stamps before it reads (a frontier hop, the collective tier), or that has
// seen a writer (a seqlock retry).
func (r *chainReader) stamp(e *Engine, origin fabric.Rank) {
	r.dps, r.readOf = slices.Grow(r.dps[:0], len(r.items)), slices.Grow(r.readOf[:0], len(r.items))
	for i := range r.items {
		if r.items[i].verdict == unread && !r.items[i].stamped {
			r.dps = append(r.dps, r.items[i].head)
			r.readOf = append(r.readOf, int32(i))
		}
	}
	for k, w := range r.load(e, origin) {
		it := &r.items[r.readOf[k]]
		it.stamp, it.stamped = w, true
	}
}

// load returns the lock words of r.dps, one load train per owner rank.
func (r *chainReader) load(e *Engine, origin fabric.Rank) []uint64 {
	r.words = slices.Grow(r.words[:0], len(r.dps))[:len(r.dps)]
	e.store.LockStampsInto(origin, r.dps, r.words, &r.trains)
	return r.words
}

// admit judges an item by its stamp before anything read of it counts, and
// reports whether the stamp admits it; if not, the item takes its refusal.
func (r *chainReader) admit(it *chainItem, seqlock bool) bool {
	it.verdict = r.refusal(it, it.stamp, seqlock)
	return it.verdict == unread
}

// refusal is the one rule by which a stamp refuses an item: a speculative
// batch refuses a stamp at another version than it expects, with the stub
// bit, or with a writer on anything but a follower copy (readStale); on
// readSeqlock a writer otherwise makes the item readHeld. An admitted item
// stays unread.
func (r *chainReader) refusal(it *chainItem, stamp uint64, seqlock bool) verdict {
	switch {
	case r.spec && (locks.Version(stamp) != r.expect || locks.Stub(stamp) || locks.WriteHeld(stamp) && !it.follower):
		return readStale
	case seqlock && locks.WriteHeld(stamp):
		return readHeld
	}
	return unread
}

// refetch answers ReadBlocksStamped for read j of a seqlock round, a cached
// block its probe refuted: the block is fetched under stamp only if the
// stamp admits the read's item.
func (r *chainReader) refetch(j int, stamp uint64) bool {
	return r.refusal(&r.items[r.readOf[j]], stamp, true) == unread
}

// read walks the chain of every unread item and gives each a verdict: a head
// round, then continuation rounds up to each item's need — the whole chain,
// or with prefix the blocks through the end of the entry region. A round is
// one train per owner rank for what the validated cache cannot serve. Each
// continuation round reads every block whose table entry lies in the blocks
// already read: at 512-byte blocks the head names blocks 1–60, so a chain of
// up to 61 blocks takes 2 rounds and one of up to 3 901 takes 3. On
// readSeqlock the trains carry the guard loads: the head round loads the
// stamp of every unstamped item ahead of its head (a cached head costs that
// load alone), so such an item is admitted only after the round and what was
// read of a refused one is dropped; every block off the wire has the guard
// loaded again behind it, and validate checks the last of those post-stamps
// (a train keeps an item's blocks in queue order, so its last block is last).
// confirm extends the check to the gone, implausible and stub verdicts, for a
// caller that acts on them.
func (r *chainReader) read(e *Engine, origin fabric.Rank, mode readMode, prefix, confirm bool) {
	bs := e.cfg.BlockSize
	seqlock := mode == readSeqlock
	r.batch = slices.Grow(r.batch[:0], len(r.items))
	for i := range r.items {
		if r.items[i].verdict == unread {
			r.batch = append(r.batch, int32(i))
		}
	}
	r.fetched = r.fetched[:0]
	r.reads, r.readOf = slices.Grow(r.reads[:0], len(r.batch)), slices.Grow(r.readOf[:0], len(r.batch))
	r.heads = slices.Grow(r.heads[:0], len(r.batch)*bs)[:len(r.batch)*bs]
	for k, i := range r.batch {
		it := &r.items[i]
		if it.stamped && !r.admit(it, seqlock) {
			continue
		}
		it.buf, it.wire, it.got = r.heads[k*bs:(k+1)*bs:(k+1)*bs], false, 1
		r.queue(i, it.head, it.buf, seqlock && !it.stamped, seqlock)
	}
	r.round(e, origin, mode)

	r.walking = slices.Grow(r.walking[:0], len(r.readOf))
	streams := 0 // bytes of the streams read OK
	for j, i := range r.readOf {
		it := &r.items[i]
		if r.reads[j].Load && !r.admit(it, seqlock) {
			continue
		}
		nb := holder.NumBlocks(it.buf)
		switch {
		case nb < 1:
			it.verdict = readGone
		case !e.plausibleBlock(it.head, it.buf, 0):
			it.verdict = readImplausible
		case it.want != nil && !it.want(it.buf):
			it.verdict = readRefused
		case holder.IsMoved(it.buf):
			it.verdict = readStub
		default:
			it.verdict, it.need = readOK, nb
			if prefix {
				it.need = holder.EntryBlocks(it.buf, bs)
			}
			streams += it.need * bs
		}
	}
	// Move each stream read OK out of heads into bytes, in one buffer.
	r.bytes.reserve(streams)
	for _, i := range r.readOf {
		if it := &r.items[i]; it.verdict == readOK {
			full := r.bytes.alloc(it.need * bs)
			copy(full, it.buf)
			it.buf = full
			if it.need > 1 {
				r.walking = append(r.walking, i)
			}
		}
	}

	// Continuation rounds: every block of a chain that the table entries in
	// its blocks read so far locate, each entry checked before its block is
	// queued.
	for len(r.walking) > 0 {
		r.reads, r.readOf = r.reads[:0], r.readOf[:0]
		more := r.walking[:0]
		for _, i := range r.walking {
			it := &r.items[i]
			to := min(it.need, 1+(it.got*bs-holder.HeaderSize)/8)
			for b := it.got; b < to && it.verdict == readOK; b++ {
				if !e.plausibleBlock(it.head, it.buf, b) {
					it.verdict = readImplausible
				}
			}
			if it.verdict != readOK {
				continue
			}
			for ; it.got < to; it.got++ {
				r.queue(i, holder.TableEntry(it.buf, it.got-1), it.buf[it.got*bs:(it.got+1)*bs], false, seqlock)
			}
			if it.need > it.got {
				more = append(more, i)
			}
		}
		r.walking = more
		r.round(e, origin, mode)
	}
	if seqlock {
		r.validate(e, origin, confirm)
	}
}

// plausibleBlock applies the reader's two rules to block i of the chain
// read from head, whose blocks before i are in buf. For the head block
// (i = 0): a block count no greater than BlocksPerRank, checked before any
// buffer is sized from it. For a continuation: table entry i-1 is a pool
// block on the head's rank (a chain lives on one rank), checked before any
// rank is addressed from it. A chain failing either is no holder's.
func (e *Engine) plausibleBlock(head fabric.DPtr, buf []byte, i int) bool {
	if i == 0 {
		return holder.NumBlocks(buf) <= e.store.BlocksPerRank()
	}
	dp := holder.TableEntry(buf, i-1)
	return e.validPoolDPtr(dp) && dp.Rank() == head.Rank()
}

// queue adds block dp of item i, into buf, to the round being built, with
// the guard loaded ahead of it (load) and behind it (check).
func (r *chainReader) queue(i int32, dp fabric.DPtr, buf []byte, load, check bool) {
	it := &r.items[i]
	r.reads = append(r.reads, block.StampedRead{DP: dp, Buf: buf, Guard: it.head, Stamp: it.stamp,
		Load: load, Check: check})
	r.readOf = append(r.readOf, i)
}

// round reads the queued blocks and, on readSeqlock, takes the stamps and
// post-stamps its trains loaded and notes what came off the wire.
func (r *chainReader) round(e *Engine, origin fabric.Rank, mode readMode) {
	if mode == readUnderLock {
		r.dps, r.bufs = r.dps[:0], r.bufs[:0]
		for j := range r.reads {
			r.dps, r.bufs = append(r.dps, r.reads[j].DP), append(r.bufs, r.reads[j].Buf)
		}
		e.store.ReadBlocksBatch(origin, r.dps, r.bufs)
		return
	}
	e.store.ReadBlocksStamped(origin, r.reads, mode == readStable, &r.trains, r.refetch)
	if mode != readSeqlock {
		return
	}
	for j := range r.reads {
		rd, it := &r.reads[j], &r.items[r.readOf[j]]
		if rd.Load {
			it.stamp, it.stamped = rd.Stamp, true
		}
		if rd.Fetched {
			it.wire, it.post = true, rd.Post
			if rd.DP.Rank() != origin {
				r.fetched = append(r.fetched, fetchedRead{r.readOf[j], *rd})
			}
		}
	}
}

// validate is the seqlock double-check, on the post-stamps the rounds
// loaded: an item whose verdict rests on blocks off the wire (with confirm,
// also a gone, implausible or stub one) is readTorn unless the word behind
// its last such block shows the stamped version with the write bit clear.
// The blocks served from the validated cache were vouched for by the stamp
// itself. The fetched blocks of the OK and stub items that held are cached.
func (r *chainReader) validate(e *Engine, origin fabric.Rank, confirm bool) {
	for _, i := range r.batch {
		it := &r.items[i]
		ok, stub := it.verdict == readOK, it.verdict == readStub
		it.wire = it.wire && (ok || confirm && (stub || it.verdict == readGone || it.verdict == readImplausible))
		if it.wire && (locks.Version(it.post) != locks.Version(it.stamp) || locks.WriteHeld(it.post)) {
			it.verdict = readTorn
		}
	}
	if len(r.fetched) == 0 {
		return
	}
	// Cache what held holder by holder, each in chain order: a cache smaller
	// than the batch keeps whole holders.
	slices.SortStableFunc(r.fetched, func(a, b fetchedRead) int { return cmp.Compare(a.item, b.item) })
	r.reads = r.reads[:0]
	for _, f := range r.fetched {
		if it := &r.items[f.item]; it.wire && (it.verdict == readOK || it.verdict == readStub) {
			r.reads = append(r.reads, f.StampedRead)
		}
	}
	e.store.InstallStamped(origin, r.reads)
}

// readChains reads the whole chain of every head under the caller's write
// locks or marks, refusing heads want refuses; an item not readOK was
// rejected, and has no buf.
func (e *Engine) readChains(origin fabric.Rank, heads []fabric.DPtr, want func(head []byte) bool) []chainItem {
	fs := getReadScratch()
	defer fs.release()
	r := &fs.chainReader
	r.items = r.items[:0]
	for _, h := range heads {
		r.items = append(r.items, chainItem{head: h, want: want})
	}
	r.read(e, origin, readUnderLock, false, false)
	items := slices.Clone(r.items)
	for i := range items {
		if items[i].verdict != readOK {
			items[i].buf = nil // it may be the pooled head scratch
		}
	}
	return items
}

// readChain is readChains for one holder: buf is nil when it was rejected.
func (e *Engine) readChain(origin fabric.Rank, head fabric.DPtr, want func(head []byte) bool) (buf []byte, blocks []fabric.DPtr) {
	it := &e.readChains(origin, []fabric.DPtr{head}, want)[0]
	if it.verdict != readOK {
		return nil, nil
	}
	return it.buf, it.chain()
}

// byteArena carves holder streams out of one buffer.
type byteArena struct {
	buf  []byte
	off  int // bytes of buf handed out
	used int // bytes handed out since the last reset, over every buffer
}

// reserve makes sure the next n bytes come out of one buffer: the current
// one if it has the room, a fresh one of exactly that size otherwise (what
// was carved from the old one stays valid; the old buffer is just not reused).
func (a *byteArena) reserve(n int) {
	if len(a.buf)-a.off < n {
		a.buf, a.off = make([]byte, n), 0
	}
}

// alloc returns n bytes, not zeroed, valid until the next reset.
func (a *byteArena) alloc(n int) []byte {
	a.reserve(n)
	a.off += n
	a.used += n
	return a.buf[a.off-n : a.off : a.off]
}

// reset makes the arena's memory available again, in one buffer that holds
// as much as was handed out since the last reset: a batch of the same shape
// then carves everything out of it.
func (a *byteArena) reset() {
	if len(a.buf) < a.used {
		a.buf = make([]byte, a.used)
	}
	a.off, a.used = 0, 0
}
