// Package snapshot implements the HTAP snapshot subsystem: MVCC-lite
// copy-on-write block versions keyed off the 31-bit version counters embedded
// in the per-block lock words (package locks), so analytics can read a
// transaction-consistent cut of the store while OLTP commit trains keep
// landing.
//
// The design is deliberately "MVCC-lite": the live store keeps exactly one
// copy of every block, and old bytes are materialized lazily. A collective
// AcquireCut (driven by the core engine under its commit gate) pins a cut by
// stamping every lock word of every shard with one guard-stamp train per rank
// — the same vectored atomic-load train the PR 3 block cache revalidates
// with, issued owner-locally and therefore latency-free. Afterwards, any
// writer about to overwrite a block whose stamped version is still live first
// retires the old bytes into the owner rank's version arena
// (Manager.BeforeWrite, the block store's pre-write hook). That one hook
// suffices because a lock word's version moves only when a release's hold
// wrote the block (package locks): a release that wrote nothing leaves the
// stamp current. A block no cut read reaches — the engine's follower
// copies, since a cut lists and reads primaries — is stamped so that no
// write retires it (PinRank). Cut readers check the arena first and fall
// back to a validated live read; the retire-before-write ordering
// guarantees a reader that misses the arena observed bytes no writer had
// started replacing.
//
// A retired version belongs to the cuts that were pinned when it was
// retired, not to every cut stamping the same version: a continuation
// block's lock word never moves, so cuts pinned before and after a rewrite
// of it stamp it alike yet need different bytes. Each cut therefore holds
// its retired blocks itself, one per block, and an entry is shared only by
// the cuts it was retired for. Entries are reference-counted by those cuts
// and freed when the last of them is released, so a dropped analytics run
// returns the arena to zero bytes (see Manager.ArenaBytes).
package snapshot

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/locks"
)

// cutRetries bounds the arena/live-read alternation of ReadBlock.
const cutRetries = 64

// arenaEntry is one retired block version, held by refs cuts.
type arenaEntry struct {
	data []byte
	refs int
}

// rankShard is the per-rank snapshot state: the active cuts pinning this
// shard. Its mutex also guards those cuts' retired blocks on this rank.
type rankShard struct {
	mu     sync.Mutex
	active []*Cut
	// pinned mirrors len(active) so the write-path hooks can skip all work
	// with one atomic load while no cut is open.
	pinned atomic.Int32
}

// Manager tracks the active cuts and version arenas of all ranks. One
// Manager serves one engine; all methods are safe for concurrent use from
// any rank.
type Manager struct {
	store   *block.Store
	sys     fabric.WordWin
	nRanks  int
	perRank int
	bs      int

	ranks []rankShard

	arenaBytes atomic.Int64
	retired    atomic.Int64
	cutsTotal  atomic.Int64
}

// NewManager creates the snapshot manager over the given block store.
func NewManager(store *block.Store) *Manager {
	sys, _, _ := store.LockWord(fabric.MakeDPtr(0, 1))
	m := &Manager{
		store:   store,
		sys:     sys,
		nRanks:  store.Fabric().Size(),
		perRank: store.BlocksPerRank(),
		bs:      store.BlockSize(),
		ranks:   make([]rankShard, store.Fabric().Size()),
	}
	return m
}

// Cut is one pinned consistent cut across all shards. It is created on one
// rank, shared collectively, pinned per rank with PinRank, and released once
// (from any rank) with Release.
type Cut struct {
	m        *Manager
	stamps   [][]uint64               // [rank][off] pinned lock-word version
	verts    [][]fabric.DPtr          // [rank] primary blocks of the vertices at pin time
	retired  []map[uint64]*arenaEntry // [rank][off] the block's bytes at pin time, once overwritten
	released atomic.Bool
}

// NewCut allocates an empty cut shell. The engine's collective AcquireCut
// creates it on one rank, broadcasts it, and then every rank pins its own
// shard with PinRank under the commit gate.
func (m *Manager) NewCut() *Cut {
	m.cutsTotal.Add(1)
	return &Cut{
		m:       m,
		stamps:  make([][]uint64, m.nRanks),
		verts:   make([][]fabric.DPtr, m.nRanks),
		retired: make([]map[uint64]*arenaEntry, m.nRanks),
	}
}

// unread stamps a block no read through the cut reaches: no lock-word
// version equals it, so no write retires the block for the cut.
const unread = ^uint64(0)

// PinRank stamps rank me's whole shard into the cut: one guard-stamp train
// (a vectored atomic load of every lock word, owner-local and therefore
// latency-free). It must run
// under the engine's exclusive commit gate, so no commit is between its
// first write-back PUT and its final lock release while any shard stamps —
// that exclusion is what makes the per-rank stamps one transaction-
// consistent cut. Write-held words are stamped at their pre-bump version:
// such a commit has not written a byte yet (its apply phase is gated) and
// will retire the stamped bytes before it does. The blocks of me listed in
// unreached are ones no read through the cut can reach — the engine's
// follower copies, since a cut lists and reads primaries — and are stamped
// so that no write retires them.
func (m *Manager) PinRank(c *Cut, me fabric.Rank, unreached []fabric.DPtr) {
	idxs := make([]int, m.perRank-1)
	for i := range idxs {
		idxs[i] = 2 + i // lock word of block 1+i (word 1+off; block 0 is reserved)
	}
	words := m.sys.LoadBatch(me, me, idxs)
	stamps := make([]uint64, m.perRank)
	for i, w := range words {
		stamps[1+i] = locks.Version(w)
	}
	for _, dp := range unreached {
		if dp.Rank() == me && dp.Off() < uint64(len(stamps)) {
			stamps[dp.Off()] = unread
		}
	}
	rs := &m.ranks[me]
	rs.mu.Lock()
	c.stamps[me] = stamps
	rs.active = append(rs.active, c)
	rs.pinned.Add(1)
	rs.mu.Unlock()
}

// SetVerts records the cut's vertex listing for rank me: the primary blocks
// of the vertices that existed when the cut was pinned (filled by the engine
// from its local index, under the same gate as PinRank).
func (c *Cut) SetVerts(me fabric.Rank, dps []fabric.DPtr) { c.verts[me] = dps }

// Verts returns the cut's vertex listing for rank r.
func (c *Cut) Verts(r fabric.Rank) []fabric.DPtr { return c.verts[r] }

// Released reports whether the cut has been released.
func (c *Cut) Released() bool { return c.released.Load() }

// Release unpins the cut on every rank and drops its references on retired
// block versions; entries reaching zero references are freed, so after the
// last cut's release the arena holds zero bytes again. Safe to call from any
// single goroutine and idempotent — an analytics run aborted mid-iteration
// releases exactly like a completed one.
func (c *Cut) Release() { c.m.release(c) }

func (m *Manager) release(c *Cut) {
	if c.released.Swap(true) {
		return
	}
	for r := range m.ranks {
		rs := &m.ranks[r]
		rs.mu.Lock()
		for i, a := range rs.active {
			if a == c {
				rs.active = append(rs.active[:i], rs.active[i+1:]...)
				rs.pinned.Add(-1)
				break
			}
		}
		for _, e := range c.retired[r] {
			if e.refs--; e.refs == 0 {
				m.arenaBytes.Add(-int64(len(e.data)))
			}
		}
		c.retired[r] = nil
		rs.mu.Unlock()
	}
}

// BeforeWrite implements block.Retirer: the store calls it before
// overwriting dp's payload, and so before the first byte of the new value
// lands and before the release's version bump, which is the ordering cut
// readers rely on. It preserves the block's current bytes for every active
// cut whose stamp still names the block's current lock-word version and
// that has not retired the block yet: one entry, shared by those cuts. A
// cut that has retired it already holds its pin-time bytes. It runs
// owner-side: the lock word and the payload are read with rank-local
// accesses, which the fabric charges no remote latency for — the model
// being that the owner's version maintenance never crosses the network.
func (m *Manager) BeforeWrite(dp fabric.DPtr) {
	target, off := dp.Rank(), dp.Off()
	rs := &m.ranks[target]
	if rs.pinned.Load() == 0 {
		return
	}
	ver := locks.Version(m.sys.Load(target, target, 1+int(off)))
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var e *arenaEntry
	for _, c := range rs.active {
		if c.stamps[target][off] != ver || c.retired[target][off] != nil {
			continue
		}
		if e == nil {
			e = &arenaEntry{data: make([]byte, m.bs)}
			m.store.ReadBlock(target, dp, e.data)
			m.arenaBytes.Add(int64(m.bs))
			m.retired.Add(1)
		}
		if c.retired[target] == nil {
			c.retired[target] = make(map[uint64]*arenaEntry)
		}
		c.retired[target][off] = e
		e.refs++
	}
}

// lookupArena returns a copy-free view of the bytes the cut retired for
// (rank, off), or nil. Entries are immutable once inserted and outlive the
// lookup as long as the cut holds its reference, so the caller may copy from
// the returned slice without holding the shard mutex.
func (m *Manager) lookupArena(c *Cut, target fabric.Rank, off uint64) []byte {
	rs := &m.ranks[target]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if e := c.retired[target][off]; e != nil {
		return e.data
	}
	return nil
}

// ReadBlock reads block dp as of the cut into buf (whole-block reads only):
// the versioned read the cut-sourced CSR build walks holder chains with.
//
// Protocol: check the cut's retired blocks on the owner; on a miss, read the
// live bytes (charged like any one-sided GET) and check again. A second miss
// proves consistency: every writer retires the block for the cut (or finds
// it retired) before its first PUT of the block, so
// "no entry after the live read" means no post-cut overwrite had started
// when the read began — including for continuation blocks, whose lock words
// never change and whose reads a version stamp alone could not validate.
func (m *Manager) ReadBlock(origin fabric.Rank, c *Cut, dp fabric.DPtr, buf []byte) error {
	if c.released.Load() {
		return fmt.Errorf("snapshot: read through a released cut")
	}
	target, off := dp.Rank(), dp.Off()
	if c.stamps[target] == nil {
		return fmt.Errorf("snapshot: rank %d was never pinned in this cut", target)
	}
	if len(buf) != m.bs {
		return fmt.Errorf("snapshot: cut reads are whole-block (%d bytes), got %d", m.bs, len(buf))
	}
	for try := 0; try < cutRetries; try++ {
		if old := m.lookupArena(c, target, off); old != nil {
			copy(buf, old)
			return nil
		}
		m.store.ReadBlock(origin, dp, buf)
		if old := m.lookupArena(c, target, off); old != nil {
			copy(buf, old)
			return nil
		}
		// The live bytes predate any post-cut overwrite; check that the
		// version still matches the stamp (it must — only a write bumps it, and a
		// write retires first).
		ver := locks.Version(m.sys.Load(origin, target, 1+int(off)))
		if ver == c.stamps[target][off] {
			return nil
		}
	}
	return fmt.Errorf("snapshot: block %v failed cut validation after %d attempts", dp, cutRetries)
}

// ArenaBytes returns the total payload bytes currently held in all version
// arenas. It returns to zero once every cut is released.
func (m *Manager) ArenaBytes() int64 { return m.arenaBytes.Load() }

// RetiredBlocks counts block versions retired into the arenas since start.
func (m *Manager) RetiredBlocks() int64 { return m.retired.Load() }

// CutsAcquired counts cuts created since start.
func (m *Manager) CutsAcquired() int64 { return m.cutsTotal.Load() }
