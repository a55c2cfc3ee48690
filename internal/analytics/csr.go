package analytics

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/collective"
	exch "github.com/gdi-go/gdi/internal/exchange"
)

// target is a pre-resolved neighbor reference in the dense index space: the
// owning rank and the neighbor's dense index on that rank. Resolving every
// neighbor once at snapshot build time is what lets the iterative kernels
// run without a single map lookup — message routing and value updates are
// plain array indexing on both sides of the exchange.
type target struct {
	rank int32
	idx  int32
}

// packed folds a target into one comparable word (rank in the high half),
// the key LCC's sorted neighbor sets use.
func (t target) packed() uint64 { return uint64(uint32(t.rank))<<32 | uint64(uint32(t.idx)) }

// csr is one rank's index-compacted snapshot of its shard: local vertices in
// ascending VertexID order (the dense index space), their appIDs, and their
// neighbor lists as one flat offset+target array — the CSR layout
// "Demystifying Graph Databases" identifies as the canonical
// high-performance adjacency organization. A vertex's list holds its
// out/undirected records first, then its in-only records, each part in holder
// record order, so the out-list is a prefix of the all-list. PageRank, the
// only kernel sensitive to message order, emits exactly the order of its
// map-based reference formulation (bit-identical floating-point results).
type csr struct {
	me     int32
	nRanks int
	ids    []gdi.VertexID // dense index -> vertex, ascending
	app    []uint64       // dense index -> application ID
	counts []int32        // per-rank shard sizes (sizes remote frontier bitmaps)
	allOff []int32        // CSR offsets, len(ids)+1
	outEnd []int32        // end of vertex i's out/undirected prefix of allTgt
	allTgt []target       // neighbors over every direction
}

func (c *csr) nv() int { return len(c.ids) }

func (c *csr) out(i int32) []target { return c.allTgt[c.allOff[i]:c.outEnd[i]] }
func (c *csr) all(i int32) []target { return c.allTgt[c.allOff[i]:c.allOff[i+1]] }

// xchg returns the engine's one-sided exchange for this graph.
func xchg(p *gdi.Process) *exch.Exchange { return p.Database().Engine().Exchange() }

// builtCSR is one rank's cached snapshot and the store epoch sampled before
// it was built.
type builtCSR struct {
	c     *csr
	epoch uint64
}

// csrOf returns this rank's CSR of g for a dense kernel running in the
// collective read-only transaction tx: the one built by an earlier kernel on
// g while no rank's store epoch has moved since, else a fresh build.
// Collective.
func (g *Graph) csrOf(p *gdi.Process, tx *gdi.Transaction) (*csr, error) {
	return g.reuseOrBuild(p, tx, buildCSR)
}

// reuseOrBuild is csrOf with the builder as a parameter (tests land a commit
// inside it). One OR-reduction of "my epoch moved, or I hold no CSR" decides
// for every rank at once, so either all ranks reuse or all rebuild and no two
// ranks disagree about the dense index space.
//
// Correctness rests on one order. Each rank samples its epoch before the
// vote, and the vote synchronizes like a barrier, so every sample precedes
// every rank's build. A write or shard change bumps its epoch only after it
// has landed. If the bump precedes a rank's sample, the change landed before
// any build read anything, so every build saw it. If it follows, that rank's
// recorded epoch is stale and it votes "moved" on the next call. A build
// that fails is not cached.
func (g *Graph) reuseOrBuild(p *gdi.Process, tx *gdi.Transaction, build func(*gdi.Process, *gdi.Transaction) (*csr, error)) (*csr, error) {
	me := p.Rank()
	epoch := p.Database().Engine().StoreEpoch(me)
	g.mu.Lock()
	if g.built == nil {
		g.built = make([]builtCSR, p.Size())
	}
	last := g.built[me]
	g.mu.Unlock()
	if !collective.OrReduce(p.Comm(), me, last.c == nil || last.epoch != epoch) {
		return last.c, nil
	}
	c, err := build(p, tx)
	next := builtCSR{c: c, epoch: epoch}
	if err != nil {
		next = builtCSR{}
	}
	g.mu.Lock()
	g.built[me] = next
	g.mu.Unlock()
	return c, err
}

// buildCSR snapshots the rank's shard into dense CSR form. Collective: one
// batched association of the local shard, then a single index-exchange pass
// over the one-sided exchange — every distinct remote neighbor is looked up
// on its owner exactly once (query round, reply round) and stored as a
// (rank, remoteIndex) pair.
func buildCSR(p *gdi.Process, tx *gdi.Transaction) (*csr, error) {
	b := newCSRBuilder(p, p.LocalVertices())
	handles, err := tx.AssociateVertices(b.c.ids)
	if err != nil {
		return nil, err
	}
	// Degree is a header read (no edge-region walk on lazy holders), so one
	// cheap pass sizes the adjacency array exactly and the gather loop below
	// never reallocates it.
	totalDeg := 0
	for i, v := range b.c.ids {
		if handles[i] == nil {
			return nil, fmt.Errorf("analytics: local vertex %v disappeared", v)
		}
		totalDeg += handles[i].Degree()
	}
	b.nbrs = make([]gdi.VertexID, 0, totalDeg)
	for i, h := range handles {
		if err := h.ForEachEdge(gdi.MaskAll, b.add); err != nil {
			return nil, err
		}
		b.end(i, h.AppID())
	}
	return b.finish(p)
}

// csrBuilder lays a shard out in csr form, for the live build and the
// cut-sourced HTAP build (htap.go) alike.
type csrBuilder struct {
	c    *csr
	nbrs []gdi.VertexID // every closed vertex's neighbor list, concatenated
	in   []gdi.VertexID // the open vertex's in-only records
}

// newCSRBuilder starts a snapshot of this rank's vertices ids, which it sorts
// in place into the dense index order.
func newCSRBuilder(p *gdi.Process, ids []gdi.VertexID) *csrBuilder {
	slices.Sort(ids)
	return &csrBuilder{c: &csr{
		me:     int32(p.Rank()),
		nRanks: p.Size(),
		ids:    ids,
		app:    make([]uint64, len(ids)),
		allOff: make([]int32, len(ids)+1),
		outEnd: make([]int32, len(ids)),
	}}
}

// add records one edge of the open vertex; vertices open in dense index
// order.
func (b *csrBuilder) add(nb gdi.VertexID, dir gdi.Direction) {
	if dir == gdi.DirOut || dir == gdi.DirUndirected {
		b.nbrs = append(b.nbrs, nb)
	} else {
		b.in = append(b.in, nb)
	}
}

// end closes dense vertex i: its in-only records follow its out-list.
func (b *csrBuilder) end(i int, app uint64) {
	b.c.app[i] = app
	b.c.outEnd[i] = int32(len(b.nbrs))
	b.nbrs = append(b.nbrs, b.in...)
	b.in = b.in[:0]
	b.c.allOff[i+1] = int32(len(b.nbrs))
}

// finish turns the laid-out lists into a complete snapshot: it resolves
// every neighbor reference into dense (rank, index) targets with one
// index-exchange pass and allgathers the shard sizes. Both builds end here,
// which is what makes their outputs comparable bit for bit.
//
// Index exchange: one query per distinct remote neighbor, bucketed by
// owner, shipped as one PUT train per owner rank; owners answer from
// their own dense index, again one train per requester.
func (b *csrBuilder) finish(p *gdi.Process) (*csr, error) {
	c, allNbr := b.c, b.nbrs
	n := c.nRanks
	me := c.me
	idx := make(map[gdi.VertexID]int32, len(c.ids)) // local vertex -> dense index
	for i, v := range c.ids {
		idx[v] = int32(i)
	}
	queries := make([][]gdi.VertexID, n)
	resolve := make(map[gdi.VertexID]int32)
	for _, nb := range allNbr {
		r := int(nb.Rank())
		if r == int(me) {
			continue
		}
		if _, dup := resolve[nb]; dup {
			continue
		}
		resolve[nb] = -1
		queries[r] = append(queries[r], nb)
	}
	x := xchg(p)
	bufs := make([][]byte, n)
	for d, q := range queries {
		if d == int(me) || len(q) == 0 {
			continue
		}
		slices.Sort(q)
		buf := make([]byte, 0, len(q)*8)
		for _, nb := range q {
			buf = appendU64(buf, uint64(nb))
		}
		bufs[d] = buf
	}
	in := x.Round(p.Rank(), bufs)
	reply := make([][]byte, n)
	for s := 0; s < n; s++ {
		if s == int(me) || len(in[s]) == 0 {
			continue
		}
		nq := len(in[s]) / 8
		rb := make([]byte, 0, nq*4)
		for k := 0; k < nq; k++ {
			ix, ok := idx[gdi.VertexID(getU64(in[s], k*8))]
			if !ok {
				ix = -1
			}
			rb = appendU32(rb, uint32(ix))
		}
		reply[s] = rb
	}
	rin := x.Round(p.Rank(), reply)
	for d := 0; d < n; d++ {
		if d == int(me) {
			continue
		}
		q := queries[d]
		if len(rin[d]) != len(q)*4 {
			return nil, fmt.Errorf("analytics: rank %d answered %d bytes for %d index queries", d, len(rin[d]), len(q))
		}
		for k, nb := range q {
			ix := int32(getU32(rin[d], k*4))
			if ix < 0 {
				return nil, fmt.Errorf("analytics: neighbor %v disappeared", nb)
			}
			resolve[nb] = ix
		}
	}
	c.allTgt = make([]target, len(allNbr))
	for i, nb := range allNbr {
		if int32(nb.Rank()) != me {
			c.allTgt[i] = target{rank: int32(nb.Rank()), idx: resolve[nb]}
			continue
		}
		ix, ok := idx[nb]
		if !ok {
			return nil, fmt.Errorf("analytics: neighbor %v disappeared", nb)
		}
		c.allTgt[i] = target{rank: me, idx: ix}
	}
	c.counts = collective.Allgather(p.Comm(), p.Rank(), int32(len(c.ids)))
	return c, nil
}

// Wire-format helpers: all dense-engine messages are little-endian records
// appended to reusable per-destination byte buffers.

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendU32U64 appends one 12-byte (index, word) record with a single append
// — the wire unit of the label/component/rank-mass messages.
func appendU32U64(b []byte, i uint32, v uint64) []byte {
	return append(b, byte(i), byte(i>>8), byte(i>>16), byte(i>>24),
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendU32F64(b []byte, i uint32, v float64) []byte {
	return appendU32U64(b, i, math.Float64bits(v))
}

func getU32(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
func getU64(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
func getF64(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

// bitset is a dense-index bit vector backed by bytes, so frontier bitmaps
// travel through the exchange without re-encoding.
type bitset []byte

func newBitset(n int) bitset { return make(bitset, (n+7)/8) }

func (b bitset) set(i int32)      { b[i>>3] |= 1 << (i & 7) }
func (b bitset) get(i int32) bool { return b[i>>3]&(1<<(i&7)) != 0 }

func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

// bitGet tests bit i of a raw bitmap payload.
func bitGet(b []byte, i int32) bool {
	k := int(i >> 3)
	return k < len(b) && b[k]&(1<<(i&7)) != 0
}
