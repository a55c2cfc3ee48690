package analytics

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

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
// ascending VertexID order (the dense index space), their appIDs, and out-
// and all-neighbor lists as flat offset+target arrays — the CSR layout
// "Demystifying Graph Databases" identifies as the canonical
// high-performance adjacency organization. Edge targets preserve holder
// record order, so the kernels emit messages in exactly the order of their
// map-based reference formulation (bit-identical floating-point results).
type csr struct {
	me     int32
	nRanks int
	ids    []gdi.VertexID         // dense index -> vertex, ascending
	app    []uint64               // dense index -> application ID
	idx    map[gdi.VertexID]int32 // local vertex -> dense index (root seeding only)
	counts []int32                // per-rank shard sizes (sizes remote frontier bitmaps)
	outOff []int32                // CSR offsets, len(ids)+1
	outTgt []target               // out/undirected neighbors
	allOff []int32
	allTgt []target // neighbors over every direction
}

func (c *csr) nv() int { return len(c.ids) }

func (c *csr) out(i int32) []target { return c.outTgt[c.outOff[i]:c.outOff[i+1]] }
func (c *csr) all(i int32) []target { return c.allTgt[c.allOff[i]:c.allOff[i+1]] }

// xchg returns the engine's one-sided exchange for this graph.
func xchg(p *gdi.Process) *exch.Exchange { return p.Database().Engine().Exchange() }

// buildCSR snapshots the rank's shard into dense CSR form. Collective: one
// batched association of the local shard, then a single index-exchange pass
// over the one-sided exchange — every distinct remote neighbor is looked up
// on its owner exactly once (query round, reply round) and stored as a
// (rank, remoteIndex) pair.
func buildCSR(p *gdi.Process, tx *gdi.Transaction) (*csr, error) {
	n := p.Size()
	me := int32(p.Rank())
	c := &csr{me: me, nRanks: n}
	c.ids = p.LocalVertices()
	sort.Slice(c.ids, func(i, j int) bool { return c.ids[i] < c.ids[j] })
	c.idx = make(map[gdi.VertexID]int32, len(c.ids))
	for i, v := range c.ids {
		c.idx[v] = int32(i)
	}
	handles, err := tx.AssociateVertices(c.ids)
	if err != nil {
		return nil, err
	}
	c.app = make([]uint64, len(c.ids))
	c.outOff = make([]int32, len(c.ids)+1)
	c.allOff = make([]int32, len(c.ids)+1)
	// Degree is a header read (no edge-region walk on lazy holders), so one
	// cheap pass sizes the adjacency arrays exactly and the gather loop below
	// never reallocates them.
	totalDeg := 0
	for i, v := range c.ids {
		if handles[i] == nil {
			return nil, fmt.Errorf("analytics: local vertex %v disappeared", v)
		}
		totalDeg += handles[i].Degree()
	}
	allNbr := make([]gdi.VertexID, 0, totalDeg)
	isOut := make([]bool, 0, totalDeg) // parallel to allNbr: record also feeds the out list
	nOut := 0
	for i, v := range c.ids {
		h := handles[i]
		if h == nil {
			return nil, fmt.Errorf("analytics: local vertex %v disappeared", v)
		}
		c.app[i] = h.AppID()
		if err := h.ForEachEdge(gdi.MaskAll, func(nb gdi.VertexID, dir gdi.Direction) {
			allNbr = append(allNbr, nb)
			out := dir == gdi.DirOut || dir == gdi.DirUndirected
			isOut = append(isOut, out)
			if out {
				nOut++
			}
		}); err != nil {
			return nil, err
		}
		c.outOff[i+1] = int32(nOut)
		c.allOff[i+1] = int32(len(allNbr))
	}

	return c, c.finish(p, allNbr, isOut, nOut)
}

// finish turns a csr whose ids/app/offset arrays are filled into a complete
// snapshot: it resolves every neighbor reference into dense (rank, index)
// targets with one index-exchange pass and allgathers the shard sizes. Both
// the live build (buildCSR) and the cut-sourced HTAP build (htap.go) end
// here, which is what makes their outputs comparable bit for bit.
//
// Index exchange: one query per distinct remote neighbor, bucketed by
// owner, shipped as one PUT train per owner rank; owners answer from
// their own dense index, again one train per requester.
func (c *csr) finish(p *gdi.Process, allNbr []gdi.VertexID, isOut []bool, nOut int) error {
	n := c.nRanks
	me := c.me
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
		sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })
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
			ix, ok := c.idx[gdi.VertexID(getU64(in[s], k*8))]
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
			return fmt.Errorf("analytics: rank %d answered %d bytes for %d index queries", d, len(rin[d]), len(q))
		}
		for k, nb := range q {
			ix := int32(getU32(rin[d], k*4))
			if ix < 0 {
				return fmt.Errorf("analytics: neighbor %v disappeared", nb)
			}
			resolve[nb] = ix
		}
	}
	// One resolution per record fills both target arrays (the out list is a
	// record-order subset of the all list).
	c.allTgt = make([]target, len(allNbr))
	c.outTgt = make([]target, 0, nOut)
	for i, nb := range allNbr {
		var t target
		if int32(nb.Rank()) == me {
			ix, ok := c.idx[nb]
			if !ok {
				return fmt.Errorf("analytics: neighbor %v disappeared", nb)
			}
			t = target{rank: me, idx: ix}
		} else {
			t = target{rank: int32(nb.Rank()), idx: resolve[nb]}
		}
		c.allTgt[i] = t
		if isOut[i] {
			c.outTgt = append(c.outTgt, t)
		}
	}
	c.counts = collective.Allgather(p.Comm(), p.Rank(), int32(len(c.ids)))
	return nil
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
