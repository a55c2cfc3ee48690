package analytics

import (
	"encoding/binary"
	"fmt"
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
// record order, so the out-list is a prefix of the all-list. The mirror plan
// (plan) is built with it and lives and dies with it: PageRank, WCC and CDLP
// pull their neighbors' values through it, and PageRank's sums follow the
// order of its map-based reference formulation (bit-identical
// floating-point results).
type csr struct {
	me     int32
	nRanks int
	ids    []gdi.VertexID // dense index -> vertex, ascending
	app    []uint64       // dense index -> application ID
	counts []int32        // per-rank shard sizes (sizes remote frontier bitmaps)
	allOff []int32        // CSR offsets, len(ids)+1
	outEnd []int32        // end of vertex i's out/undirected prefix of allTgt
	allTgt []target       // neighbors over every direction
	plan   mirrorPlan
}

func (c *csr) nv() int { return len(c.ids) }

func (c *csr) all(i int32) []target { return c.allTgt[c.allOff[i]:c.allOff[i+1]] }

// mirrorPlan is a csr's exchange plan for value propagation, Gemini's
// mirror/ghost scheme (Zhu et al., OSDI 2016) over the one-sided exchange.
// A vertex with a neighbor on rank d is a mirror for d: each iteration sends
// d one 8-byte value per mirror, however many edge records join the two.
// A kernel's values live in one array: the nv local values first, then the
// ghosts, the values each source rank sent for its mirrors, in rank order.
// A local vertex reads its in-neighbors through int32 slots into that
// array.
//
// Vertex v's slots hold one entry per edge record, on any rank, that names
// v — one per message the map oracle sends v: sources in ascending rank
// order, each source's records in ascending dense index, then record order,
// and the records from the sources' out/undirected parts first. So
// PageRank, summing over the out-sourced prefix, adds its shares in the
// oracle's order.
type mirrorPlan struct {
	mirrors    [][]int32 // per destination rank: ascending local mirrors for it
	ghostOff   []int32   // per source rank: its ghosts start at nv+ghostOff[s]; len nRanks+1
	slotOff    []int32   // offsets into slots, nv+1
	slotOutEnd []int32   // end of vertex i's out-sourced prefix of its slots
	slots      []int32   // value slots of every vertex's in-neighbor records
}

// values returns a zeroed value array: nv local values, then the ghosts.
func (c *csr) values() []uint64 { return make([]uint64, c.nv()+int(c.plan.ghostOff[c.nRanks])) }

// outSlots and allSlots list where vertex i reads the values of the sources
// that send it over out/undirected records, and over every record.
func (c *csr) outSlots(i int) []int32 { return c.plan.slots[c.plan.slotOff[i]:c.plan.slotOutEnd[i]] }
func (c *csr) allSlots(i int) []int32 { return c.plan.slots[c.plan.slotOff[i]:c.plan.slotOff[i+1]] }

// pull fills the ghosts of vals from the local values vals[:nv] of every
// rank: one 8-byte word per mirror and destination, in one exchange round.
// bufs (one per rank) are reused send buffers. Collective.
func (c *csr) pull(p *gdi.Process, vals []uint64, bufs [][]byte) {
	for d, ms := range c.plan.mirrors {
		b := bufs[d][:0]
		for _, i := range ms {
			b = appendU64(b, vals[i])
		}
		bufs[d] = b
	}
	in := xchg(p).Round(p.Rank(), bufs)
	ghosts := vals[c.nv():]
	for s, msg := range in {
		if s == int(c.me) {
			continue
		}
		g := ghosts[c.plan.ghostOff[s]:c.plan.ghostOff[s+1]]
		if len(msg) != 8*len(g) {
			panic(fmt.Sprintf("analytics: rank %d sent %d bytes for %d mirrors", s, len(msg), len(g)))
		}
		for k := range g {
			g[k] = getU64(msg, 8*k)
		}
	}
}

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
// g while no rank's store epoch has moved since, else a fresh build, whose
// reads join tx's read set. Collective.
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
// batched association of the local shard, then the index exchange and the
// mirror plan's transpose over the one-sided exchange (finish).
func buildCSR(p *gdi.Process, tx *gdi.Transaction) (*csr, error) {
	b := newCSRBuilder(p, p.LocalVertices())
	return b.finish(p, b.readLive(tx))
}

// readLive lays the live shard out: every local vertex's records, read in
// one batched association.
func (b *csrBuilder) readLive(tx *gdi.Transaction) error {
	handles, err := tx.AssociateVertices(b.c.ids)
	if err != nil {
		return err
	}
	// Degree is a header read (no edge-region walk on lazy holders), so one
	// cheap pass sizes the adjacency array exactly and the gather loop below
	// never reallocates it.
	totalDeg := 0
	for i, v := range b.c.ids {
		if handles[i] == nil {
			return fmt.Errorf("analytics: local vertex %v disappeared", v)
		}
		totalDeg += handles[i].Degree()
	}
	b.nbrs = make([]gdi.VertexID, 0, totalDeg)
	for i, h := range handles {
		if err := h.ForEachEdge(gdi.MaskAll, b.add); err != nil {
			return err
		}
		b.end(i, h.AppID(), h.Homes())
	}
	return nil
}

// csrBuilder lays a shard out in csr form, for the live build and the
// cut-sourced HTAP build (htap.go) alike.
type csrBuilder struct {
	c     *csr
	nbrs  []gdi.VertexID // every closed vertex's neighbor list, concatenated
	in    []gdi.VertexID // the open vertex's in-only records
	homes []homeAlias    // former homes of the closed vertices
}

// homeAlias names a local vertex by one of its former homes: edge records
// written before a migration still name the vertex by it.
type homeAlias struct {
	home gdi.VertexID
	idx  int32
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

// end closes dense vertex i, whose former homes are homes: its in-only
// records follow its out-list.
func (b *csrBuilder) end(i int, app uint64, homes []gdi.VertexID) {
	b.c.app[i] = app
	b.c.outEnd[i] = int32(len(b.nbrs))
	b.nbrs = append(b.nbrs, b.in...)
	b.in = b.in[:0]
	b.c.allOff[i+1] = int32(len(b.nbrs))
	for _, h := range homes {
		b.homes = append(b.homes, homeAlias{home: h, idx: int32(i)})
	}
}

// finish turns the laid-out lists into a complete snapshot: it resolves
// every neighbor reference into dense (rank, index) targets, builds the
// mirror plan and allgathers the shard sizes. Both builds end here, which is
// what makes their outputs comparable bit for bit. Collective, failures
// included: a rank whose shard read failed (readErr) or that cannot resolve
// a neighbor fails every rank. A failed read still takes its part in the
// index exchange, with nothing of its own to resolve, so no peer waits on it.
func (b *csrBuilder) finish(p *gdi.Process, readErr error) (*csr, error) {
	if readErr != nil {
		b.nbrs, b.homes = nil, nil
	}
	err := b.resolve(p)
	if readErr != nil {
		err = readErr
	}
	if err := collective.AgreeOnError(p.Comm(), p.Rank(), err, kernelErrs...); err != nil {
		return nil, err
	}
	b.c.buildPlan(p)
	b.c.counts = collective.Allgather(p.Comm(), p.Rank(), int32(len(b.c.ids)))
	return b.c, nil
}

// resolve fills allTgt through the index exchange. An alias round first
// tells each former home's rank where its vertex lives now (it puts nothing
// while no vertex has moved). Then one query per distinct remote neighbor,
// bucketed by the rank its DPtr names, ships as one PUT train per rank; that
// rank answers (rank, index) from its dense index, or from the alias table
// for a stale home, again one train per requester. Collective; it returns
// an error only after its last round.
func (b *csrBuilder) resolve(p *gdi.Process) error {
	c, allNbr := b.c, b.nbrs
	n := c.nRanks
	me := c.me
	x := xchg(p)
	idx := make(map[gdi.VertexID]int32, len(c.ids)) // local vertex -> dense index
	for i, v := range c.ids {
		idx[v] = int32(i)
	}
	alias := make(map[gdi.VertexID]target) // stale home on this rank -> where its vertex lives
	bufs := make([][]byte, n)
	for _, a := range b.homes {
		if r := a.home.Rank(); int32(r) != me {
			bufs[r] = appendU32(appendU64(bufs[r], uint64(a.home)), uint32(a.idx))
		} else {
			alias[a.home] = target{rank: me, idx: a.idx}
		}
	}
	for s, msg := range x.Round(p.Rank(), bufs) { // in[me] is empty
		for o := 0; o+12 <= len(msg); o += 12 {
			alias[gdi.VertexID(getU64(msg, o))] = target{rank: int32(s), idx: int32(getU32(msg, o+8))}
		}
	}
	lookup := func(v gdi.VertexID) (target, bool) {
		if ix, ok := idx[v]; ok {
			return target{rank: me, idx: ix}, true
		}
		t, ok := alias[v]
		return t, ok
	}

	queries := make([][]gdi.VertexID, n)
	resolved := make(map[gdi.VertexID]target)
	for _, nb := range allNbr {
		r := int(nb.Rank())
		if r == int(me) {
			continue
		}
		if _, dup := resolved[nb]; dup {
			continue
		}
		resolved[nb] = target{}
		queries[r] = append(queries[r], nb)
	}
	bufs = make([][]byte, n)
	for d, q := range queries {
		if len(q) == 0 {
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
	for s, msg := range in { // in[me] is empty
		rb := make([]byte, 0, len(msg))
		for o := 0; o+8 <= len(msg); o += 8 {
			t, ok := lookup(gdi.VertexID(getU64(msg, o)))
			if !ok {
				t = target{rank: -1, idx: -1}
			}
			rb = appendU64(rb, t.packed())
		}
		reply[s] = rb
	}
	rin := x.Round(p.Rank(), reply)
	for d, q := range queries {
		if len(rin[d]) != len(q)*8 {
			return fmt.Errorf("analytics: rank %d answered %d bytes for %d index queries", d, len(rin[d]), len(q))
		}
		for k, nb := range q {
			w := getU64(rin[d], k*8)
			t := target{rank: int32(w >> 32), idx: int32(uint32(w))}
			if t.rank < 0 {
				return fmt.Errorf("analytics: neighbor %v disappeared", nb)
			}
			resolved[nb] = t
		}
	}
	c.allTgt = make([]target, len(allNbr))
	for i, nb := range allNbr {
		if int32(nb.Rank()) != me {
			c.allTgt[i] = resolved[nb]
			continue
		}
		t, ok := lookup(nb)
		if !ok {
			return fmt.Errorf("analytics: neighbor %v disappeared", nb)
		}
		c.allTgt[i] = t
	}
	return nil
}

// buildPlan builds c's mirror plan by transposing, once, the messages a
// per-record push would send each iteration. Every rank lists its mirrors
// per destination and sends each destination one (target index, mirror
// position | out bit) record per edge record that crosses to it, in push
// order, in one exchange round. Each receiver then sorts the records from
// every source rank, its own local records at its own rank's turn, stably by
// target: a counting sort that puts out-sourced records first. Collective.
func (c *csr) buildPlan(p *gdi.Process) {
	nv, n, me := c.nv(), c.nRanks, c.me
	const outBit = 1 << 31
	pl := &c.plan
	pl.mirrors = make([][]int32, n)
	last := make([]int32, n) // last vertex listed as a mirror, per destination
	for d := range last {
		last[d] = -1
	}
	bufs := make([][]byte, n)
	for i := int32(0); int(i) < nv; i++ {
		for k, t := range c.all(i) {
			if t.rank == me {
				continue
			}
			if last[t.rank] != i {
				last[t.rank] = i
				pl.mirrors[t.rank] = append(pl.mirrors[t.rank], i)
			}
			pos := uint32(len(pl.mirrors[t.rank]) - 1)
			if int32(k) < c.outEnd[i]-c.allOff[i] {
				pos |= outBit
			}
			bufs[t.rank] = appendU32(appendU32(bufs[t.rank], uint32(t.idx)), pos)
		}
	}
	in := xchg(p).Round(p.Rank(), bufs)

	// each calls fn(target, slot, out) for every record naming a local
	// vertex, in the order the oracle's messages arrive.
	pl.ghostOff = make([]int32, n+1)
	each := func(fn func(v, slot int32, out bool)) {
		for s := 0; s < n; s++ {
			if s == int(me) {
				for i := int32(0); int(i) < nv; i++ {
					for k, t := range c.all(i) {
						if t.rank == me {
							fn(t.idx, i, int32(k) < c.outEnd[i]-c.allOff[i])
						}
					}
				}
				continue
			}
			base := int32(nv) + pl.ghostOff[s]
			for o := 0; o+8 <= len(in[s]); o += 8 {
				pos := getU32(in[s], o+4)
				fn(int32(getU32(in[s], o)), base+int32(pos&^outBit), pos&outBit != 0)
			}
		}
	}
	for s := 0; s < n; s++ {
		ghosts := int32(0) // every mirror for this rank has a record here
		for o := 0; o+8 <= len(in[s]); o += 8 {
			ghosts = max(ghosts, int32(getU32(in[s], o+4)&^outBit)+1)
		}
		pl.ghostOff[s+1] = pl.ghostOff[s] + ghosts
	}
	outs := make([]int32, nv)
	pl.slotOff = make([]int32, nv+1)
	each(func(v, _ int32, out bool) {
		pl.slotOff[v+1]++
		if out {
			outs[v]++
		}
	})
	for i := 0; i < nv; i++ {
		pl.slotOff[i+1] += pl.slotOff[i]
	}
	pl.slotOutEnd = make([]int32, nv)
	inPos := make([]int32, nv)
	for i := range outs {
		pl.slotOutEnd[i] = pl.slotOff[i] + outs[i]
		outs[i] = pl.slotOff[i] // now the next out-sourced slot
		inPos[i] = pl.slotOutEnd[i]
	}
	pl.slots = make([]int32, pl.slotOff[nv])
	each(func(v, slot int32, out bool) {
		next := &inPos[v]
		if out {
			next = &outs[v]
		}
		pl.slots[*next] = slot
		*next++
	})
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
// — the wire unit of LCC's credit round.
func appendU32U64(b []byte, i uint32, v uint64) []byte {
	return append(b, byte(i), byte(i>>8), byte(i>>16), byte(i>>24),
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func getU32(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
func getU64(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

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
