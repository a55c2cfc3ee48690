package analytics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	gdi "github.com/gdi-go/gdi"
)

// This file implements the iterative kernels over the index-compacted
// snapshot of csr.go. Values live in flat arrays indexed by dense vertex
// index, messages are little-endian records in reusable per-destination byte
// buffers, and every exchange is exactly one PUT train per destination rank
// and round through the one-sided exchange — no map lookups and no per-edge
// allocations anywhere on the iteration path.
//
// PageRank, WCC and CDLP are pull kernels over the csr's mirror plan: one
// value per mirror and destination crosses the exchange, and each vertex
// gathers its in-neighbors' values through its slots. PageRank's slots are
// ordered as its straightforward map-based formulation adds its messages
// (source rank, then ascending dense index = ascending VertexID, then holder
// record order), so its floating-point per-vertex results are bit-identical;
// the golden equivalence tests hold the kernels to the map-based reference
// versions they keep as oracles. The other kernels' results do not depend on
// order: BFS and WCC take minima or set bits, CDLP sorts each vertex's
// gathered labels, and LCC counts integer triangles.
//
// Every kernel is a public function that gets g's CSR snapshot and calls an
// …OverCSR body; the HTAP session calls the same bodies on its cut-sourced
// CSR.

// BFSStats reports how a direction-optimizing BFS traversed: how many
// levels expanded top-down (push) versus bottom-up (pull).
type BFSStats struct {
	PushLevels int
	PullLevels int
}

// bfsPullAlpha tunes the direction-optimizing switch: a level is expanded
// bottom-up when pullAlpha * |frontier| exceeds the number of unvisited
// vertices, i.e. once the frontier is dense enough that scanning the
// unvisited side touches fewer edges than pushing the frontier's (Beamer's
// heuristic on vertex counts).
const bfsPullAlpha = 4

// BFS runs a level-synchronous parallel breadth-first search from the
// vertex with application ID rootApp over all edges (both directions, as
// Graph500 treats the Kronecker graph). It returns the number of reached
// vertices and the eccentricity on every rank; a missing root reaches
// nothing, and only its owner rank reports ErrNotFound.
func BFS(p *gdi.Process, g *Graph, rootApp uint64) (visited int64, depth int, err error) {
	visited, depth, _, err = BFSDense(p, g, rootApp)
	return visited, depth, err
}

// BFSDense is BFS that also reports how many levels were expanded top-down
// (push) versus bottom-up (pull). The name is kept because the benchmark
// module calls it.
//
// It is a direction-optimizing breadth-first search over bitmap frontiers in
// the dense index space. Push levels route frontier segments (dense indices,
// deduplicated per destination with a bitmap) through the exchange; pull
// levels broadcast the claimed-frontier bitmap and let every rank scan its
// own unvisited vertices for a frontier neighbor. Like every dense kernel it
// reuses g's CSR snapshot while the store epoch holds.
func BFSDense(p *gdi.Process, g *Graph, rootApp uint64) (int64, int, BFSStats, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	c, err := g.csrOf(p, tx)
	if err != nil {
		return 0, 0, BFSStats{}, err
	}
	// The root starts on whichever rank holds it, which after a migration
	// need not be its DHT owner; the owner reports a missing root. A root
	// in the owner's own CSR exists, so only one elsewhere is translated.
	rootIdx := int32(slices.Index(c.app, rootApp))
	var firstErr error
	if rootIdx < 0 && int(c.me) == int(p.Database().Engine().OwnerOf(rootApp)) {
		if _, terr := tx.TranslateVertexID(rootApp); terr != nil {
			// Record the error but keep running the collective loop; an
			// empty frontier terminates it immediately.
			firstErr = terr
		}
	}
	return bfsOverCSR(p, c, rootIdx, firstErr)
}

// bfsOverCSR runs the direction-optimizing BFS over an already-built CSR
// snapshot (live or cut-sourced); rootIdx is the root's dense index on this
// rank, or -1 when the root lives elsewhere.
func bfsOverCSR(p *gdi.Process, c *csr, rootIdx int32, firstErr error) (int64, int, BFSStats, error) {
	var stats BFSStats
	nv := c.nv()
	me := int(c.me)
	n := c.nRanks
	visited := newBitset(nv)
	frontier := newBitset(nv)
	next := newBitset(nv)
	newly := newBitset(nv)
	if rootIdx >= 0 {
		frontier.set(rootIdx)
	}
	globalN := p.AllreduceInt64(int64(nv))
	x := xchg(p)
	bufs := make([][]byte, n)
	pushBufs := make([][]byte, n)
	queued := make([]bitset, n) // per-destination dedup of pushed indices
	for r := 0; r < n; r++ {
		if r != me {
			queued[r] = newBitset(int(c.counts[r]))
		}
	}
	fb := make([][]byte, n) // per-source frontier bitmaps during pull levels
	var visitedGlobal int64
	for d := 0; ; d++ {
		// Claim this level's frontier: new vertices only, bitmap-deduped.
		local := int64(0)
		for k := range newly {
			w := frontier[k] &^ visited[k]
			newly[k] = w
			visited[k] |= w
			local += int64(bits.OnesCount8(w))
		}
		total := p.AllreduceInt64(local)
		if total == 0 {
			// visitedGlobal already holds the allreduced claim totals.
			return visitedGlobal, d, stats, firstErr
		}
		visitedGlobal += total
		next.clear()
		for r := range bufs {
			bufs[r] = nil
		}
		if bfsPullAlpha*total > globalN-visitedGlobal {
			// Bottom-up: ship the claimed frontier bitmap to every rank,
			// then scan unvisited vertices for any frontier neighbor.
			stats.PullLevels++
			for r := 0; r < n; r++ {
				if r != me {
					bufs[r] = newly
				}
			}
			in := x.Round(p.Rank(), bufs)
			for s := 0; s < n; s++ {
				if s == me {
					fb[s] = newly
				} else {
					fb[s] = in[s]
				}
			}
			for i := int32(0); int(i) < nv; i++ {
				if visited.get(i) {
					continue
				}
				for _, t := range c.all(i) {
					if bitGet(fb[t.rank], t.idx) {
						next.set(i)
						break
					}
				}
			}
		} else {
			// Top-down: push every claimed vertex's neighbors, local ones
			// straight into the next-frontier bitmap, remote ones as dense
			// indices (one train per owner rank).
			stats.PushLevels++
			for r := 0; r < n; r++ {
				if r != me {
					queued[r].clear()
					bufs[r] = pushBufs[r][:0]
				}
			}
			for k, w := range newly {
				for ; w != 0; w &= w - 1 {
					i := int32(k*8 + bits.TrailingZeros8(w))
					for _, t := range c.all(i) {
						if int(t.rank) == me {
							if !visited.get(t.idx) {
								next.set(t.idx)
							}
							continue
						}
						if q := queued[t.rank]; !q.get(t.idx) {
							q.set(t.idx)
							bufs[t.rank] = appendU32(bufs[t.rank], uint32(t.idx))
						}
					}
				}
			}
			for r := 0; r < n; r++ {
				if r != me {
					pushBufs[r] = bufs[r] // keep grown buffers for reuse
				}
			}
			in := x.Round(p.Rank(), bufs)
			for s := 0; s < n; s++ {
				if s == me {
					continue
				}
				msg := in[s]
				for off := 0; off+4 <= len(msg); off += 4 {
					if ix := int32(getU32(msg, off)); !visited.get(ix) {
						next.set(ix)
					}
				}
			}
		}
		frontier, next = next, frontier
	}
}

// PageRank runs iters iterations of damped PageRank over out-edges
// (df = damping factor, the paper uses 0.85 and i=10). It returns the local
// rank mass by appID and the global L1 norm (≈1). Dense []float64 mass
// arrays, one 8-byte share per mirror and destination rank, one PUT train per
// rank pair and iteration. The CSR is g's snapshot, reused while the store
// epoch holds.
func PageRank(p *gdi.Process, g *Graph, iters int, df float64) (map[uint64]float64, float64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	c, err := g.csrOf(p, tx)
	if err != nil {
		return nil, 0, err
	}
	return pageRankOverCSR(p, c, iters, df)
}

// pageRankOverCSR runs PageRank over an already-built CSR snapshot (live or
// cut-sourced). Each iteration sends every mirror's share once per
// destination rank (pull) and sums each vertex's in-shares over its
// out-sourced slots, in the oracle's order.
func pageRankOverCSR(p *gdi.Process, c *csr, iters int, df float64) (map[uint64]float64, float64, error) {
	nGlobal := float64(p.AllreduceInt64(int64(c.nv())))
	if nGlobal == 0 {
		return nil, 0, fmt.Errorf("analytics: empty graph")
	}
	nv := c.nv()
	rank := make([]float64, nv)
	for i := range rank {
		rank[i] = 1 / nGlobal
	}
	share := c.values() // float64 bits: rank / out-degree, then the ghosts
	bufs := make([][]byte, c.nRanks)
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for i := 0; i < nv; i++ {
			deg := c.outEnd[i] - c.allOff[i]
			if deg == 0 {
				dangling += rank[i]
				continue
			}
			share[i] = math.Float64bits(rank[i] / float64(deg))
		}
		c.pull(p, share, bufs)
		danglingAll := p.AllreduceFloat64(dangling)
		base := (1-df)/nGlobal + df*danglingAll/nGlobal
		for i := range rank {
			acc := base
			for _, s := range c.outSlots(i) {
				acc += df * math.Float64frombits(share[s])
			}
			rank[i] = acc
		}
	}
	out := make(map[uint64]float64, nv)
	local := 0.0
	for i := 0; i < nv; i++ {
		out[c.app[i]] = rank[i]
		local += rank[i]
	}
	return out, p.AllreduceFloat64(local), nil
}

// CDLP runs iters rounds of synchronous community detection by label
// propagation (Graphalytics semantics: adopt the smallest most-frequent
// neighbor label; labels start as appIDs). Returns local appID → community.
// Each vertex gathers its neighbors' labels through the mirror plan into one
// reusable array, sorts it, and adopts the smallest most-frequent label —
// without per-vertex frequency maps. The CSR is g's snapshot, reused while
// the store epoch holds.
func CDLP(p *gdi.Process, g *Graph, iters int) (map[uint64]uint64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	c, err := g.csrOf(p, tx)
	if err != nil {
		return nil, err
	}
	return cdlpOverCSR(p, c, iters), nil
}

// cdlpOverCSR runs CDLP over an already-built CSR snapshot (live or
// cut-sourced). Every vertex reads the previous round's labels.
func cdlpOverCSR(p *gdi.Process, c *csr, iters int) map[uint64]uint64 {
	nv := c.nv()
	label := append([]uint64(nil), c.app...)
	vals := c.values()
	bufs := make([][]byte, c.nRanks)
	var group []uint64
	for it := 0; it < iters; it++ {
		copy(vals, label)
		c.pull(p, vals, bufs)
		for i := 0; i < nv; i++ {
			group = group[:0]
			for _, s := range c.allSlots(i) {
				group = append(group, vals[s])
			}
			if len(group) == 0 {
				continue
			}
			slices.Sort(group)
			best, bestCount := label[i], 0
			for a := 0; a < len(group); {
				b := a + 1
				for b < len(group) && group[b] == group[a] {
					b++
				}
				if b-a > bestCount {
					best, bestCount = group[a], b-a
				}
				a = b
			}
			label[i] = best
		}
	}
	out := make(map[uint64]uint64, nv)
	for i := 0; i < nv; i++ {
		out[c.app[i]] = label[i]
	}
	return out
}

// WCC computes weakly connected components by iterative minimum-appID
// propagation until global convergence (bounded by maxIters; the paper
// reports i=5 rounds on Kronecker graphs). Returns local appID → component
// and the number of iterations executed. The CSR is g's snapshot, reused
// while the store epoch holds.
func WCC(p *gdi.Process, g *Graph, maxIters int) (map[uint64]uint64, int, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	c, err := g.csrOf(p, tx)
	if err != nil {
		return nil, 0, err
	}
	comp, it := wccOverCSR(p, c, maxIters)
	return comp, it, nil
}

// wccOverCSR runs WCC over an already-built CSR snapshot (live or
// cut-sourced). Every vertex takes the minimum of its own component and its
// neighbors' components of the previous iteration.
func wccOverCSR(p *gdi.Process, c *csr, maxIters int) (map[uint64]uint64, int) {
	nv := c.nv()
	comp := append([]uint64(nil), c.app...)
	vals := c.values()
	bufs := make([][]byte, c.nRanks)
	it := 0
	for ; it < maxIters; it++ {
		copy(vals, comp)
		c.pull(p, vals, bufs)
		var changed int64
		for i := range comp {
			m := comp[i]
			for _, s := range c.allSlots(i) {
				m = min(m, vals[s])
			}
			if m < comp[i] {
				comp[i] = m
				changed++
			}
		}
		if p.AllreduceInt64(changed) == 0 {
			it++
			break
		}
	}
	out := make(map[uint64]uint64, nv)
	for i := 0; i < nv; i++ {
		out[c.app[i]] = comp[i]
	}
	return out, it
}

// LCC computes the average local clustering coefficient — the kernel the
// paper prices at O(n + m^{3/2}) — by degree-oriented triangle counting (the
// "forward" algorithm of Schank & Wagner and Latapy) in three exchange
// rounds for the whole rank. Every edge points from its lower to its higher
// endpoint in one global order, u ≺ w iff (degree, packed ID) of u is below
// that of w, so a vertex's out-set N⁺(v) holds at most √(2m) neighbors and
// each triangle v ≺ u ≺ w is found exactly once, at u's owner, as a common
// member of N⁺(v) and N⁺(u). A degree round tells each rank the degrees of
// its vertices' neighbors, a request round ships each N⁺(v) once to every
// rank that owns a member of it, and a credit round returns each triangle's
// remote corners to their owners as aggregated (index, count) records. The
// CSR is g's snapshot, reused while the store epoch holds.
func LCC(p *gdi.Process, g *Graph) (float64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	c, err := g.csrOf(p, tx)
	if err != nil {
		return 0, err
	}
	return lccOverCSR(p, c), nil
}

// lccOverCSR computes the average LCC over an already-built CSR snapshot
// (live or cut-sourced).
func lccOverCSR(p *gdi.Process, c *csr) float64 {
	links, degs := lccLinks(p, c)
	localSum, localCnt := 0.0, int64(c.nv())
	for i, d := range degs {
		deg := int(d)
		if deg < 2 {
			continue
		}
		localSum += float64(links[i]) / float64(deg*(deg-1))
	}
	sum := p.AllreduceFloat64(localSum)
	cnt := p.AllreduceInt64(localCnt)
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// lccLinks returns, per dense index, deg = |N(v)| and links = Σ_{u∈N(v)}
// |N(u) ∩ N(v)|, which is twice the number of triangles through v; N(v) is
// v's distinct neighbors over every direction, self-loops excluded.
// Collective: the three exchange rounds LCC describes.
func lccLinks(p *gdi.Process, c *csr) (links []int64, deg []int32) {
	nv := c.nv()
	n := c.nRanks
	me := c.me
	// N(v): sorted, deduplicated, self-loop-free packed neighbor sets.
	off := make([]int32, nv+1)
	flat := make([]uint64, 0, len(c.allTgt))
	deg = make([]int32, nv)
	for i := int32(0); int(i) < nv; i++ {
		start := len(flat)
		self := target{rank: me, idx: i}.packed()
		for _, t := range c.all(i) {
			if pk := t.packed(); pk != self {
				flat = append(flat, pk)
			}
		}
		seg := flat[start:]
		slices.Sort(seg)
		flat = flat[:start+len(slices.Compact(seg))]
		off[i+1] = int32(len(flat))
		deg[i] = off[i+1] - off[i]
	}

	// Degree round: (v, |N(v)|) once to every other rank owning a neighbor
	// of v; a sorted N(v) lists each rank's neighbors as one run.
	x := xchg(p)
	bufs := make([][]byte, n)
	for i := 0; i < nv; i++ {
		prev := int32(-1)
		for _, pk := range flat[off[i]:off[i+1]] {
			if r := int32(pk >> 32); r != prev {
				prev = r
				if r != me {
					bufs[r] = appendU32(appendU32(bufs[r], uint32(i)), uint32(deg[i]))
				}
			}
		}
	}
	in := x.Round(p.Rank(), bufs)
	degOf := make([][]int32, n) // by (rank, dense index); filled for neighbors only
	for s, msg := range in {
		if s == int(me) {
			degOf[s] = deg
			continue
		}
		degOf[s] = make([]int32, c.counts[s])
		for o := 0; o+8 <= len(msg); o += 8 {
			degOf[s][getU32(msg, o)] = int32(getU32(msg, o+4))
		}
	}

	// Orientation: N⁺(v) = {u ∈ N(v) : v ≺ u} overwrites N(v) in place,
	// still sorted by packed ID, as flat[plus[v]:plus[v+1]].
	plus := make([]int32, nv+1)
	w := int32(0)
	for i := int32(0); int(i) < nv; i++ {
		v, dv := target{rank: me, idx: i}.packed(), deg[i]
		for _, u := range flat[off[i]:off[i+1]] {
			if du := degOf[u>>32][uint32(u)]; du > dv || du == dv && u > v {
				flat[w] = u
				w++
			}
		}
		plus[i+1] = w
	}

	// A triangle adds 2 at each corner: local corners in place, remote ones
	// into per-rank arrays the credit round ships.
	links = make([]int64, nv)
	credit := make([][]int64, n)
	corner := func(pk uint64, add int64) {
		r, ix := int32(pk>>32), uint32(pk)
		if r == me {
			links[ix] += add
			return
		}
		if credit[r] == nil {
			credit[r] = make([]int64, c.counts[r])
		}
		credit[r][ix] += add
	}
	// closeTriangles credits every triangle v ≺ u ≺ w of a local u: the w are
	// the members common to N⁺(v) (vp) and N⁺(u), found by a linear merge.
	closeTriangles := func(v, u uint64, vp []uint64) {
		up := flat[plus[uint32(u)]:plus[uint32(u)+1]]
		t := int64(0)
		for j, k := 0, 0; j < len(vp) && k < len(up); {
			switch {
			case vp[j] < up[k]:
				j++
			case vp[j] > up[k]:
				k++
			default:
				corner(vp[j], 2)
				t++
				j++
				k++
			}
		}
		if t > 0 {
			corner(v, 2*t)
			corner(u, 2*t)
		}
	}

	// Request round: (v, |N⁺(v)|, N⁺(v)...) once to every other rank owning
	// a member of N⁺(v) — the receiver's own members are its u's. Members on
	// this rank are merged in place. A triangle needs |N⁺(v)| ≥ 2.
	for d := range bufs {
		bufs[d] = bufs[d][:0]
	}
	for i := int32(0); int(i) < nv; i++ {
		vp := flat[plus[i]:plus[i+1]]
		if len(vp) < 2 {
			continue
		}
		v := target{rank: me, idx: i}.packed()
		prev := int32(-1)
		for _, u := range vp {
			r := int32(u >> 32)
			if r == me {
				closeTriangles(v, u, vp)
			} else if r != prev {
				prev = r
				b := appendU32(appendU32(bufs[r], uint32(i)), uint32(len(vp)))
				for _, m := range vp {
					b = appendU64(b, m)
				}
				bufs[r] = b
			}
		}
	}
	in = x.Round(p.Rank(), bufs)
	var vp []uint64
	for s, msg := range in {
		for o := 0; o < len(msg); {
			v := target{rank: int32(s), idx: int32(getU32(msg, o))}.packed()
			m := int(getU32(msg, o+4))
			o += 8
			vp = vp[:0]
			for k := 0; k < m; k++ {
				vp = append(vp, getU64(msg, o+8*k))
			}
			o += 8 * m
			for _, u := range vp {
				if int32(u>>32) == me {
					closeTriangles(v, u, vp)
				}
			}
		}
	}

	// Credit round: one (index, count) record per remote corner vertex.
	for d := range bufs {
		bufs[d] = bufs[d][:0]
		for ix, add := range credit[d] {
			if add != 0 {
				bufs[d] = appendU32U64(bufs[d], uint32(ix), uint64(add))
			}
		}
	}
	in = x.Round(p.Rank(), bufs)
	for _, msg := range in {
		for o := 0; o+12 <= len(msg); o += 12 {
			links[getU32(msg, o)] += int64(getU64(msg, o+4))
		}
	}
	return links, deg
}
