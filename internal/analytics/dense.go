package analytics

import (
	"fmt"
	"math/bits"
	"sort"

	gdi "github.com/gdi-go/gdi"
)

// This file implements the iterative kernels over the index-compacted
// snapshot of csr.go. Values live in flat arrays indexed by dense vertex
// index, messages are little-endian records in reusable per-destination byte
// buffers, and every exchange is exactly one PUT train per destination rank
// and round through the one-sided exchange — no map lookups and no per-edge
// allocations anywhere on the iteration path.
//
// Message emission order deliberately mirrors the straightforward map-based
// formulation of each kernel (ascending dense index = ascending VertexID,
// holder record order within a vertex, incoming chunks folded in
// source-rank order), so floating-point kernels produce bit-identical
// per-vertex results; the golden equivalence tests hold the kernels to the
// map-based reference versions they keep as oracles.

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
// own unvisited vertices for a frontier neighbor.
func BFSDense(p *gdi.Process, g *Graph, rootApp uint64) (int64, int, BFSStats, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	c, err := buildCSR(p, tx)
	if err != nil {
		return 0, 0, BFSStats{}, err
	}
	rootIdx := int32(-1)
	var firstErr error
	if int(c.me) == int(p.Database().Engine().OwnerOf(rootApp)) {
		root, terr := tx.TranslateVertexID(rootApp)
		if terr != nil {
			// Record the error but keep running the collective loop; an
			// empty frontier terminates it immediately.
			firstErr = terr
		} else if ix, ok := c.idx[root]; ok {
			rootIdx = ix
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
// arrays, rank-mass messages as (index, share) records, one PUT train per
// owner rank and iteration.
func PageRank(p *gdi.Process, g *Graph, iters int, df float64) (map[uint64]float64, float64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	c, err := buildCSR(p, tx)
	if err != nil {
		return nil, 0, err
	}
	return pageRankOverCSR(p, c, iters, df)
}

// pageRankOverCSR runs PageRank over an already-built CSR snapshot (live or
// cut-sourced).
func pageRankOverCSR(p *gdi.Process, c *csr, iters int, df float64) (map[uint64]float64, float64, error) {
	nGlobal := float64(p.AllreduceInt64(int64(c.nv())))
	if nGlobal == 0 {
		return nil, 0, fmt.Errorf("analytics: empty graph")
	}
	nv := c.nv()
	rank := make([]float64, nv)
	next := make([]float64, nv)
	for i := range rank {
		rank[i] = 1 / nGlobal
	}
	x := xchg(p)
	bufs := make([][]byte, c.nRanks)
	for it := 0; it < iters; it++ {
		for d := range bufs {
			bufs[d] = bufs[d][:0]
		}
		dangling := 0.0
		for i := 0; i < nv; i++ {
			outs := c.out(int32(i))
			if len(outs) == 0 {
				dangling += rank[i]
				continue
			}
			share := rank[i] / float64(len(outs))
			for _, t := range outs {
				bufs[t.rank] = appendU32F64(bufs[t.rank], uint32(t.idx), share)
			}
		}
		in := x.Round(p.Rank(), bufs)
		danglingAll := p.AllreduceFloat64(dangling)
		base := (1-df)/nGlobal + df*danglingAll/nGlobal
		for i := range next {
			next[i] = base
		}
		for s := 0; s < c.nRanks; s++ {
			msg := in[s]
			for off := 0; off+12 <= len(msg); off += 12 {
				next[getU32(msg, off)] += df * getF64(msg, off+4)
			}
		}
		rank, next = next, rank
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
// Incoming labels are grouped per destination index with a counting sort
// into reusable flat arrays, each group sorted ascending, and the smallest
// most-frequent label adopted — without per-vertex frequency maps.
func CDLP(p *gdi.Process, g *Graph, iters int) (map[uint64]uint64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	c, err := buildCSR(p, tx)
	if err != nil {
		return nil, err
	}
	nv := c.nv()
	label := append([]uint64(nil), c.app...)
	x := xchg(p)
	bufs := make([][]byte, c.nRanks)
	off := make([]int32, nv+1)
	pos := make([]int32, nv)
	var flat []uint64
	for it := 0; it < iters; it++ {
		for d := range bufs {
			bufs[d] = bufs[d][:0]
		}
		for i := 0; i < nv; i++ {
			for _, t := range c.all(int32(i)) {
				bufs[t.rank] = appendU32U64(bufs[t.rank], uint32(t.idx), label[i])
			}
		}
		in := x.Round(p.Rank(), bufs)
		// Counting sort of incoming labels by destination index.
		for i := range off {
			off[i] = 0
		}
		total := 0
		for s := 0; s < c.nRanks; s++ {
			msg := in[s]
			for o := 0; o+12 <= len(msg); o += 12 {
				off[getU32(msg, o)+1]++
				total++
			}
		}
		for i := 1; i <= nv; i++ {
			off[i] += off[i-1]
		}
		copy(pos, off[:nv])
		if cap(flat) < total {
			flat = make([]uint64, total)
		}
		flat = flat[:total]
		for s := 0; s < c.nRanks; s++ {
			msg := in[s]
			for o := 0; o+12 <= len(msg); o += 12 {
				i := getU32(msg, o)
				flat[pos[i]] = getU64(msg, o+4)
				pos[i]++
			}
		}
		for i := 0; i < nv; i++ {
			group := flat[off[i]:off[i+1]]
			if len(group) == 0 {
				continue
			}
			sort.Slice(group, func(a, b int) bool { return group[a] < group[b] })
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
	return out, nil
}

// WCC computes weakly connected components by iterative minimum-appID
// propagation until global convergence (bounded by maxIters; the paper
// reports i=5 rounds on Kronecker graphs). Returns local appID → component
// and the number of iterations executed.
func WCC(p *gdi.Process, g *Graph, maxIters int) (map[uint64]uint64, int, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	c, err := buildCSR(p, tx)
	if err != nil {
		return nil, 0, err
	}
	nv := c.nv()
	comp := append([]uint64(nil), c.app...)
	x := xchg(p)
	bufs := make([][]byte, c.nRanks)
	it := 0
	for ; it < maxIters; it++ {
		for d := range bufs {
			bufs[d] = bufs[d][:0]
		}
		for i := 0; i < nv; i++ {
			for _, t := range c.all(int32(i)) {
				bufs[t.rank] = appendU32U64(bufs[t.rank], uint32(t.idx), comp[i])
			}
		}
		in := x.Round(p.Rank(), bufs)
		var changed int64
		for s := 0; s < c.nRanks; s++ {
			msg := in[s]
			for o := 0; o+12 <= len(msg); o += 12 {
				if i, v := getU32(msg, o), getU64(msg, o+4); v < comp[i] {
					comp[i] = v
					changed++
				}
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
	return out, it, nil
}

// LCC computes the average local clustering coefficient — the kernel the
// paper prices at O(n + m^{3/2}) — with exactly two exchange rounds for the
// whole rank: a request round shipping each vertex's sorted deduplicated
// neighbor set to every neighbor's owner, and a reply round carrying one
// intersection count per request, instead of per-vertex remote holder
// fetches.
func LCC(p *gdi.Process, g *Graph) (float64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	c, err := buildCSR(p, tx)
	if err != nil {
		return 0, err
	}
	nv := c.nv()
	n := c.nRanks
	selfPacked := func(i int32) uint64 { return target{rank: c.me, idx: i}.packed() }
	// mine[i]: v's distinct neighbors (self-loops excluded), sorted packed.
	mineOff := make([]int32, nv+1)
	var mineFlat []uint64
	for i := 0; i < nv; i++ {
		start := len(mineFlat)
		self := selfPacked(int32(i))
		for _, t := range c.all(int32(i)) {
			if pk := t.packed(); pk != self {
				mineFlat = append(mineFlat, pk)
			}
		}
		seg := mineFlat[start:]
		sort.Slice(seg, func(a, b int) bool { return seg[a] < seg[b] })
		w := start
		for k, pk := range seg {
			if k == 0 || pk != mineFlat[w-1] {
				mineFlat[w] = pk
				w++
			}
		}
		mineFlat = mineFlat[:w]
		mineOff[i+1] = int32(w)
	}
	// Request round: one (neighborIndex, |mine|, mine...) record per
	// (vertex, neighbor) pair, bucketed by the neighbor's owner.
	x := xchg(p)
	bufs := make([][]byte, n)
	reqFrom := make([][]int32, n) // requesting vertex per record, in send order
	for i := 0; i < nv; i++ {
		mine := mineFlat[mineOff[i]:mineOff[i+1]]
		if len(mine) < 2 {
			continue
		}
		for _, pk := range mine {
			d := int(pk >> 32)
			b := appendU32(bufs[d], uint32(pk))
			b = appendU32(b, uint32(len(mine)))
			for _, m := range mine {
				b = appendU64(b, m)
			}
			bufs[d] = b
			reqFrom[d] = append(reqFrom[d], int32(i))
		}
	}
	in := x.Round(p.Rank(), bufs)
	// Answer round: for each request, count u's distinct neighbors
	// (excluding u itself) that lie in the shipped set. u's own sorted
	// deduplicated neighbor set is already in mineFlat.
	reply := make([][]byte, n)
	for s := 0; s < n; s++ {
		msg := in[s]
		var rb []byte
		for o := 0; o < len(msg); {
			uIdx := int32(getU32(msg, o))
			m := int(getU32(msg, o+4))
			mineBase := o + 8
			o = mineBase + m*8
			links := 0
			for _, pk := range mineFlat[mineOff[uIdx]:mineOff[uIdx+1]] {
				// Binary search the shipped sorted set directly in wire form.
				lo, hi := 0, m
				for lo < hi {
					mid := (lo + hi) / 2
					if getU64(msg, mineBase+mid*8) < pk {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				if lo < m && getU64(msg, mineBase+lo*8) == pk {
					links++
				}
			}
			rb = appendU32(rb, uint32(links))
		}
		reply[s] = rb
	}
	rin := x.Round(p.Rank(), reply)
	acc := make([]int64, nv)
	for d := 0; d < n; d++ {
		if len(rin[d]) != len(reqFrom[d])*4 {
			return 0, fmt.Errorf("analytics: rank %d answered %d bytes for %d LCC requests", d, len(rin[d]), len(reqFrom[d]))
		}
		for k, vi := range reqFrom[d] {
			acc[vi] += int64(getU32(rin[d], k*4))
		}
	}
	localSum, localCnt := 0.0, int64(nv)
	for i := 0; i < nv; i++ {
		deg := int(mineOff[i+1] - mineOff[i])
		if deg < 2 {
			continue
		}
		localSum += float64(acc[i]) / float64(deg*(deg-1))
	}
	sum := p.AllreduceFloat64(localSum)
	cnt := p.AllreduceInt64(localCnt)
	if cnt == 0 {
		return 0, nil
	}
	return sum / float64(cnt), nil
}
