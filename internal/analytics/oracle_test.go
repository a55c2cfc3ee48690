package analytics

import (
	"fmt"
	"sort"

	gdi "github.com/gdi-go/gdi"
)

// The map-based formulation of the iterative kernels: maps keyed by vertex
// ID, messages as structs through the collective layer's all-to-all, one
// message per edge record. They were the first implementation and stay here
// as the oracles the dense kernels are held to bit for bit
// (TestDenseGoldenEquivalence). The dense PageRank pulls one share per
// mirror through the csr's mirror plan instead, but sums each vertex's
// shares in the order the oracle's messages arrive here (source rank, then
// the source's vertices in ascending ID order, then record order), so even
// the floating-point sums agree.
//
// Edge records of a migrated vertex's neighbors may still name one of its
// former homes. The oracles map every neighbor to the vertex's current ID
// (canonical) before using it as a key.

// vmsg is a vertex-addressed message: the exchange unit of the frontier/
// value-propagation phases.
type vmsg struct {
	V   gdi.VertexID
	Val uint64
}

type fmsg struct {
	V   gdi.VertexID
	Val float64
}

// canonical maps vertex IDs as edge records hold them to the vertices'
// current IDs: associating a former home follows its forwarding stub.
func canonical(tx *gdi.Transaction, ids []gdi.VertexID) ([]gdi.VertexID, error) {
	hs, err := tx.AssociateVertices(ids)
	if err != nil {
		return nil, err
	}
	out := make([]gdi.VertexID, len(ids))
	for i, h := range hs {
		if h == nil {
			return nil, fmt.Errorf("analytics: neighbor %v disappeared", ids[i])
		}
		out[i] = h.ID()
	}
	return out, nil
}

// bfsMap is the map-based BFS: a level-synchronous search whose frontier
// is expanded through AssociateVertices and exchanged with the collective
// layer's all-to-all.
func bfsMap(p *gdi.Process, g *Graph, rootApp uint64) (visited int64, depth int, err error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()

	level := make(map[gdi.VertexID]int)
	var frontier []gdi.VertexID
	// Every rank translates the root; the rank it lives on starts from it,
	// and only the root's DHT owner reports a missing one.
	root, terr := tx.TranslateVertexID(rootApp)
	switch {
	case terr != nil:
		if int(p.Rank()) == int(p.Database().Engine().OwnerOf(rootApp)) {
			err = terr
		}
		// Fall through: the collective loop below must still run on all
		// ranks; an empty frontier terminates it immediately.
	case root.Rank() == p.Rank():
		frontier = []gdi.VertexID{root}
	}
	n := p.Size()
	batch := make([]gdi.VertexID, 0, len(frontier))
	for d := 0; ; d++ {
		batch = batch[:0]
		for _, v := range frontier {
			if _, seen := level[v]; seen {
				continue
			}
			level[v] = d
			batch = append(batch, v)
		}
		local := int64(len(batch))
		handles, aerr := tx.AssociateVertices(batch)
		if aerr != nil {
			err = aerr
		}
		var nbrs []gdi.VertexID
		for _, h := range handles {
			if h == nil {
				continue
			}
			if eerr := h.ForEachNeighbor(gdi.MaskAll, func(nb gdi.VertexID) {
				nbrs = append(nbrs, nb)
			}); eerr != nil {
				err = eerr
			}
		}
		nbrs, cerr := canonical(tx, nbrs)
		if cerr != nil {
			err = cerr
		}
		buckets := bucketize[gdi.VertexID](n)
		for _, nb := range nbrs {
			buckets[int(nb.Rank())] = append(buckets[int(nb.Rank())], nb)
		}
		incoming := exchange(p, buckets)
		frontier = frontier[:0]
		for _, v := range incoming {
			if _, seen := level[v]; !seen {
				frontier = append(frontier, v)
			}
		}
		visited += local
		total := p.AllreduceInt64(local)
		if total == 0 {
			visited = p.AllreduceInt64(visited)
			return visited, d, err
		}
		depth = d
	}
}

// adjacency is one rank's shard as maps: per-vertex out-neighbors and
// all-neighbors (the one-time edge fetch every map-based kernel shares).
type adjacency struct {
	ids []gdi.VertexID
	app map[gdi.VertexID]uint64
	out map[gdi.VertexID][]gdi.VertexID
	all map[gdi.VertexID][]gdi.VertexID
}

func loadAdjacency(p *gdi.Process, tx *gdi.Transaction) (*adjacency, error) {
	a := &adjacency{
		app: make(map[gdi.VertexID]uint64),
		out: make(map[gdi.VertexID][]gdi.VertexID),
		all: make(map[gdi.VertexID][]gdi.VertexID),
	}
	a.ids = p.LocalVertices()
	sort.Slice(a.ids, func(i, j int) bool { return a.ids[i] < a.ids[j] })
	// One batched association for the whole shard (every holder is local
	// here, but the batch path also skips per-call flush overhead).
	handles, err := tx.AssociateVertices(a.ids)
	if err != nil {
		return nil, err
	}
	for i, v := range a.ids {
		h := handles[i]
		if h == nil {
			return nil, fmt.Errorf("analytics: local vertex %v disappeared", v)
		}
		a.app[v] = h.AppID()
		edges, err := h.Edges(gdi.MaskAll, nil)
		if err != nil {
			return nil, err
		}
		nbrs, err := canonical(tx, edges.Neighbors())
		if err != nil {
			return nil, err
		}
		for k := range edges.Len() {
			a.all[v] = append(a.all[v], nbrs[k])
			if dir := edges.At(k).Dir; dir == gdi.DirOut || dir == gdi.DirUndirected {
				a.out[v] = append(a.out[v], nbrs[k])
			}
		}
	}
	return a, nil
}

// pageRankMap is the map-based PageRank over loadAdjacency.
func pageRankMap(p *gdi.Process, g *Graph, iters int, df float64) (map[uint64]float64, float64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	adj, err := loadAdjacency(p, tx)
	if err != nil {
		return nil, 0, err
	}
	nGlobal := float64(p.AllreduceInt64(int64(len(adj.ids))))
	if nGlobal == 0 {
		return nil, 0, fmt.Errorf("analytics: empty graph")
	}
	rank := make(map[gdi.VertexID]float64, len(adj.ids))
	for _, v := range adj.ids {
		rank[v] = 1 / nGlobal
	}
	n := p.Size()
	for it := 0; it < iters; it++ {
		buckets := bucketize[fmsg](n)
		dangling := 0.0
		for _, v := range adj.ids {
			outs := adj.out[v]
			if len(outs) == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(len(outs))
			for _, nb := range outs {
				buckets[int(nb.Rank())] = append(buckets[int(nb.Rank())], fmsg{V: nb, Val: share})
			}
		}
		incoming := exchange(p, buckets)
		danglingAll := p.AllreduceFloat64(dangling)
		base := (1-df)/nGlobal + df*danglingAll/nGlobal
		next := make(map[gdi.VertexID]float64, len(adj.ids))
		for _, v := range adj.ids {
			next[v] = base
		}
		for _, m := range incoming {
			next[m.V] += df * m.Val
		}
		rank = next
	}
	out := make(map[uint64]float64, len(adj.ids))
	local := 0.0
	for v, r := range rank {
		out[adj.app[v]] = r
		local += r
	}
	return out, p.AllreduceFloat64(local), nil
}

// cdlpMap is the map-based CDLP over loadAdjacency.
func cdlpMap(p *gdi.Process, g *Graph, iters int) (map[uint64]uint64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	adj, err := loadAdjacency(p, tx)
	if err != nil {
		return nil, err
	}
	label := make(map[gdi.VertexID]uint64, len(adj.ids))
	for _, v := range adj.ids {
		label[v] = adj.app[v]
	}
	n := p.Size()
	for it := 0; it < iters; it++ {
		buckets := bucketize[vmsg](n)
		for _, v := range adj.ids {
			for _, nb := range adj.all[v] {
				buckets[int(nb.Rank())] = append(buckets[int(nb.Rank())], vmsg{V: nb, Val: label[v]})
			}
		}
		incoming := exchange(p, buckets)
		counts := make(map[gdi.VertexID]map[uint64]int)
		for _, m := range incoming {
			c, ok := counts[m.V]
			if !ok {
				c = make(map[uint64]int)
				counts[m.V] = c
			}
			c[m.Val]++
		}
		for _, v := range adj.ids {
			c := counts[v]
			if len(c) == 0 {
				continue
			}
			best, bestCount := label[v], 0
			first := true
			for l, cnt := range c {
				if cnt > bestCount || (cnt == bestCount && (first || l < best)) {
					best, bestCount = l, cnt
					first = false
				}
			}
			label[v] = best
		}
	}
	out := make(map[uint64]uint64, len(adj.ids))
	for v, l := range label {
		out[adj.app[v]] = l
	}
	return out, nil
}

// wccMap is the map-based WCC over loadAdjacency.
func wccMap(p *gdi.Process, g *Graph, maxIters int) (map[uint64]uint64, int, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	adj, err := loadAdjacency(p, tx)
	if err != nil {
		return nil, 0, err
	}
	comp := make(map[gdi.VertexID]uint64, len(adj.ids))
	for _, v := range adj.ids {
		comp[v] = adj.app[v]
	}
	n := p.Size()
	it := 0
	for ; it < maxIters; it++ {
		buckets := bucketize[vmsg](n)
		for _, v := range adj.ids {
			for _, nb := range adj.all[v] {
				buckets[int(nb.Rank())] = append(buckets[int(nb.Rank())], vmsg{V: nb, Val: comp[v]})
			}
		}
		incoming := exchange(p, buckets)
		var changed int64
		for _, m := range incoming {
			if m.Val < comp[m.V] {
				comp[m.V] = m.Val
				changed++
			}
		}
		if p.AllreduceInt64(changed) == 0 {
			it++
			break
		}
	}
	out := make(map[uint64]uint64, len(adj.ids))
	for v, c := range comp {
		out[adj.app[v]] = c
	}
	return out, it, nil
}

// lccMap is the map-based LCC: neighbor adjacency is read through GDI
// directly (remote holder fetches, one batch per vertex).
func lccMap(p *gdi.Process, g *Graph) (float64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	adj, err := loadAdjacency(p, tx)
	if err != nil {
		return 0, err
	}
	localSum, localCnt := 0.0, int64(0)
	for _, v := range adj.ids {
		mine := make(map[gdi.VertexID]bool)
		nbrs := make([]gdi.VertexID, 0, len(adj.all[v]))
		for _, nb := range adj.all[v] {
			if nb != v && !mine[nb] {
				mine[nb] = true
				nbrs = append(nbrs, nb)
			}
		}
		deg := len(mine)
		localCnt++
		if deg < 2 {
			continue
		}
		// Fetch the whole neighborhood in one batch: LCC is the paper's
		// communication-heaviest kernel, and batching turns its per-neighbor
		// remote fetches into one vectored train per owner rank.
		handles, err := tx.AssociateVertices(nbrs)
		if err != nil {
			return 0, err
		}
		links := 0
		for i, nb := range nbrs {
			h := handles[i]
			if h == nil {
				return 0, fmt.Errorf("analytics: neighbor %v disappeared", nb)
			}
			xs, err := h.Neighbors(gdi.MaskAll, nil)
			if err != nil {
				return 0, err
			}
			if xs, err = canonical(tx, xs); err != nil {
				return 0, err
			}
			seen := make(map[gdi.VertexID]bool, len(xs))
			for _, x := range xs {
				if x == nb || seen[x] {
					continue
				}
				seen[x] = true
				if mine[x] {
					links++
				}
			}
		}
		localSum += float64(links) / float64(deg*(deg-1))
	}
	sum := p.AllreduceFloat64(localSum)
	cnt := p.AllreduceInt64(localCnt)
	if cnt == 0 {
		return 0, nil
	}
	return sum / float64(cnt), nil
}
