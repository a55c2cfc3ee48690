// Package analytics implements the OLAP and OLSP workloads of the paper's
// evaluation (§4, §6.5, Figure 6) on top of the public GDI API: BFS, k-hop,
// PageRank, Community Detection by Label Propagation (CDLP), Weakly
// Connected Components (WCC), Local Clustering Coefficient (LCC), a
// BI2-style aggregation (LDBC SNB BI), and a Graph Neural Network layer
// (graph convolution, Listing 2).
//
// Every algorithm is SPMD: it must be called from all processes (inside
// Runtime.Run) and follows the paper's recommended pattern for analytics —
// a collective transaction, per-process iteration over the local vertex
// shard, and collective communication for the cross-process phases
// (Table 2).
//
// The iterative kernels (BFS, PageRank, CDLP, WCC, LCC) run over dense CSR
// snapshots of the local shard (csr.go, dense.go): index-compacted
// adjacency, bitmap frontiers with direction-optimizing BFS, and all
// iteration traffic routed through the one-sided exchange. A Graph keeps
// each rank's snapshot and reuses it until some rank's store epoch moves.
// KHop, BI2 and the GNN layer are the paper's OLSP path instead: collective
// transactions that read vertices through the transactional API (KHop a
// ring at a time with ExpandFrontier, the others through handles) and move
// messages with the collective layer's all-to-all (exchange below).
package analytics

import (
	"math"
	"sync"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/kron"
)

// Graph bundles a loaded database with its generator schema. It also holds
// each rank's CSR snapshot for the dense kernels, which reuse it until some
// rank's store epoch moves (csr.go); dropping the Graph frees them.
type Graph struct {
	DB     *gdi.Database
	Schema kron.Schema

	mu    sync.Mutex
	built []builtCSR // by rank
}

// exchange routes messages to the rank owning each target vertex with one
// all-to-all (O(log P) + payload depth). Self-rank delivery is handed over
// directly — the local bucket never enters the mailbox (Alltoall assigns the
// self slot without a channel round-trip, and a single-rank exchange skips
// the collective entirely). The dense kernels' one-sided exchange
// (exchange.Round) short-circuits the self slot the same way, issuing zero
// PUT trains for rank-local traffic.
func exchange[T any](p *gdi.Process, buckets [][]T) []T {
	if p.Size() == 1 {
		return buckets[0]
	}
	in := collective.Alltoall(p.Comm(), p.Rank(), buckets)
	var out []T
	for _, b := range in {
		out = append(out, b...)
	}
	return out
}

func bucketize[T any](n int) [][]T { return make([][]T, n) }

// kernelErrs are the failures a collective kernel reports on every rank, in
// the order collective.AgreeOnError ranks them; the last one stands for
// anything else. A kernel agrees on its error before the next collective
// step, so a failure never strands the other ranks in a collective the
// failed rank has left.
var kernelErrs = []error{gdi.ErrNotFound, gdi.ErrNoMemory, gdi.ErrTransactionCritical}

// KHop counts the vertices within k hops of rootApp (the k-hop queries of
// Figure 6e/6f). Like BFS, a missing root reaches nothing and only its owner
// rank reports ErrNotFound; a failure while expanding a ring is reported on
// every rank. Each rank expands its share of a ring in one ExpandFrontier
// hop, so a ring vertex that no longer exists fails the run with
// ErrNotFound on every rank rather than being skipped.
func KHop(p *gdi.Process, g *Graph, rootApp uint64, k int) (int64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()

	seen := make(map[gdi.VertexID]bool)
	var frontier []gdi.VertexID
	var rootErr error
	if int(p.Rank()) == int(p.Database().Engine().OwnerOf(rootApp)) {
		root, err := tx.TranslateVertexID(rootApp)
		if err != nil {
			// Fall through: the collective loop below must still run on all
			// ranks; an empty frontier reaches nothing.
			rootErr = err
		} else {
			frontier = []gdi.VertexID{root}
		}
	}
	n := p.Size()
	var local int64
	var batch []gdi.VertexID
	for d := 0; d <= k; d++ {
		batch = batch[:0]
		for _, v := range frontier {
			if seen[v] {
				continue
			}
			seen[v] = true
			local++
			if d == k {
				continue // count the last ring, do not expand it
			}
			batch = append(batch, v)
		}
		// Expand the whole ring at once: one batched read per owner rank
		// instead of one blocking round-trip per vertex.
		buckets := bucketize[gdi.VertexID](n)
		_, next, err := tx.ExpandFrontier(batch, gdi.MaskAll, nil)
		for _, nb := range next {
			buckets[int(nb.Rank())] = append(buckets[int(nb.Rank())], nb)
		}
		if err := collective.AgreeOnError(p.Comm(), p.Rank(), err, kernelErrs...); err != nil {
			return 0, err
		}
		incoming := exchange(p, buckets)
		frontier = frontier[:0]
		for _, v := range incoming {
			if !seen[v] {
				frontier = append(frontier, v)
			}
		}
	}
	return p.AllreduceInt64(local), rootErr
}

// BI2 is the business-intelligence aggregation of Figure 6b (modeled on
// LDBC SNB BI query 2): count vertices carrying the given label whose
// filter property lies in [lo, hi), grouped by the group property's value.
// Partial aggregates are merged with a gather, Listing 3 style. The full
// grouped map is returned on every rank (via broadcast). A vertex that fails
// to associate on one rank fails the query on every rank.
func BI2(p *gdi.Process, g *Graph, label gdi.LabelID, filterProp gdi.PTypeID, lo, hi uint64, groupProp gdi.PTypeID) (map[uint64]int64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	local := make(map[uint64]int64)
	var err error
	for _, v := range p.LocalVerticesWithLabel(label) {
		var h *gdi.Vertex
		if h, err = tx.AssociateVertex(v); err != nil {
			break
		}
		fv, ok := h.Property(filterProp)
		if !ok {
			continue
		}
		x := gdi.Uint64Of(fv)
		if x < lo || x >= hi {
			continue
		}
		gv, ok := h.Property(groupProp)
		if !ok {
			continue
		}
		local[gdi.Uint64Of(gv)]++
	}
	if err := collective.AgreeOnError(p.Comm(), p.Rank(), err, kernelErrs...); err != nil {
		return nil, err
	}
	parts := collective.Gather(p.Comm(), p.Rank(), 0, local)
	var merged map[uint64]int64
	if p.Rank() == 0 {
		merged = make(map[uint64]int64)
		for _, part := range parts {
			for k, v := range part {
				merged[k] += v
			}
		}
	}
	return collective.Bcast(p.Comm(), p.Rank(), 0, merged), nil
}

// relu is the GNN non-linearity of Listing 2.
func relu(x float64) float64 { return math.Max(0, x) }
