package analytics

import (
	"math"
	"math/rand"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/collective"
)

// GNNConfig parameterizes the graph-convolution workload of Listing 2 /
// Figure 6c-d: k is the feature dimension, Layers the number of
// convolutions.
type GNNConfig struct {
	K      int
	Layers int
	Seed   int64
}

// GNNSetup registers the feature property types and initializes every local
// vertex's feature vector deterministically. It must run collectively after
// the graph is loaded. The two p-types implement the double buffering the
// layer update needs (all vertices read old features, write new ones). A
// write that fails on one rank fails the setup on every rank.
func GNNSetup(p *gdi.Process, g *Graph, cfg GNNConfig) (feat, featNext gdi.PTypeID, err error) {
	spec := gdi.PTypeSpec{Datatype: gdi.TypeFloat64Vector, Entity: gdi.EntityVertex}
	if feat, err = p.CreatePType("__gnn_feat", spec); err != nil {
		return
	}
	if featNext, err = p.CreatePType("__gnn_feat_next", spec); err != nil {
		return
	}
	tx := p.StartCollectiveTransaction(gdi.ReadWrite)
	for _, v := range p.LocalVertices() {
		h, aerr := tx.AssociateVertex(v)
		if aerr != nil {
			err = aerr
			break
		}
		vec := make([]float64, cfg.K)
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(h.AppID()*31+1)))
		for i := range vec {
			vec[i] = rng.Float64()
		}
		if serr := h.SetProperty(feat, gdi.Float64VectorValue(vec)); serr != nil {
			err = serr
			break
		}
	}
	err = closeCollective(p, tx, err)
	return
}

// gnnWeights builds the replicated k×k MLP weight matrix (deterministic).
func gnnWeights(cfg GNNConfig) [][]float64 {
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	w := make([][]float64, cfg.K)
	for i := range w {
		w[i] = make([]float64, cfg.K)
		for j := range w[i] {
			w[i][j] = (rng.Float64() - 0.5) / float64(cfg.K)
		}
	}
	return w
}

// GNNForward runs cfg.Layers graph convolutions (Listing 2): per layer,
// every vertex sums its out-neighbors' feature vectors into its own
// (aggregation), applies the replicated MLP (update), then a ReLU. Each
// layer is two collective transactions: a read phase that computes into
// memory and a write phase in which every rank writes only its own shard
// (so per-vertex write locks never contend). Returns the global L1 norm of
// the final features as a checksum. A phase that fails on one rank fails
// the forward pass on every rank.
func GNNForward(p *gdi.Process, g *Graph, cfg GNNConfig, feat, featNext gdi.PTypeID) (float64, error) {
	w := gnnWeights(cfg)
	cur, nxt := feat, featNext
	for layer := 0; layer < cfg.Layers; layer++ {
		// Read phase: aggregate neighbor features (remote reads through GDI).
		tx := p.StartCollectiveTransaction(gdi.ReadOnly)
		computed, err := gnnAggregate(p, tx, w, cur)
		if err := closeCollective(p, tx, err); err != nil {
			return 0, err
		}
		// Write phase: each rank updates only its own vertices.
		wtx := p.StartCollectiveTransaction(gdi.ReadWrite)
		if err := closeCollective(p, wtx, gnnWrite(wtx, computed, nxt)); err != nil {
			return 0, err
		}
		cur, nxt = nxt, cur
	}
	// Checksum: global L1 norm of the final layer.
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	local, err := gnnNorm(p, tx, cur)
	if err := closeCollective(p, tx, err); err != nil {
		return 0, err
	}
	return p.AllreduceFloat64(local), nil
}

// closeCollective ends a kernel's collective transaction, whose work failed
// on this rank with err or not: it aborts the transaction on failure and
// commits it otherwise, and the ranks then agree on the outcome, so no rank
// enters the kernel's next collective step while another has left.
func closeCollective(p *gdi.Process, tx *gdi.Transaction, err error) error {
	if err != nil {
		tx.Abort()
	} else {
		err = tx.Commit()
	}
	return collective.AgreeOnError(p.Comm(), p.Rank(), err, kernelErrs...)
}

// gnnAggregate is a layer's read phase on this rank: each local vertex's
// feature vector under cur plus its out-neighbors', through the MLP and the
// ReLU.
func gnnAggregate(p *gdi.Process, tx *gdi.Transaction, w [][]float64, cur gdi.PTypeID) (map[gdi.VertexID][]float64, error) {
	computed := make(map[gdi.VertexID][]float64)
	for _, v := range p.LocalVertices() {
		h, err := tx.AssociateVertex(v)
		if err != nil {
			return nil, err
		}
		raw, ok := h.Property(cur)
		if !ok {
			continue
		}
		agg := gdi.Float64VectorOf(raw)
		edges, err := h.Edges(gdi.MaskOut, nil)
		if err != nil {
			return nil, err
		}
		for _, nb := range edges.Neighbors() {
			nh, err := tx.AssociateVertex(nb)
			if err != nil {
				return nil, err
			}
			nraw, ok := nh.Property(cur)
			if !ok {
				continue
			}
			nvec := gdi.Float64VectorOf(nraw)
			for i := range agg {
				agg[i] += nvec[i]
			}
		}
		// Update phase: MLP + ReLU.
		out := make([]float64, len(w))
		for i := range w {
			s := 0.0
			for j := range w[i] {
				s += w[i][j] * agg[j]
			}
			out[i] = relu(s)
		}
		computed[v] = out
	}
	return computed, nil
}

// gnnWrite is a layer's write phase on this rank: each computed vector
// becomes its vertex's property nxt.
func gnnWrite(tx *gdi.Transaction, computed map[gdi.VertexID][]float64, nxt gdi.PTypeID) error {
	for v, vec := range computed {
		h, err := tx.AssociateVertex(v)
		if err != nil {
			return err
		}
		if err := h.SetProperty(nxt, gdi.Float64VectorValue(vec)); err != nil {
			return err
		}
	}
	return nil
}

// gnnNorm is this rank's part of the checksum: the L1 norm of its vertices'
// feature vectors under cur.
func gnnNorm(p *gdi.Process, tx *gdi.Transaction, cur gdi.PTypeID) (float64, error) {
	local := 0.0
	for _, v := range p.LocalVertices() {
		h, err := tx.AssociateVertex(v)
		if err != nil {
			return 0, err
		}
		if raw, ok := h.Property(cur); ok {
			for _, x := range gdi.Float64VectorOf(raw) {
				local += math.Abs(x)
			}
		}
	}
	return local, nil
}
