package analytics

import (
	"math"
	"math/rand"

	gdi "github.com/gdi-go/gdi"
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
// layer update needs (all vertices read old features, write new ones).
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
	if cerr := tx.Commit(); cerr != nil && err == nil {
		err = cerr
	}
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
// the final features as a checksum.
func GNNForward(p *gdi.Process, g *Graph, cfg GNNConfig, feat, featNext gdi.PTypeID) (float64, error) {
	w := gnnWeights(cfg)
	cur, nxt := feat, featNext
	for layer := 0; layer < cfg.Layers; layer++ {
		// Read phase: aggregate neighbor features (remote reads through GDI).
		tx := p.StartCollectiveTransaction(gdi.ReadOnly)
		computed := make(map[gdi.VertexID][]float64)
		for _, v := range p.LocalVertices() {
			h, err := tx.AssociateVertex(v)
			if err != nil {
				tx.Abort()
				return 0, err
			}
			raw, ok := h.Property(cur)
			if !ok {
				continue
			}
			agg := gdi.Float64VectorOf(raw)
			edges, err := h.Edges(gdi.MaskOut, nil)
			if err != nil {
				tx.Abort()
				return 0, err
			}
			for _, nb := range edges.Neighbors() {
				nh, err := tx.AssociateVertex(nb)
				if err != nil {
					tx.Abort()
					return 0, err
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
			out := make([]float64, cfg.K)
			for i := 0; i < cfg.K; i++ {
				s := 0.0
				for j := 0; j < cfg.K; j++ {
					s += w[i][j] * agg[j]
				}
				out[i] = relu(s)
			}
			computed[v] = out
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
		// Write phase: each rank updates only its own vertices.
		wtx := p.StartCollectiveTransaction(gdi.ReadWrite)
		for v, vec := range computed {
			h, err := wtx.AssociateVertex(v)
			if err != nil {
				wtx.Abort()
				return 0, err
			}
			if err := h.SetProperty(nxt, gdi.Float64VectorValue(vec)); err != nil {
				wtx.Abort()
				return 0, err
			}
		}
		if err := wtx.Commit(); err != nil {
			return 0, err
		}
		cur, nxt = nxt, cur
	}
	// Checksum: global L1 norm of the final layer.
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	local := 0.0
	for _, v := range p.LocalVertices() {
		h, err := tx.AssociateVertex(v)
		if err != nil {
			tx.Abort()
			return 0, err
		}
		if raw, ok := h.Property(cur); ok {
			for _, x := range gdi.Float64VectorOf(raw) {
				local += math.Abs(x)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return p.AllreduceFloat64(local), nil
}
