// Package kron is the distributed in-memory LPG graph generator of the
// paper's contribution #5 (§6.3): a Kronecker (Graph500 / R-MAT) edge
// generator extended with a user-specified selection of labels and property
// types, assigned to vertices and edges on the fly. It exists because no
// public dataset carries labels and properties at the scales evaluated, and
// because generating in memory avoids the filesystem entirely.
//
// The generator is deterministic for a given Config (including the rank
// decomposition: every rank generates its own slice of vertices and edges
// with per-element seeded RNGs), so experiments are reproducible and
// baselines can be fed the identical graph. The RNG is math/rand's, seeded
// lazily (rng.go), so reseeding it per element costs what the element
// draws.
package kron

import (
	"math/rand"

	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
)

// Config describes one synthetic LPG graph.
type Config struct {
	// Scale: the graph has 2^Scale vertices.
	Scale int
	// EdgeFactor: approximately EdgeFactor edges per vertex (default 16,
	// the value the paper uses to match real-world sparsity).
	EdgeFactor int
	// A, B, C are the R-MAT quadrant probabilities (D = 1-A-B-C). Zero
	// values select the Graph500 defaults A=0.57, B=0.19, C=0.19.
	A, B, C float64
	// Uniform switches to uniformly random endpoints (an Erdős–Rényi-style
	// degree distribution) for the §6.7 heavy-tail vs. uniform comparison.
	Uniform bool
	// Seed makes runs reproducible.
	Seed int64
	// NumLabels vertex labels are assigned cyclically (paper default 20).
	NumLabels int
	// NumProps property types are attached per vertex (paper default 13).
	NumProps int
	// PropBytes is the payload size of the string-valued properties.
	PropBytes int
	// EdgeLabel, when true, gives every edge a label drawn from the label
	// set (lightweight edges carry at most one label).
	EdgeLabel bool
}

// WithDefaults fills zero fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	if c.EdgeFactor == 0 {
		c.EdgeFactor = 16
	}
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = 0.57, 0.19, 0.19
	}
	if c.NumLabels == 0 {
		c.NumLabels = 20
	}
	if c.NumProps == 0 {
		c.NumProps = 13
	}
	if c.PropBytes == 0 {
		c.PropBytes = 8
	}
	return c
}

// NumVertices returns 2^Scale.
func (c Config) NumVertices() uint64 { return 1 << uint(c.Scale) }

// NumEdges returns EdgeFactor · 2^Scale.
func (c Config) NumEdges() uint64 { return uint64(c.EdgeFactor) << uint(c.Scale) }

// Schema is the generated metadata: label and p-type IDs registered with a
// database.
type Schema struct {
	Labels []lpg.LabelID
	Props  []lpg.PTypeID
	// AgeProp and DateProp point at two well-known uint64 properties used
	// by the BI-style queries (age in years, creation date).
	AgeProp, DateProp lpg.PTypeID
	// FeatureProp holds GNN feature vectors (registered on demand).
	FeatureProp lpg.PTypeID
}

// DefineSchema registers cfg's labels and property types on an engine
// (driver context) and returns the handle set. Property 0 is "age"
// (uint64), property 1 is "creation_date" (uint64); the rest alternate
// uint64 and fixed-size string payloads.
func DefineSchema(eng *core.Engine, cfg Config) (Schema, error) {
	cfg = cfg.WithDefaults()
	var s Schema
	for i := 0; i < cfg.NumLabels; i++ {
		id, err := eng.DefineLabel(labelName(i))
		if err != nil {
			return s, err
		}
		s.Labels = append(s.Labels, id)
	}
	for i := 0; i < cfg.NumProps; i++ {
		name, spec := propSpec(i, cfg.PropBytes)
		id, err := eng.DefinePType(name, spec)
		if err != nil {
			return s, err
		}
		s.Props = append(s.Props, id)
		switch i {
		case 0:
			s.AgeProp = id
		case 1:
			s.DateProp = id
		}
	}
	return s, nil
}

func labelName(i int) string {
	base := []string{"Person", "Car", "City", "Company", "Product", "Post", "Comment", "Forum", "Tag", "Place"}
	if i < len(base) {
		return base[i]
	}
	return base[i%len(base)] + string(rune('A'+i/len(base)))
}

func propSpec(i, propBytes int) (string, metadata.PTypeSpec) {
	names := []string{"age", "creation_date", "name", "score", "balance", "city_code",
		"active", "rating", "category", "views", "nickname", "weight", "region"}
	name := names[i%len(names)]
	if i >= len(names) {
		name += string(rune('A' + i/len(names)))
	}
	switch i % 4 {
	case 2: // string payload of a fixed budget
		return name, metadata.PTypeSpec{Datatype: lpg.TypeString, SizeType: lpg.SizeMax, Limit: propBytes}
	case 3:
		return name, metadata.PTypeSpec{Datatype: lpg.TypeFloat64, SizeType: lpg.SizeFixed, Limit: 8}
	default:
		return name, metadata.PTypeSpec{Datatype: lpg.TypeUint64, SizeType: lpg.SizeFixed, Limit: 8}
	}
}

// VerticesFor generates rank's slice of the vertex set: appIDs congruent to
// rank modulo nranks (matching GDA's round-robin placement, so bulk loading
// is communication-free). O(n/P) work, fully deterministic.
func VerticesFor(cfg Config, s Schema, rank, nranks int) []core.VertexSpec {
	cfg = cfg.WithDefaults()
	n := cfg.NumVertices()
	var specs []core.VertexSpec
	for app := uint64(rank); app < n; app += uint64(nranks) {
		specs = append(specs, VertexSpec(cfg, s, app))
	}
	return specs
}

// VertexSpec builds the deterministic vertex spec for one appID.
func VertexSpec(cfg Config, s Schema, app uint64) core.VertexSpec {
	rng := seeded(vertexSeed(cfg, app))
	defer rands.Put(rng)
	return vertexSpec(cfg, s, app, rng)
}

// vertexSeed seeds the generator VertexSpec draws appID app from.
func vertexSeed(cfg Config, app uint64) int64 { return cfg.Seed ^ int64(app*0x9e3779b9+1) }

// vertexSpec draws appID app's spec from rng, seeded with vertexSeed.
func vertexSpec(cfg Config, s Schema, app uint64, rng *rand.Rand) core.VertexSpec {
	sp := core.VertexSpec{AppID: app}
	if len(s.Labels) > 0 {
		sp.Labels = []lpg.LabelID{s.Labels[app%uint64(len(s.Labels))]}
	}
	for i, pt := range s.Props {
		var val []byte
		switch i % 4 {
		case 2:
			b := make([]byte, cfg.PropBytes)
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			val = b
		case 3:
			val = lpg.EncodeFloat64(rng.Float64() * 100)
		case 0: // age: 0..99
			val = lpg.EncodeUint64(uint64(rng.Intn(100)))
		case 1: // creation_date: days
			val = lpg.EncodeUint64(uint64(rng.Intn(20000)))
		default:
			val = lpg.EncodeUint64(rng.Uint64() % 1000)
		}
		sp.Props = append(sp.Props, lpg.Property{PType: pt, Value: val})
	}
	return sp
}

// EdgesFor generates rank's slice of the edge list: edges with index
// congruent to rank modulo nranks. Each edge is sampled independently with
// a per-edge seed, so the full edge list is identical regardless of the
// rank decomposition. O(m/P · Scale) work.
func EdgesFor(cfg Config, s Schema, rank, nranks int) []core.EdgeSpec {
	cfg = cfg.WithDefaults()
	m := cfg.NumEdges()
	var specs []core.EdgeSpec
	for k := uint64(rank); k < m; k += uint64(nranks) {
		specs = append(specs, EdgeSpec(cfg, s, k))
	}
	return specs
}

// EdgeSpec samples the k-th edge.
func EdgeSpec(cfg Config, s Schema, k uint64) core.EdgeSpec {
	rng := seeded(edgeSeed(cfg, k))
	u, v := sampleEndpoints(cfg, rng)
	rands.Put(rng)
	sp := core.EdgeSpec{OriginApp: u, TargetApp: v, Dir: holder.DirOut}
	if cfg.EdgeLabel && len(s.Labels) > 0 {
		sp.Label = s.Labels[k%uint64(len(s.Labels))]
	}
	return sp
}

// edgeSeed seeds the generator the k-th edge is sampled from.
func edgeSeed(cfg Config, k uint64) int64 { return cfg.Seed ^ int64(k*0x85ebca6b+7) }

// sampleEndpoints draws one edge: R-MAT recursive quadrant descent, or
// uniform endpoints when cfg.Uniform is set.
func sampleEndpoints(cfg Config, rng *rand.Rand) (u, v uint64) {
	n := cfg.NumVertices()
	if cfg.Uniform {
		return rng.Uint64() % n, rng.Uint64() % n
	}
	for bit := uint(0); bit < uint(cfg.Scale); bit++ {
		r := rng.Float64()
		switch {
		case r < cfg.A:
			// top-left: no bits set
		case r < cfg.A+cfg.B:
			v |= 1 << bit
		case r < cfg.A+cfg.B+cfg.C:
			u |= 1 << bit
		default:
			u |= 1 << bit
			v |= 1 << bit
		}
	}
	return u, v
}

// CSR is a plain compressed-sparse-row view of the generated graph, used by
// the Graph500 baseline and as the reference oracle for analytics tests.
// The graph is symmetrized (each directed edge contributes both
// directions), matching how BFS treats GDA's double-sided edge records.
type CSR struct {
	N      uint64
	Offs   []uint64
	Adj    []uint64
	Degree []uint32
}

// BuildCSR materializes the full edge list into CSR form (driver context;
// O(m) memory — intended for laptop-scale verification and baselines).
func BuildCSR(cfg Config) *CSR {
	cfg = cfg.WithDefaults()
	n := cfg.NumVertices()
	m := cfg.NumEdges()
	deg := make([]uint32, n)
	type pair struct{ u, v uint64 }
	edges := make([]pair, 0, m)
	rng := rands.Get().(*rand.Rand)
	defer rands.Put(rng)
	for k := uint64(0); k < m; k++ {
		rng.Seed(edgeSeed(cfg, k))
		u, v := sampleEndpoints(cfg, rng)
		edges = append(edges, pair{u, v})
		deg[u]++
		if u != v {
			deg[v]++
		}
	}
	c := &CSR{N: n, Degree: deg, Offs: make([]uint64, n+1)}
	for i := uint64(0); i < n; i++ {
		c.Offs[i+1] = c.Offs[i] + uint64(deg[i])
	}
	c.Adj = make([]uint64, c.Offs[n])
	fill := make([]uint64, n)
	for _, e := range edges {
		c.Adj[c.Offs[e.u]+fill[e.u]] = e.v
		fill[e.u]++
		if e.u != e.v {
			c.Adj[c.Offs[e.v]+fill[e.v]] = e.u
			fill[e.v]++
		}
	}
	return c
}

// Neighbors returns vertex u's adjacency slice.
func (c *CSR) Neighbors(u uint64) []uint64 { return c.Adj[c.Offs[u]:c.Offs[u+1]] }
