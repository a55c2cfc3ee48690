package kron

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/lpg"
)

// The generator must produce the graph math/rand's own source produces:
// these tests hold the lazily seeded source, and every generator that draws
// from it, to rand.NewSource over the same seeds.

// oracleRand is the generator the kron functions drew from before source.
func oracleRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

var oracleSeeds = []int64{0, 1, -7, 1<<31 - 1, 89482311, 1<<40 + 3, -1 << 62}

// TestSourceMatchesMathRand compares the raw streams: more draws than the
// state has slots, so tap and feed wrap, and a reseed of a used source.
func TestSourceMatchesMathRand(t *testing.T) {
	var s source
	for _, seed := range oracleSeeds {
		for pass := range 2 {
			s.Seed(seed)
			want := rand.NewSource(seed).(rand.Source64)
			for i := range 2000 {
				if i%2 == pass {
					if got, w := s.Int63(), want.Int63(); got != w {
						t.Fatalf("seed %d, draw %d: Int63 = %d, math/rand %d", seed, i, got, w)
					}
				} else if got, w := s.Uint64(), want.Uint64(); got != w {
					t.Fatalf("seed %d, draw %d: Uint64 = %d, math/rand %d", seed, i, got, w)
				}
			}
		}
	}
}

// graphConfigs are an R-MAT and a uniform configuration per seed.
func graphConfigs() []Config {
	var cfgs []Config
	for _, seed := range []int64{1, -7, 1<<40 + 3} {
		for _, uniform := range []bool{false, true} {
			cfgs = append(cfgs, Config{Scale: 11, Seed: seed, Uniform: uniform, EdgeLabel: true}.WithDefaults())
		}
	}
	return cfgs
}

// TestEdgeSpecMatchesMathRand: 17 000 edge indices per configuration, 10^5
// in all, spread over the index space, sample the endpoints math/rand
// samples.
func TestEdgeSpecMatchesMathRand(t *testing.T) {
	s := Schema{Labels: []lpg.LabelID{3, 4, 5}}
	for _, cfg := range graphConfigs() {
		t.Run(fmt.Sprintf("seed=%d/uniform=%v", cfg.Seed, cfg.Uniform), func(t *testing.T) {
			t.Parallel()
			for i := range uint64(17_000) {
				k := i * 0x9e3779b97f4a7c15 >> 20 // 44-bit indices, not only the first ones
				got := EdgeSpec(cfg, s, k)
				u, v := sampleEndpoints(cfg, oracleRand(edgeSeed(cfg, k)))
				if got.OriginApp != u || got.TargetApp != v || got.Label != s.Labels[k%3] {
					t.Fatalf("edge %d = %+v, math/rand (%d, %d)", k, got, u, v)
				}
			}
		})
	}
}

// TestVertexSpecMatchesMathRand: 10^5 appIDs over three seeds draw the
// properties math/rand draws.
func TestVertexSpecMatchesMathRand(t *testing.T) {
	s := Schema{Labels: []lpg.LabelID{1, 2}}
	for i := range 13 {
		s.Props = append(s.Props, lpg.PTypeID(100+i))
	}
	for _, cfg := range graphConfigs() {
		if cfg.Uniform {
			continue // vertices do not depend on it
		}
		t.Run(fmt.Sprintf("seed=%d", cfg.Seed), func(t *testing.T) {
			t.Parallel()
			for app := range uint64(34_000) {
				got := VertexSpec(cfg, s, app)
				want := vertexSpec(cfg, s, app, oracleRand(vertexSeed(cfg, app)))
				if !slices.Equal(got.Labels, want.Labels) || !slices.EqualFunc(got.Props, want.Props, func(a, b lpg.Property) bool {
					return a.PType == b.PType && string(a.Value) == string(b.Value)
				}) {
					t.Fatalf("vertex %d = %+v, math/rand %+v", app, got, want)
				}
			}
		})
	}
}

// TestBuildCSRMatchesMathRand: the scale-11 CSR of every configuration
// (32 768 edges each) equals the one built from math/rand's samples.
func TestBuildCSRMatchesMathRand(t *testing.T) {
	for _, cfg := range graphConfigs() {
		t.Run(fmt.Sprintf("seed=%d/uniform=%v", cfg.Seed, cfg.Uniform), func(t *testing.T) {
			t.Parallel()
			got := BuildCSR(cfg)
			n := cfg.NumVertices()
			adj := make([][]uint64, n)
			for k := range cfg.NumEdges() {
				u, v := sampleEndpoints(cfg, oracleRand(edgeSeed(cfg, k)))
				adj[u] = append(adj[u], v)
				if u != v {
					adj[v] = append(adj[v], u)
				}
			}
			for u := range n {
				if !slices.Equal(got.Neighbors(u), adj[u]) || got.Degree[u] != uint32(len(adj[u])) {
					t.Fatalf("vertex %d has neighbors %v, math/rand %v", u, got.Neighbors(u), adj[u])
				}
			}
		})
	}
}
