package workload

import (
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/kron"
)

func newLDBCDatabase(t *testing.T) (*gdi.Runtime, *gdi.Database, kron.Config, kron.Schema) {
	t.Helper()
	cfg := kron.Config{Scale: 8, EdgeFactor: 8, Seed: 3, NumLabels: 20, NumProps: 13}.WithDefaults()
	rt := gdi.Init(4)
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:     512,
		BlocksPerRank: int((cfg.NumVertices()*10+cfg.NumEdges()*2)/4) + (1 << 13),
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadGDA(rt, db, cfg, sch); err != nil {
		t.Fatal(err)
	}
	return rt, db, cfg, sch
}

// TestRunLDBCMix smoke-runs the interactive mix and checks the per-class
// accounting adds up: every class ran and 2-hop queries returned rows.
func TestRunLDBCMix(t *testing.T) {
	_, db, cfg, sch := newLDBCDatabase(t)
	base := LDBCConfig{
		Workers:      4,
		OpsPerWorker: 100,
		KeySpace:     cfg.NumVertices(),
		Seed:         11,
		ZipfS:        0.6,
		AgeOver:      30,
	}
	res, err := RunLDBC(db, sch, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 400 {
		t.Fatalf("Ops = %d, want 400", res.Ops)
	}
	var perClass int64
	for c := QueryClass(0); c < NumQueryClasses; c++ {
		n := res.PerClass[c].Count()
		if n == 0 {
			t.Errorf("class %s never ran", c)
		}
		perClass += n
	}
	if perClass != res.Ops {
		t.Fatalf("per-class counts sum to %d, want %d", perClass, res.Ops)
	}
	if res.Rows == 0 {
		t.Fatal("2-hop queries returned no rows")
	}
}

// TestPickClassWeights pins the weight semantics: a zeroed class never runs.
func TestPickClassWeights(t *testing.T) {
	_, db, cfg, sch := newLDBCDatabase(t)
	res, err := RunLDBC(db, sch, LDBCConfig{
		Workers:      2,
		OpsPerWorker: 50,
		KeySpace:     cfg.NumVertices(),
		Seed:         5,
		Weights:      [NumQueryClasses]int{ClassShort: 1, ClassFriends: 0, ClassUpdate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.PerClass[ClassFriends].Count(); n != 0 {
		t.Fatalf("zero-weight class ran %d times", n)
	}
	if res.Rows != 0 {
		t.Fatalf("rows = %d without any 2-hop queries", res.Rows)
	}
}
