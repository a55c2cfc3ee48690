package main

import (
	"reflect"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/workload"
)

// remoteLatencyNs is the injected one-sided latency of every simulator
// workload: the value all nine ratio gates under bench/ use.
const remoteLatencyNs = 1000

// blockSize is the BGDL block size every workload runs with.
const blockSize = 512

// kind selects the client loop a workload runs.
type kind int

const (
	kindOLTP kind = iota // Table 3 mix, one transaction per op
	kindLDBC             // interactive mix: IS / IC 2-hop / U
	kindOLAP             // dense analytics kernels in a fixed cycle
)

// spec is one workload: graph size, fabric, client loop and mix. The values
// are frozen; tests shrink copies of them, nothing else edits them.
type spec struct {
	name    string
	why     string
	kind    kind
	tcp     bool // real wire: one rank per OS process over internal/fabric/tcp
	ranks   int
	workers int // closed-loop clients; never more than nproc on the reference box (2)
	scale   int
	mix     workload.Mix
	zipfS   float64
	// uniform draws edge endpoints uniformly instead of from the Kronecker
	// initiator: every vertex has about 2 x 16 edges and there are no hubs.
	uniform bool
	// recycle makes an insert reuse an application ID the same worker deleted
	// earlier, when it has one, so that deletes do not erode the key space:
	// without it every vertex of the oltp-wi graph is gone within ten seconds
	// and the requests become no-ops. The shipped drivers always insert fresh
	// IDs; the equivalence test switches this off.
	recycle bool
	// queryRoots, when positive, makes the 2-hop queries start from a fixed
	// pool of that many vertices, each worker walking a shuffled copy of the
	// pool again and again, instead of from a vertex drawn for each query. A
	// 2-hop query costs between a tenth of a millisecond and sixty depending
	// on its root, and a run has time for some 1 500 of them: drawn
	// independently, their mean moved qps by 8 % between seeds. LDBC SNB
	// curates its query parameters for the same reason. The shipped driver
	// draws; the equivalence test switches this off.
	queryRoots int
	// warmupOps is the untimed warm-up each worker runs before the timed
	// phase.
	warmupOps int
	// insertRoom is the number of vertex inserts the index and block pool
	// are sized for on top of the loaded graph.
	insertRoom int
}

// specs lists the five workloads in report order.
var specs = []spec{
	{
		name: "oltp-rm", kind: kindOLTP, ranks: 4, workers: 2, scale: 14,
		mix: workload.ReadMostly, zipfS: 0.9, warmupOps: 12000, insertRoom: 1 << 12,
		why: "Read Mostly mix, Zipf 0.9, hot set fits the block cache: block cache, optimistic validation, dht lookup and holder decode do the work; locks and commit almost none",
	},
	{
		name: "oltp-wi", kind: kindOLTP, ranks: 4, workers: 2, scale: 15,
		mix: workload.WriteIntensive, uniform: true, recycle: true, warmupOps: 6000, insertRoom: 1 << 16,
		why: "Write Intensive mix, uniform keys, working set larger than the cache: lock trains, write-back, group commit, dht insert/delete, holder encode and DeleteVertex dominate",
	},
	{
		name: "ldbc", kind: kindLDBC, ranks: 4, workers: 2, scale: 13,
		queryRoots: 256, warmupOps: 200, insertRoom: 1 << 14,
		why: "70/20/10 short read / 2-hop friends (age>=30, LIMIT 20) / update: query layer, ExpandFrontier and bulk holder decode; CPU-bound, barely moved by point-path changes",
	},
	{
		name: "olap", kind: kindOLAP, ranks: 2, workers: 2, scale: 12,
		why: "Dense engine on the pristine graph, cycle of 40 BFS roots, 12 PageRank x20, 12 WCC, 1 LCC: analytics, exchange, collective and CSR build; locks, dht and commit do nothing",
	},
	{
		name: "tcp-lb", kind: kindOLTP, tcp: true, ranks: 2, workers: 2, scale: 10,
		mix: workload.ReadIntensive, uniform: true, warmupOps: 1000, insertRoom: 1 << 10,
		why: "Read Intensive mix over internal/fabric/tcp, 2 rank processes on loopback: every remote op is a framed round trip, so round-trip count, not CPU, sets latency",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// datasetSeed generates every workload's graph. The graph is the dataset: it
// is the same on every run, as the scale-factor datasets of LDBC SNB are, and
// the benchmark seed varies what is asked of it — keys, operation order, BFS
// roots. With one graph per seed, the hubs' sizes alone moved ldbc's qps by 8 %
// and olap's by 22 % between seeds.
const datasetSeed = 1

// graph returns the workload's generator config.
func (s spec) graph() kron.Config {
	return kron.Config{Scale: s.scale, EdgeFactor: 16, Seed: datasetSeed, NumLabels: 20, NumProps: 13, Uniform: s.uniform}.WithDefaults()
}

// params sizes a database for s. The shipped drivers leave the index at its
// default 1<<14 entries per rank, which overflows from scale 16 on 2 ranks
// and under oltp-wi's inserts; here the index holds twice the rank's share of
// the loaded vertices (entries follow their bucket's rank, so shares are
// uneven) plus every insert. The block pool has gdi-oltp's shape with smaller
// factors — two blocks per vertex and one per two edges hold either codec's
// holders several times over, where gdi-oltp's ten and two would make
// peak_rss_mb a measure of the pool — plus one block per insert on every rank.
func (s spec) params(cfg kron.Config) gdi.DatabaseParams {
	v, e, n := int(cfg.NumVertices()), int(cfg.NumEdges()), s.ranks
	entries := 2*v/n + s.insertRoom + 1024
	p := gdi.DatabaseParams{
		BlockSize:           blockSize,
		BlocksPerRank:       (v*2+e/2)/n + 1<<13 + s.insertRoom,
		IndexEntriesPerRank: entries,
		IndexBucketsPerRank: entries / 4, // the default 1:4 bucket-to-entry ratio
	}
	setProductionKnobs(&p)
	return p
}

// productionKnobs pins the production path: the winning side of each of the
// five ablations. ScalarCommit is listed with its zero value so that the set
// is complete and visible in one place.
var productionKnobs = []struct {
	field string
	value any
}{
	{"ScalarCommit", false},
	{"CacheBlocks", true},
	{"OptimisticReads", true},
	{"DenseAnalytics", true},
	{"HolderCodec", uint64(1)}, // holder.CodecV2
}

// setProductionKnobs sets the ablation knobs by field name and skips a field
// that no longer exists, so the benchmark keeps compiling and keeps measuring
// the production path after the knobs are deleted from DatabaseParams.
func setProductionKnobs(p *gdi.DatabaseParams) {
	v := reflect.ValueOf(p).Elem()
	for _, k := range productionKnobs {
		if f := v.FieldByName(k.field); f.IsValid() {
			f.Set(reflect.ValueOf(k.value).Convert(f.Type()))
		}
	}
}
