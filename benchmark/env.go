package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/kron"
)

// env is one created, loaded database on some runtime: the simulator (every
// rank in this process) or one rank process of a TCP mesh.
type env struct {
	s   spec
	cfg kron.Config
	rt  *gdi.Runtime
	db  *gdi.Database
	sch kron.Schema

	// loadVerticesS and loadEdgesS are the times inside BulkLoadVertices and
	// BulkLoadEdges (barrier to barrier, as rank 0 sees them).
	loadVerticesS, loadEdgesS float64
	// usedBlocks is the number of blocks allocated after the load, summed
	// over all ranks.
	usedBlocks int64
}

// newSimRuntime creates the simulator every sim workload runs on.
func newSimRuntime(ranks int) *gdi.Runtime {
	return gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: remoteLatencyNs})
}

// input is the generated graph of one run: the program under test receives
// only this. It is made once per run, before any timed set-up, so that
// setup_s times the system and not the generator.
type input struct {
	cfg      kron.Config
	sch      kron.Schema
	vertices [][]gdi.VertexSpec // per rank, as kron.VerticesFor deals them
	edges    [][]gdi.EdgeSpec
}

// generate makes the input for s, for the given ranks (all of them
// on the simulator, its own in a TCP rank process). The schema's IDs are
// assigned in definition order, so a scratch database yields the IDs every
// later database of the run assigns.
func generate(s spec, ranks []int) (*input, error) {
	in := &input{cfg: s.graph(), vertices: make([][]gdi.VertexSpec, s.ranks), edges: make([][]gdi.EdgeSpec, s.ranks)}
	scratch := gdi.Init(1).CreateDatabase(gdi.DatabaseParams{BlocksPerRank: 2, IndexBucketsPerRank: 1, IndexEntriesPerRank: 1})
	var err error
	if in.sch, err = kron.DefineSchema(scratch.Engine(), in.cfg); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	for _, r := range ranks {
		in.vertices[r] = kron.VerticesFor(in.cfg, in.sch, r, s.ranks)
		in.edges[r] = kron.EdgesFor(in.cfg, in.sch, r, s.ranks)
	}
	return in, nil
}

func allRanks(n int) []int {
	rs := make([]int, n)
	for i := range rs {
		rs[i] = i
	}
	return rs
}

// load creates the database and schema on rt and bulk-loads the input. It is
// collective over a wire transport: every rank process calls it.
func load(s spec, in *input, rt *gdi.Runtime) (*env, error) {
	e := &env{s: s, cfg: in.cfg, rt: rt}
	e.db = rt.CreateDatabase(s.params(e.cfg))
	var err error
	if e.sch, err = kron.DefineSchema(e.db.Engine(), e.cfg); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	if !reflect.DeepEqual(e.sch, in.sch) {
		return nil, fmt.Errorf("schema IDs differ from the generated input's")
	}
	errs := make([]error, s.ranks)
	rt.Run(e.db, func(p *gdi.Process) {
		me := int(p.Rank())
		p.Barrier()
		t0 := time.Now()
		err := p.BulkLoadVertices(in.vertices[me])
		p.Barrier()
		t1 := time.Now()
		if err == nil {
			err = p.BulkLoadEdges(in.edges[me])
		}
		p.Barrier()
		t2 := time.Now()
		errs[me] = err

		eng := e.db.Engine()
		used := int64(eng.Store().BlocksPerRank() - 1 - eng.FreeBlocks(p.Rank()))
		vertices := int64(eng.LocalVertexCount(p.Rank()))
		used, vertices = p.AllreduceInt64(used), p.AllreduceInt64(vertices)
		if me == firstLocal(rt) {
			e.loadVerticesS, e.loadEdgesS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
			e.usedBlocks = used
			if want := int64(e.cfg.NumVertices()); vertices != want && err == nil {
				errs[me] = fmt.Errorf("loaded %d vertices, want %d", vertices, want)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bulk load: %w", err)
		}
	}
	return e, nil
}

// firstLocal returns the lowest rank this process hosts.
func firstLocal(rt *gdi.Runtime) int {
	for r := 0; r < rt.Size(); r++ {
		if rt.Transport().Local(fabric.Rank(r)) {
			return r
		}
	}
	return 0
}

// bytesPerEdge is the storage the loaded graph occupies per loaded edge:
// used blocks x block size / edges. It is exact for one seed.
func (e *env) bytesPerEdge() float64 {
	return float64(e.usedBlocks) * blockSize / float64(e.cfg.NumEdges())
}

// vertexCount sums the per-rank vertex shards. Collective on a wire
// transport; on the simulator it may be called from driver context.
func (e *env) vertexCount() int64 {
	var total int64
	e.rt.Run(e.db, func(p *gdi.Process) {
		n := p.AllreduceInt64(int64(e.db.Engine().LocalVertexCount(p.Rank())))
		if int(p.Rank()) == firstLocal(e.rt) {
			total = n
		}
	})
	return total
}

// memory is what a process holds: the Go heap that is still reachable after a
// garbage collection, and the resident set's high-water mark. Over rank
// processes the launcher sums each.
//
// The heap figure counts the database's windows in full, the high-water mark
// only their touched pages, but the high-water mark also counts whatever
// garbage the collector had not yet swept, and moved by a tenth from run to
// run; the resident set after a collection was no steadier, because a window
// allocated into recycled spans is zeroed, hence resident, and one allocated
// into fresh ones is not. So the heap figure is the bounded metric.
type memory struct {
	HeapMiB, PeakMiB float64
}

func measureMemory() memory {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memory{HeapMiB: float64(ms.HeapAlloc) / (1 << 20), PeakMiB: statusMiB("VmHWM:")}
}

func statusMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// loadThreads is the number of threads that generate load in every workload:
// two clients, or two ranks' kernels.
const loadThreads = 2

// stolenSeconds reads the CPU time the hypervisor has withheld from this
// virtual machine so far (the steal column of /proc/stat), in seconds summed
// over the CPUs; 0 where there is no such figure.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}
