package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/dht"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/fabric/tcp"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/query"
)

// The layer probes measure each layer from outside: they time calls of its
// exported functions directly, origin rank 0 towards a remote rank, on the
// oltp-rm graph, and report the mean of the middle half of the samples. They are the same calls whatever
// workload the traced run belongs to.

// probeSpec is the database the probes run on.
func probeSpec() spec {
	s, _ := specByName("oltp-rm")
	return s
}

// prober collects probe medians into a metric map.
type prober struct {
	out map[string]metric
	// perProbe caps the time one probe may take; samples caps its calls.
	perProbe time.Duration
	samples  int
}

// time calls fn up to pr.samples times, or until pr.perProbe has passed, and
// reports the typical duration of one of the inner operations fn performs, in
// unit (ns, us, ms): the mean of the middle half of the samples, which is as
// deaf to outliers as the median but does not land on a whole nanosecond.
// Cheap calls pass inner > 1 so that reading the clock does not weigh on the
// figure.
func (pr *prober) time(name, unit string, inner int, fn func()) {
	fn() // warm caches, grow buffers
	xs := make([]float64, 0, pr.samples)
	for start := time.Now(); len(xs) < pr.samples && (len(xs) < 16 || time.Since(start) < pr.perProbe); {
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0))/float64(inner))
	}
	div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	pr.out[name] = metric{Value: midMean(xs) / div, Unit: unit, N: len(xs) * inner}
}

// fabricProbes times the six one-sided operations the engine is built from,
// origin rank 0 towards rank 1. Window allocation is collective: every rank
// of a wire transport calls this, and only rank 0 (hosted is true) issues the
// operations.
func (pr *prober) fabricProbes(fab fabric.Transport, prefix, unit string, hosted bool) {
	const n = 16
	bw := fab.NewByteWin(n * blockSize * 2)
	ww := fab.NewWordWin(2 * n)
	if !hosted {
		return
	}
	buf := make([]byte, blockSize)
	gets, puts := make([]fabric.GetOp, n), make([]fabric.PutOp, n)
	cas, idxs := make([]fabric.CASOp, n), make([]int, n)
	for i := 0; i < n; i++ {
		gets[i] = fabric.GetOp{Off: i * blockSize, Buf: make([]byte, blockSize)}
		puts[i] = fabric.PutOp{Off: (n + i) * blockSize, Data: make([]byte, blockSize)}
		idxs[i] = i
	}
	pr.time(prefix+"get512_"+unit, unit, 1, func() { bw.Get(0, 1, 0, buf) })
	pr.time(prefix+"getbatch16_"+unit, unit, 1, func() { bw.GetBatch(0, 1, gets) })
	pr.time(prefix+"putbatch16_"+unit, unit, 1, func() { bw.PutBatch(0, 1, puts) })
	var word uint64
	pr.time(prefix+"cas_"+unit, unit, 1, func() {
		ww.CAS(0, 1, n, word, word+1)
		word++
	})
	var round uint64
	pr.time(prefix+"casbatch16_"+unit, unit, 1, func() {
		for i := range cas {
			cas[i] = fabric.CASOp{Idx: i, Old: round, New: round + 1}
		}
		ww.CASBatch(0, 1, cas)
		round++
	})
	pr.time(prefix+"loadbatch16_"+unit, unit, 1, func() { ww.LoadBatch(0, 1, idxs) })
}

// tcpProbeChild is one rank process of the fabric probes' loopback mesh.
func tcpProbeChild(o options, rank int, peers []string, rep *childReport) error {
	t, err := tcp.New(tcp.Config{Rank: rank, Peers: peers})
	if err != nil {
		return err
	}
	defer t.Close()
	comm := collective.New(t)
	pr := &prober{out: map[string]metric{}, perProbe: 400 * time.Millisecond, samples: 10000}
	if o.probeBudget > 0 {
		pr.perProbe = o.probeBudget
	}
	t.Run(func(r fabric.Rank) {
		pr.fabricProbes(t, "fabric.tcp.", "us", r == 0)
		comm.Barrier(r) // rank 1 serves until rank 0 is done
	})
	rep.Probes = pr.out
	return nil
}

// runProbes loads the probe database and times every layer.
func runProbes(o options, res *result) error {
	s := o.shrink(probeSpec())
	in, err := generate(s, allRanks(s.ranks))
	if err != nil {
		return err
	}
	e, err := load(s, in, newSimRuntime(s.ranks))
	if err != nil {
		return err
	}
	pr := &prober{out: res.Metrics, perProbe: 250 * time.Millisecond, samples: 10000}
	if o.probeBudget > 0 {
		pr.perProbe = o.probeBudget
	}
	pr.out["core.bulkload_vertices_s"] = metric{Value: e.loadVerticesS, Unit: "s", N: 1}
	pr.out["core.bulkload_edges_s"] = metric{Value: e.loadEdgesS, Unit: "s", N: 1}
	pr.out["holder.blocks_per_vertex"] = metric{Value: float64(e.usedBlocks) / float64(e.cfg.NumVertices()), Unit: "count"}

	fab := e.rt.Transport()
	pr.fabricProbes(fab, "fabric.sim.", "ns", true)
	pr.lockProbes(fab)
	pr.blockProbes(fab)
	pr.dhtProbes(fab)
	if err := pr.engineProbes(e, in, o.seed); err != nil {
		return err
	}
	if err := pr.analyticsProbes(e, o.seed); err != nil {
		return err
	}

	reports, err := launchMesh(spec{name: s.name, ranks: 2}, o, modeProbe)
	if err != nil {
		return fmt.Errorf("tcp fabric probes: %w", err)
	}
	for name, m := range reports[0].Probes {
		pr.out[name] = m
	}
	return nil
}

// lockProbes times the lock words: a scalar acquire/release pair on a remote
// word, and 16-word trains spread over the three remote ranks.
func (pr *prober) lockProbes(fab fabric.Transport) {
	const n = 16
	ww := fab.NewWordWin(n)
	remote := locks.Word{Win: ww, Target: 1, Idx: 0}
	pr.time("locks.read_acq_rel_ns", "ns", 1, func() {
		if remote.TryAcquireRead(0, locks.DefaultTries) == nil {
			remote.ReleaseRead(0)
		}
	})
	pr.time("locks.write_acq_rel_ns", "ns", 1, func() {
		if remote.TryAcquireWrite(0, locks.DefaultTries) == nil {
			remote.ReleaseWrite(0)
		}
	})
	words := make([]locks.Word, n)
	train := make([]locks.TrainLock, n)
	for i := range words {
		words[i] = locks.Word{Win: ww, Target: fabric.Rank(1 + i%(fab.Size()-1)), Idx: 1 + i/(fab.Size()-1)}
		train[i] = locks.TrainLock{Word: words[i]}
	}
	pr.time("locks.read_train16_ns", "ns", 1, func() {
		if locks.AcquireReadTrain(0, words, locks.DefaultTries) == nil {
			locks.ReleaseReadTrain(0, words)
		}
	})
	pr.time("locks.write_train16_ns", "ns", 1, func() {
		if vers, err := locks.AcquireWriteTrain(0, train, locks.DefaultTries); err == nil {
			locks.ReleaseWriteTrain(0, words, vers)
		}
	})
}

// blockProbes times a block store of its own on the probe fabric.
func (pr *prober) blockProbes(fab fabric.Transport) {
	const n = 16
	st := block.NewStore(fab, block.Config{BlockSize: blockSize, BlocksPerRank: 64, CacheBlocks: 64})
	dps := make([]fabric.DPtr, n)
	guards := make([]fabric.DPtr, n)
	bufs := make([][]byte, n)
	for i := range dps {
		dps[i], _ = st.AcquireBlock(0, 1)
		bufs[i] = make([]byte, blockSize)
	}
	for i := range guards {
		guards[i] = dps[0] // one 16-block holder, guarded by its primary's lock word
	}
	pr.time("block.read_ns", "ns", 1, func() { st.ReadBlock(0, dps[0], bufs[0]) })
	pr.time("block.read_batch16_ns", "ns", 1, func() { st.ReadBlocksBatch(0, dps, bufs) })
	pr.time("block.write_batch16_ns", "ns", 1, func() { st.WriteBlocksBatch(0, dps, bufs) })
	// The warm call installs the 16 blocks; every timed call then is one
	// stamp train and 16 cache hits.
	pr.time("block.cached_hit16_ns", "ns", 1, func() { st.ReadBlocksCached(0, dps, guards, bufs, false) })
	pr.time("block.acquire_release_ns", "ns", 1, func() {
		if dp, err := st.AcquireBlock(0, 1); err == nil {
			st.ReleaseBlock(0, dp)
		}
	})
}

// dhtProbes times a hash table of its own, filled to a quarter of its heap.
func (pr *prober) dhtProbes(fab fabric.Transport) {
	const keys = 1 << 12
	m := dht.New(fab, dht.Config{BucketsPerRank: keys / 4, EntriesPerRank: keys})
	for k := uint64(0); k < keys; k++ {
		m.Insert(0, k, k)
	}
	var k uint64
	pr.time("dht.lookup_ns", "ns", 1, func() {
		m.Lookup(0, k%keys)
		k += 7919
	})
	fresh := uint64(keys)
	pr.time("dht.insert_delete_ns", "ns", 1, func() {
		m.Insert(0, fresh, 1)
		m.Delete(0, fresh)
		fresh++
	})
}

// readStream reads the encoded holder of primary as the point-read path
// does: the primary block, then the chain its block table names.
func readStream(st *block.Store, primary fabric.DPtr) []byte {
	buf := make([]byte, blockSize)
	st.ReadBlock(0, primary, buf)
	nb := holder.NumBlocks(buf)
	buf = append(buf, make([]byte, (nb-1)*blockSize)...)
	for i := 1; i < nb; i++ {
		st.ReadBlock(0, holder.TableEntry(buf, i-1), buf[i*blockSize:(i+1)*blockSize])
	}
	return buf
}

// engineProbes times the holder codec, the transaction layer and the query
// layer on the loaded graph.
func (pr *prober) engineProbes(e *env, in *input, seed int64) error {
	eng := e.db.Engine()
	p := e.db.Process(0)

	// The median-degree vertex (smallest ID with the median degree, owned by
	// a remote rank) stands for the typical holder; application ID 0 is the
	// largest Kronecker hub.
	deg := make([]int, e.cfg.NumVertices())
	for _, es := range in.edges {
		for _, sp := range es {
			deg[sp.OriginApp]++
			if sp.TargetApp != sp.OriginApp {
				deg[sp.TargetApp]++
			}
		}
	}
	sorted := slices.Clone(deg)
	slices.Sort(sorted)
	medianDeg := sorted[len(sorted)/2]
	medianApp := uint64(0)
	for app, d := range deg {
		if d == medianDeg && eng.OwnerOf(uint64(app)) != 0 {
			medianApp = uint64(app)
			break
		}
	}
	translate := func(app uint64) (gdi.VertexID, error) {
		tx := p.StartTransaction(gdi.ReadOnly)
		defer tx.Abort()
		return tx.TranslateVertexID(app)
	}
	medianID, err := translate(medianApp)
	if err != nil {
		return fmt.Errorf("median vertex %d: %w", medianApp, err)
	}
	hubID, err := translate(0)
	if err != nil {
		return fmt.Errorf("hub vertex: %w", err)
	}

	var view holder.View
	edges := 0
	decode := func(stream []byte) func() {
		return func() {
			for i := 0; i < 16; i++ {
				if view.Reset(stream) == nil {
					view.ForEachEdge(func(holder.EdgeRec) bool { edges++; return true })
				}
			}
		}
	}
	medianStream, hubStream := readStream(eng.Store(), medianID), readStream(eng.Store(), hubID)
	pr.time("holder.decode_median_ns", "ns", 16, decode(medianStream))
	pr.time("holder.decode_hub_ns", "ns", 16, decode(hubStream))
	vtx, err := holder.DecodeVertex(medianStream)
	if err != nil {
		return fmt.Errorf("decoding the median vertex: %w", err)
	}
	pr.time("holder.encode_median_ns", "ns", 16, func() {
		for i := 0; i < 16; i++ {
			holder.EncodeVertexCodec(vtx, blockSize, eng.Codec())
		}
	})

	var arena core.ReadArena
	pr.time("core.point_read_ns", "ns", 1, func() { eng.OptimisticPointRead(0, medianID, &arena, func(*holder.View) {}) })
	pr.time("core.ro_tx_ns", "ns", 1, func() {
		tx := p.StartTransaction(gdi.ReadOnly)
		if id, err := tx.TranslateVertexID(medianApp); err == nil {
			if h, err := tx.AssociateVertex(id); err == nil {
				h.Property(e.sch.AgeProp)
			}
		}
		tx.Commit()
	})

	// update_commit is the time inside Commit alone, so the probe keeps its
	// own samples instead of timing the whole closure.
	var commits []float64
	for i := 0; i < 4000; i++ {
		tx := p.StartTransaction(gdi.ReadWrite)
		h, err := tx.AssociateVertex(medianID)
		if err == nil {
			err = h.SetProperty(e.sch.AgeProp, gdi.Uint64Value(uint64(i%100)))
		}
		if err != nil {
			tx.Abort()
			return fmt.Errorf("update probe: %w", err)
		}
		t0 := time.Now()
		err = tx.Commit()
		commits = append(commits, float64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("update probe commit: %w", err)
		}
	}
	pr.out["core.update_commit_ns"] = metric{Value: midMean(commits), Unit: "ns", N: len(commits)}

	rng := rand.New(rand.NewSource(opSeed(seed)))
	frontier := make([]fabric.DPtr, 64)
	for i := range frontier {
		if frontier[i], err = translate(rng.Uint64() % e.cfg.NumVertices()); err != nil {
			return err
		}
	}
	pr.time("core.expand_hop64_us", "us", 1, func() {
		tx := p.StartTransaction(gdi.ReadOnly)
		tx.ExpandFrontier(frontier, gdi.MaskAll, nil)
		tx.Commit()
	})

	// The IC 2-hop query from checkRoots fixed roots, and how many vertices
	// it has to examine (root, friends, friends of friends) per row returned.
	pattern := friendsPattern(e.db, e.sch)
	var lat, perRow []float64
	for i := 0; i < checkRoots; i++ {
		app := rng.Uint64() % e.cfg.NumVertices()
		t0 := time.Now()
		tx := p.StartTransaction(gdi.ReadOnly)
		id, err := tx.TranslateVertexID(app)
		var rows *query.Result
		if err == nil {
			rows, err = query.Run(tx, id, pattern)
		}
		if err == nil {
			err = tx.Commit()
		}
		lat = append(lat, float64(time.Since(t0)))
		if err != nil {
			tx.Abort()
			return fmt.Errorf("2-hop probe: %w", err)
		}
		tx = p.StartTransaction(gdi.ReadOnly)
		_, hop1, _ := tx.ExpandFrontier([]fabric.DPtr{id}, gdi.MaskAll, nil)
		_, hop2, _ := tx.ExpandFrontier(hop1, gdi.MaskAll, nil)
		tx.Commit()
		perRow = append(perRow, float64(1+len(hop1)+len(hop2))/float64(max(1, len(rows.Rows))))
	}
	pr.out["query.khop2_ms"] = metric{Value: median(lat) / 1e6, Unit: "ms", N: len(lat)}
	pr.out["query.vertices_per_row"] = metric{Value: median(perRow), Unit: "count", N: len(perRow)}
	return nil
}

// analyticsProbes times the dense kernels' parts, the exchange and the
// collectives on the probe database.
func (pr *prober) analyticsProbes(e *env, seed int64) error {
	g := &analytics.Graph{DB: e.db, Schema: e.sch}
	var mu sync.Mutex
	var firstErr error
	// collectively runs fn on every rank and returns rank 0's wall time.
	collectively := func(fn func(p *gdi.Process) error) float64 {
		var d time.Duration
		e.rt.Run(e.db, func(p *gdi.Process) {
			p.Barrier()
			t0 := time.Now()
			err := fn(p)
			p.Barrier()
			if p.Rank() == 0 {
				d = time.Since(t0)
			}
			if err != nil {
				mu.Lock()
				firstErr = err
				mu.Unlock()
			}
		})
		return float64(d)
	}
	pageRank := func(iters int) func(*gdi.Process) error {
		return func(p *gdi.Process) error {
			_, _, err := analytics.PageRank(p, g, iters, pageRankDF)
			return err
		}
	}
	// PageRank(21) - PageRank(1) is twenty iterations without the snapshot
	// build; what is left of PageRank(1) after one iteration is the build.
	var one, twentyOne []float64
	for i := 0; i < 3; i++ {
		one = append(one, collectively(pageRank(1)))
		twentyOne = append(twentyOne, collectively(pageRank(21)))
	}
	iter := (median(twentyOne) - median(one)) / 20
	pr.out["analytics.pagerank_iter_ms"] = metric{Value: iter / 1e6, Unit: "ms", N: 3}
	pr.out["analytics.csr_build_ms"] = metric{Value: (median(one) - iter) / 1e6, Unit: "ms", N: 3}

	rng := rand.New(rand.NewSource(opSeed(seed) + 1))
	var bfs []float64
	for i := 0; i < 8; i++ {
		root := rng.Uint64() % e.cfg.NumVertices()
		bfs = append(bfs, collectively(func(p *gdi.Process) error {
			_, _, _, err := analytics.BFSDense(p, g, root)
			return err
		}))
	}
	pr.out["analytics.bfs_root_ms"] = metric{Value: median(bfs) / 1e6, Unit: "ms", N: len(bfs)}
	if firstErr != nil {
		return firstErr
	}

	// Rounds and collectives: every rank loops, rank 0 keeps the samples.
	loop := func(name string, n int, step func(p *gdi.Process)) {
		var xs []float64
		e.rt.Run(e.db, func(p *gdi.Process) {
			p.Barrier()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				step(p)
				if p.Rank() == 0 {
					xs = append(xs, float64(time.Since(t0)))
				}
			}
		})
		pr.out[name] = metric{Value: median(xs) / 1e3, Unit: "us", N: len(xs)}
	}
	x := e.db.Engine().Exchange()
	payload := make([]byte, 64<<10)
	loop("exchange.round64k_us", 200, func(p *gdi.Process) {
		out := make([][]byte, p.Size())
		for d := range out {
			out[d] = payload // 64 KiB to every rank
		}
		x.Round(p.Rank(), out)
	})
	loop("collective.barrier_us", 2000, func(p *gdi.Process) { p.Barrier() })
	loop("collective.allreduce_us", 2000, func(p *gdi.Process) { p.AllreduceInt64(1) })
	return nil
}
