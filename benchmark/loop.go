package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/gdi-go/gdi/internal/fabric"
)

// limit ends a phase: after ops requests per worker (warm-up, tests), after
// dur, or — on a traced phase — when a worker's span slice is full.
type limit struct {
	ops int
	dur time.Duration
}

// phaseResult is what one phase of closed-loop clients measured. It crosses
// the pipe from a TCP rank process to the launcher, hence the exported
// fields.
type phaseResult struct {
	// Lat holds the raw per-request latencies (ns) by class; never bucketed.
	// Slot[c][i] is the slice of the phase in which request Lat[c][i]
	// completed — a window of a timed phase, a cycle of olap — or noSlot for
	// the cut-short tail. SlotS[k] is the length of slice k in seconds.
	Lat   [numClasses][]int64
	Slot  [numClasses][]uint16
	SlotS []float64
	// Attempted counts requests; Failed those that exhausted their retries;
	// NotFound the successful no-ops on a missing vertex; Aborts the
	// transaction-critical aborts absorbed by retries; Vertices the committed
	// change of the vertex count; Rows the 2-hop rows returned.
	Attempted, Failed, NotFound, Aborts, Vertices, Rows int64
	// ElapsedS is the wall time from the common start to the last worker's
	// last request; for olap's single stream of kernel runs, their summed
	// latencies (the collections between runs are the benchmark's).
	ElapsedS float64
	// StolenS is the CPU time the hypervisor withheld from this virtual
	// machine during the phase, per load-generating thread (see
	// stolenSeconds): reported, so that a loud hour can be told from a
	// regression, and not corrected for.
	StolenS float64
	// Traffic is the fabric counter delta over the phase, summed over ranks.
	Traffic fabric.Snapshot
	// Spans holds each worker's spans on a traced phase.
	Spans [][]span
}

// merge folds o into r: measured over the same interval by another worker or
// rank process when parallel, over a later interval otherwise.
func (r *phaseResult) merge(o *phaseResult, parallel bool) {
	shift := uint16(0)
	if !parallel {
		shift = uint16(len(r.SlotS))
		r.SlotS = append(r.SlotS, o.SlotS...)
	} else if len(o.SlotS) > len(r.SlotS) {
		r.SlotS = o.SlotS
	}
	for c := range r.Lat {
		r.Lat[c] = append(r.Lat[c], o.Lat[c]...)
		for _, k := range o.Slot[c] {
			if k != noSlot {
				k += shift
			}
			r.Slot[c] = append(r.Slot[c], k)
		}
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.NotFound += o.NotFound
	r.Aborts += o.Aborts
	r.Vertices += o.Vertices
	r.Rows += o.Rows
	if parallel {
		r.ElapsedS = max(r.ElapsedS, o.ElapsedS)
		r.StolenS = max(r.StolenS, o.StolenS) // rank processes read the same machine-wide counter
	} else {
		r.ElapsedS += o.ElapsedS
		r.StolenS += o.StolenS
	}
	r.Traffic.Add(o.Traffic)
	r.Spans = append(r.Spans, o.Spans...)
}

// succeeded is the number of requests that completed.
func (r *phaseResult) succeeded() int64 { return r.Attempted - r.Failed }

// sorted returns class c's latencies in ascending order, and all returns
// every class's.
func (r *phaseResult) sorted(c class) []int64 {
	xs := slices.Clone(r.Lat[c])
	slices.Sort(xs)
	return xs
}

func (r *phaseResult) all() []int64 {
	var xs []int64
	for c := range r.Lat {
		xs = append(xs, r.Lat[c]...)
	}
	slices.Sort(xs)
	return xs
}

// noSlot marks a request that completed after the last whole slice.
const noSlot = ^uint16(0)

// window is the length of a timed phase's slices.
const window = 250 * time.Millisecond

// minSlices is the number of whole slices from which the run's figures are
// taken slice by slice; a shorter phase (a test) is taken as one piece. olap
// has cycles, not slices: see quietCycle.
const minSlices = 8

// slices groups the phase's requests by slice: each whole slice's request
// count and sorted latencies. Slices after the last request (a traced phase
// whose span slices filled up ends early) are dropped, with the one the end
// fell into.
func (r *phaseResult) slices() (lats [][]int64, secs []float64) {
	lats = make([][]int64, len(r.SlotS))
	last := -1
	for c := range r.Lat {
		for i, k := range r.Slot[c] {
			if k != noSlot {
				lats[k] = append(lats[k], r.Lat[c][i])
				last = max(last, int(k))
			}
		}
	}
	if last < len(lats)-1 {
		lats = lats[:max(last, 0)]
	}
	for _, xs := range lats {
		slices.Sort(xs)
	}
	return lats, r.SlotS[:len(lats)]
}

// The box this runs on is a virtual machine whose neighbours now and then
// take a core away for seconds at a time, sometimes for most of a run; a run
// hit by that lost up to half its throughput, and its plain quotient and
// quantiles moved with it. Such a disturbance only ever slows a slice down. So
// the three figures every workload reports are computed slice by slice and
// taken from the quiet quarter of the slices: with a second core busy half
// the time, a median over the slices moved qps by 15 to 23 % and ldbc's
// lat_p90_us by 10 %, the quartile by 4 to 6 % and 1 %, and in a quiet hour
// the quartile spreads no more than the median. A change to the program moves
// every slice, the quiet ones too.

// qps is the phase's throughput in completed requests per second: the value
// at mid-phase of the line through the upper quartile of the slices' rates
// (see trendQuiet; a plain quantile of the rates spread three times more on
// oltp-wi, whose requests get cheaper as the run goes).
func (r *phaseResult) qps() float64 {
	lats, secs := r.slices()
	if len(lats) < minSlices {
		if r.ElapsedS == 0 {
			return 0
		}
		return float64(r.succeeded()) / r.ElapsedS
	}
	rates := make([]float64, len(lats))
	for k, xs := range lats {
		rates[k] = float64(len(xs)) / secs[k]
	}
	return trendQuiet(rates)
}

// latency is the q-quantile of the request latency in ns: the lower quartile
// over the slices of each slice's own quantile.
func (r *phaseResult) latency(q float64) float64 {
	lats, _ := r.slices()
	if len(lats) < minSlices {
		v, _ := quantile(r.all(), q)
		return float64(v)
	}
	var qs []float64
	for _, xs := range lats {
		if len(xs) > 0 {
			v, _ := quantile(xs, q)
			qs = append(qs, float64(v))
		}
	}
	return pick(qs, 0.25)
}

// session is one worker's generator and client; both persist across the
// warm-up, untraced and traced phases so the request stream is continuous.
type session struct {
	gen    *generator
	client *client
}

func newSessions(e *env, seed int64, workers []int) []session {
	ss := make([]session, len(workers))
	for i, w := range workers {
		g := newGenerator(e.s, seed, w, e.cfg.NumVertices())
		ss[i] = session{gen: g, client: newClient(e.db, e.sch, g)}
	}
	return ss
}

// maxTracedOps is the per-worker request capacity of a traced phase.
const maxTracedOps = 1 << 15

// runPhase drives one closed loop per session until lim ends it. Every
// worker issues its next request only when the previous one has completed.
// With traced set, spans are recorded into slices allocated here, before the
// clock starts.
func runPhase(e *env, ss []session, lim limit, traced bool) (*phaseResult, error) {
	fab := e.rt.Transport()
	type worker struct {
		phaseResult
		err error
	}
	nSlices := int(lim.dur / window) // a worker stops at the deadline: the slice it falls into is cut short

	ws := make([]worker, len(ss))
	epoch := time.Now()
	for i := range ss {
		n := lim.ops
		if n == 0 {
			n = int(lim.dur.Seconds()*150_000) + 1024
		}
		for _, c := range []class{clRead, clWrite, clDelete, clQuery} {
			ws[i].Lat[c], ws[i].Slot[c] = make([]int64, 0, n), make([]uint16, 0, n)
		}
		ss[i].client.tr = nil
		if traced {
			ss[i].client.tr = newTracer(fab, fabric.Rank(ss[i].gen.worker), maxTracedOps, epoch)
		}
	}
	before := localTraffic(fab)
	stolen := stolenSeconds()

	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(lim.dur)
	for i := range ss {
		wg.Add(1)
		go func(w *worker, s session) {
			defer wg.Done()
			for n := 0; lim.ops == 0 || n < lim.ops; n++ {
				if s.client.tr != nil && s.client.tr.full() {
					break
				}
				req := s.gen.next()
				t0 := time.Now()
				if lim.dur > 0 && !t0.Before(deadline) {
					break
				}
				out, err := s.client.do(req)
				end := time.Now()
				c, k := req.kind.class(), noSlot
				if i := int(end.Sub(start) / window); i < nSlices {
					k = uint16(i)
				}
				w.Lat[c] = append(w.Lat[c], int64(end.Sub(t0)))
				w.Slot[c] = append(w.Slot[c], k)
				if err != nil {
					w.err = fmt.Errorf("worker %d, %s app %d: %w", s.gen.worker, classNames[req.kind.class()], req.app, err)
					return
				}
				w.Attempted++
				w.Aborts += int64(out.aborts)
				w.Vertices += int64(out.vertices)
				if out.vertices < 0 {
					s.gen.committedDelete(req.app)
				}
				w.Rows += int64(out.rows)
				if out.failed {
					w.Failed++
				}
				if out.notFound {
					w.NotFound++
				}
			}
		}(&ws[i], ss[i])
	}
	wg.Wait()
	res := &phaseResult{ElapsedS: time.Since(start).Seconds(), StolenS: (stolenSeconds() - stolen) / loadThreads}
	for i := 0; i < nSlices; i++ {
		res.SlotS = append(res.SlotS, window.Seconds())
	}
	res.Traffic = diff(localTraffic(fab), before)
	for i := range ws {
		w := &ws[i]
		if w.err != nil {
			return nil, w.err
		}
		res.merge(&w.phaseResult, true)
		if tr := ss[i].client.tr; tr != nil {
			res.Spans = append(res.Spans, tr.spans)
			ss[i].client.tr = nil
		}
	}
	return res, nil
}

// localTraffic sums the counters of the ranks this process hosts: all of
// them on the simulator, one on a wire transport (the launcher adds the rank
// processes' deltas).
func localTraffic(fab fabric.Transport) fabric.Snapshot {
	var s fabric.Snapshot
	for r := 0; r < fab.Size(); r++ {
		if fab.Local(fabric.Rank(r)) {
			s.Add(fab.CounterSnapshot(fabric.Rank(r)))
		}
	}
	return s
}

// diff returns a - b field by field.
func diff(a, b fabric.Snapshot) fabric.Snapshot {
	return fabric.Snapshot{
		LocalPuts: a.LocalPuts - b.LocalPuts, RemotePuts: a.RemotePuts - b.RemotePuts,
		LocalGets: a.LocalGets - b.LocalGets, RemoteGets: a.RemoteGets - b.RemoteGets,
		LocalAtomics: a.LocalAtomics - b.LocalAtomics, RemoteAtoms: a.RemoteAtoms - b.RemoteAtoms,
		BytesPut: a.BytesPut - b.BytesPut, BytesGot: a.BytesGot - b.BytesGot,
		Flushes:    a.Flushes - b.Flushes,
		GetBatches: a.GetBatches - b.GetBatches, PutBatches: a.PutBatches - b.PutBatches,
		AtomicBatches: a.AtomicBatches - b.AtomicBatches,
		CacheHits:     a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
	}
}
