package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"github.com/gdi-go/gdi/internal/fabric"
)

// phase names a span: the layer boundary a client call crosses. The spans are
// recorded by the benchmark's own client, around its calls into the engine;
// spans inside the engine are a later change.
type phase uint8

const (
	phOp        phase = iota // root: one logical request, optimistic retries included
	phBegin                  // StartTransaction
	phTranslate              // TranslateVertexID (dht lookup)
	phAssociate              // AssociateVertex (stamp train, block reads, holder decode)
	phAccess                 // Property / Labels / Edges / CountEdges on the handle
	phMutate                 // SetProperty / AddLabel / CreateEdge / CreateVertex / DeleteVertex
	phRun                    // query.Run, or one analytics kernel on olap
	phCommit                 // Commit (validation, lock train, write-back, release)
	numPhases
)

var phaseNames = [numPhases]string{"op", "begin", "translate", "associate", "access", "mutate", "run", "commit"}

// trains is the part of a fabric.Snapshot delta a span keeps: the remote
// round trips it caused.
type trains struct {
	Atomics, AtomicTrains, Gets, GetTrains, Puts, PutTrains int32
}

// span is one timed interval. Spans of one request share op; parent is the
// index of the enclosing span in the same worker's slice, -1 for a root.
type span struct {
	Phase      phase
	Class      class
	Op         int32
	Parent     int32
	Start, End int64 // ns since the tracer's epoch
	T          trains
}

// tracer records one worker's spans in a slice allocated before the timed
// phase; when the slice is full the traced phase ends (see full). A nil
// tracer records nothing, which is how one client implementation serves both
// the untraced and the traced pass.
type tracer struct {
	spans []span
	fab   fabric.Transport
	rank  fabric.Rank
	epoch time.Time
	root  int32 // index of the open root span
	nOps  int32
}

// spansPerOp is the span capacity reserved per request: a request records a
// root and, per attempt, begin, translate (up to twice), associate, access or
// mutate (up to three times) and commit. Retries use more; the phase then
// ends a little earlier.
const spansPerOp = 8

func newTracer(fab fabric.Transport, rank fabric.Rank, maxOps int, epoch time.Time) *tracer {
	return &tracer{spans: make([]span, 0, maxOps*spansPerOp), fab: fab, rank: rank, epoch: epoch, root: -1}
}

// full reports that the next request might not fit.
func (t *tracer) full() bool { return cap(t.spans)-len(t.spans) < 4*spansPerOp }

func (t *tracer) snapshot() trains {
	s := t.fab.CounterSnapshot(t.rank)
	return trains{
		Atomics: int32(s.RemoteAtoms), AtomicTrains: int32(s.AtomicBatches),
		Gets: int32(s.RemoteGets), GetTrains: int32(s.GetBatches),
		Puts: int32(s.RemotePuts), PutTrains: int32(s.PutBatches),
	}
}

// beginOp opens the root span of a request.
func (t *tracer) beginOp(c class) {
	if t == nil {
		return
	}
	t.root = int32(len(t.spans))
	t.spans = append(t.spans, span{Phase: phOp, Class: c, Op: t.nOps, Parent: -1,
		Start: int64(time.Since(t.epoch)), T: t.snapshot()})
}

// endOp closes the root span.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.end(t.root)
	t.root = -1
	t.nOps++
}

// begin opens a child of the current root and returns its index.
func (t *tracer) begin(ph phase) int32 {
	if t == nil || len(t.spans) == cap(t.spans) {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Phase: ph, Class: t.spans[t.root].Class, Op: t.nOps, Parent: t.root,
		Start: int64(time.Since(t.epoch)), T: t.snapshot()})
	return i
}

// end closes span i: the stored counter snapshot becomes the delta.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	now := t.snapshot()
	s.T = trains{
		Atomics: now.Atomics - s.T.Atomics, AtomicTrains: now.AtomicTrains - s.T.AtomicTrains,
		Gets: now.Gets - s.T.Gets, GetTrains: now.GetTrains - s.T.GetTrains,
		Puts: now.Puts - s.T.Puts, PutTrains: now.PutTrains - s.T.PutTrains,
	}
	s.End = int64(time.Since(t.epoch))
}

// selfTimes returns, aligned with spans, each span's duration minus the part
// of that interval its direct children cover. Children of one parent come
// from one goroutine, so they never overlap each other; the clamp only
// guards against a child that outlives a truncated parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			p := spans[s.Parent]
			covered := min(s.End, p.End) - max(s.Start, p.Start)
			if covered > 0 {
				self[s.Parent] -= covered
			}
		}
	}
	return self
}

// phaseStats aggregates one traced phase over all workers.
type phaseStats struct {
	// self[class][phase] holds the self times (ns) of every span of that
	// phase in requests of that class.
	self [numClasses][numPhases][]int64
	// trains[phase] sums the counter deltas of that phase's spans; count is
	// the number of spans.
	trains [numPhases]trains64
	count  [numPhases]int64
}

type trains64 struct {
	atomics, atomicTrains, gets, getTrains, puts, putTrains int64
}

func aggregate(workers [][]span) *phaseStats {
	st := &phaseStats{}
	for _, spans := range workers {
		self := selfTimes(spans)
		for i, s := range spans {
			if s.End == 0 {
				continue // cut off by the end of the phase
			}
			st.self[s.Class][s.Phase] = append(st.self[s.Class][s.Phase], self[i])
			tr := &st.trains[s.Phase]
			tr.atomics += int64(s.T.Atomics)
			tr.atomicTrains += int64(s.T.AtomicTrains)
			tr.gets += int64(s.T.Gets)
			tr.getTrains += int64(s.T.GetTrains)
			tr.puts += int64(s.T.Puts)
			tr.putTrains += int64(s.T.PutTrains)
			st.count[s.Phase]++
		}
	}
	return st
}

// shares returns each phase's share of all traced self time; the root's self
// time is the client's own overhead between engine calls.
func (st *phaseStats) shares() [numPhases]float64 {
	var sum [numPhases]float64
	total := 0.0
	for c := range st.self {
		for ph := range st.self[c] {
			for _, v := range st.self[c][ph] {
				sum[ph] += float64(v)
				total += float64(v)
			}
		}
	}
	if total > 0 {
		for ph := range sum {
			sum[ph] /= total
		}
	}
	return sum
}

// medianSelfUs returns the median self time of phase ph in requests of class
// c, in microseconds, and the sample count.
func (st *phaseStats) medianSelfUs(c class, ph phase) (float64, int) {
	xs := slices.Clone(st.self[c][ph])
	if len(xs) == 0 {
		return 0, 0
	}
	slices.Sort(xs)
	v, _ := quantile(xs, 0.5)
	return float64(v) / 1e3, len(xs)
}

// perSpan returns the mean of one counter over the spans of phase ph.
func (st *phaseStats) perSpan(ph phase, pick func(trains64) int64) float64 {
	if st.count[ph] == 0 {
		return 0
	}
	return float64(pick(st.trains[ph])) / float64(st.count[ph])
}

// writeTrace writes the spans of every worker to out/trace-<workload>.json
// under dir, one array per span: [worker, phase, class, op, parent, start_ns,
// end_ns]. The names of the phase and class codes are in the header.
func writeTrace(dir, workload string, workers [][]span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"phases\":[", workload)
	for i, n := range phaseNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"classes\":[")
	for i, n := range classNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"columns\":[\"worker\",\"phase\",\"class\",\"op\",\"parent\",\"start_ns\",\"end_ns\"],\"spans\":[\n")
	var buf []byte
	first := true
	for wk, spans := range workers {
		for _, s := range spans {
			buf = buf[:0]
			if !first {
				buf = append(buf, ",\n"...)
			}
			first = false
			buf = append(buf, '[')
			for j, v := range [...]int64{int64(wk), int64(s.Phase), int64(s.Class), int64(s.Op), int64(s.Parent), s.Start, s.End} {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, v, 10)
			}
			buf = append(buf, ']')
			w.Write(buf)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
