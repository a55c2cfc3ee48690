package locks

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/rma"
)

// trainAPI is one implementation of the lock trains: the engine or the
// reference loops it replaced.
type trainAPI struct {
	acquireWrite     func(fabric.Rank, []TrainLock, int) ([]uint64, error)
	acquireWriteEach func(fabric.Rank, []TrainLock, int) ([]uint64, []bool)
	releaseWrite     func(fabric.Rank, []Word, []uint64, []ReleaseMark)
	acquireRead      func(fabric.Rank, []Word, []uint64, int) ([]uint64, error)
	releaseRead      func(fabric.Rank, []Word, []uint64)
	mirrorMark       func(fabric.Rank, []Word, []uint64) []bool
	mirrorRelease    func(fabric.Rank, []Word, []uint64, []ReleaseMark)
}

var (
	engineAPI = trainAPI{AcquireWriteTrain, AcquireWriteTrainEach, ReleaseWriteTrainMarked,
		AcquireReadTrainAt, ReleaseReadTrainAt, AcquireMirrorTrain, ReleaseMirrorTrain}
	referenceAPI = trainAPI{refAcquireWriteTrain, refAcquireWriteTrainEach, refReleaseWriteTrainMarked,
		refAcquireReadTrainAt, refReleaseReadTrainAt, refAcquireMirrorTrain, refReleaseMirrorTrain}
)

// lockTwin is one of the two fabrics the reference script runs on.
type lockTwin struct {
	f   *rma.Fabric
	ws  []Word
	api trainAPI
}

// run calls op on the twin with fresh counters and returns its results, or
// the panic it raised.
func (tw lockTwin) run(op func(trainAPI, []Word) []any) (out []any, panicked any) {
	tw.f.ResetCounters()
	defer func() { panicked = recover() }()
	return op(tw.api, tw.ws), nil
}

// state is every rank's counters and then every lock word of the twin.
func (tw lockTwin) state() (counters []fabric.Snapshot, words []uint64) {
	for r := 0; r < tw.f.Size(); r++ {
		counters = append(counters, tw.f.CounterSnapshot(rma.Rank(r)))
	}
	for _, w := range tw.ws {
		words = append(words, raw(w))
	}
	return counters, words
}

// TestLockTrainsMatchReference runs one seeded random script of lock
// trains on twin 3-rank fabrics, the engine on one and the reference loops
// on the other: write acquisitions (all or nothing, best effort), write
// releases marked written (stub bit kept, set or cleared) or unwritten, read
// acquisitions and releases, and mirror marks and marked mirror releases,
// seeded right and wrong, over words a third party
// holds shared or exclusively and words marked as stubs, so trains probe,
// run out of tries, roll back and panic. After every operation the return
// values or the panic, every word and every rank's counters must be equal.
func TestLockTrainsMatchReference(t *testing.T) {
	const ranks, perRank, steps = 3, 4, 3000
	twin := func(api trainAPI) lockTwin {
		f := rma.New(ranks)
		win := f.NewWordWin(perRank)
		tw := lockTwin{f: f, api: api}
		for r := 0; r < ranks; r++ {
			for i := 0; i < perRank; i++ {
				tw.ws = append(tw.ws, Word{Win: win, Target: rma.Rank(r), Idx: i})
			}
		}
		return tw
	}
	live, ref := twin(engineAPI), twin(referenceAPI)
	rng := rand.New(rand.NewSource(41))

	// The script's view of what it holds, by word: the seeds it passes are
	// right or wrong against it, and the releases it issues are mostly of
	// words it holds. A panic mid-train leaves the view stale; the next
	// reset repairs it.
	var (
		writeHeld  = map[int]bool{}
		readHeld   = map[int]int{}
		mirrorHeld = map[int]uint64{} // marked word → version it was marked at
	)
	store := func(k int, val uint64) {
		for _, tw := range []lockTwin{live, ref} {
			w := tw.ws[k]
			w.Win.Store(w.Target, w.Target, w.Idx, val)
		}
	}
	reset := func() {
		clear(writeHeld)
		clear(readHeld)
		clear(mirrorHeld)
		for k := range live.ws {
			word := freeAt(uint64(rng.Intn(4)))
			switch rng.Intn(6) {
			case 0: // a third party's writer
				word |= writeBit
			case 1: // third-party readers
				word += uint64(1 + rng.Intn(2))
			case 2:
				word |= stubBit
			}
			store(k, word)
		}
	}
	pick := func(from []int) []int {
		rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
		return from[:rng.Intn(len(from)+1)]
	}
	all := func() []int {
		ks := make([]int, len(live.ws))
		for k := range ks {
			ks[k] = k
		}
		return ks
	}
	keys := func(held func(k int) bool) []int {
		var ks []int
		for k := range live.ws {
			if held(k) || rng.Intn(12) == 0 { // now and then one not held
				ks = append(ks, k)
			}
		}
		return ks
	}
	// vers seeds the words: right, all 0, or nil, or one word wrong.
	vers := func(ks []int, nilOK bool) []uint64 {
		if nilOK && rng.Intn(4) == 0 {
			return nil
		}
		vs := make([]uint64, len(ks))
		for i, k := range ks {
			vs[i] = Version(raw(live.ws[k]))
			if rng.Intn(5) == 0 {
				vs[i] = uint64(rng.Intn(4))
			}
		}
		return vs
	}
	// randomMarks marks n words at random, or returns nil (every word
	// Written).
	randomMarks := func(n int) []ReleaseMark {
		if rng.Intn(3) == 0 {
			return nil
		}
		marks := make([]ReleaseMark, n)
		for i := range marks {
			marks[i] = ReleaseMark(rng.Intn(4))
		}
		return marks
	}
	words := func(ws []Word, ks []int) []Word {
		out := make([]Word, len(ks))
		for i, k := range ks {
			out[i] = ws[k]
		}
		return out
	}

	reset()
	for step := 0; step < steps; step++ {
		if step%40 == 39 {
			reset()
		}
		origin := rma.Rank(rng.Intn(ranks))
		tries := rng.Intn(3)
		var (
			desc string
			op   func(trainAPI, []Word) []any
			took func(out []any) // updates the script's view on success
		)
		switch kind := rng.Intn(8); kind {
		case 0, 1: // write acquisition: all or nothing, or best effort
			ks := pick(all())
			ls := make([]TrainLock, len(ks))
			vs := vers(ks, false)
			for i := range ks {
				ls[i] = TrainLock{Ver: vs[i]}
			}
			each := kind == 1
			desc = fmt.Sprintf("write acquire (each %v) %v %+v tries %d", each, ks, ls, tries)
			op = func(api trainAPI, ws []Word) []any {
				train := make([]TrainLock, len(ls))
				for i, l := range ls {
					train[i] = TrainLock{Word: ws[ks[i]], Ver: l.Ver}
				}
				if each {
					vers, held := api.acquireWriteEach(origin, train, tries)
					return []any{vers, held}
				}
				vers, err := api.acquireWrite(origin, train, tries)
				return []any{vers, err}
			}
			took = func(out []any) {
				for i, k := range ks {
					if each && !out[1].([]bool)[i] || !each && out[1] != nil {
						continue
					}
					writeHeld[k] = true
				}
			}
		case 2: // marked write release
			ks := pick(keys(func(k int) bool { return writeHeld[k] }))
			vs := vers(ks, true)
			marks := randomMarks(len(ks))
			desc = fmt.Sprintf("write release %v vers %v marks %v", ks, vs, marks)
			op = func(api trainAPI, ws []Word) []any {
				api.releaseWrite(origin, words(ws, ks), vs, marks)
				return nil
			}
			took = func([]any) {
				for _, k := range ks {
					delete(writeHeld, k)
				}
			}
		case 3, 4: // read acquisition
			ks := pick(all())
			vs := vers(ks, true)
			desc = fmt.Sprintf("read acquire %v vers %v tries %d", ks, vs, tries)
			op = func(api trainAPI, ws []Word) []any {
				stamps, err := api.acquireRead(origin, words(ws, ks), vs, tries)
				return []any{stamps, err}
			}
			took = func(out []any) {
				if out[1] == nil {
					for _, k := range ks {
						readHeld[k]++
					}
				}
			}
		case 5: // read release
			ks := pick(keys(func(k int) bool { return readHeld[k] > 0 }))
			vs := vers(ks, true)
			desc = fmt.Sprintf("read release %v vers %v", ks, vs)
			op = func(api trainAPI, ws []Word) []any {
				api.releaseRead(origin, words(ws, ks), vs)
				return nil
			}
			took = func([]any) {
				for _, k := range ks {
					readHeld[k]--
				}
			}
		case 6: // mirror mark
			ks := pick(all())
			vs := vers(ks, false)
			desc = fmt.Sprintf("mirror mark %v vers %v", ks, vs)
			op = func(api trainAPI, ws []Word) []any {
				return []any{api.mirrorMark(origin, words(ws, ks), vs)}
			}
			took = func(out []any) {
				for i, k := range ks {
					if out[0].([]bool)[i] {
						mirrorHeld[k] = vs[i]
					}
				}
			}
		case 7: // mirror release
			ks := pick(keys(func(k int) bool { _, ok := mirrorHeld[k]; return ok }))
			vs := make([]uint64, len(ks))
			for i, k := range ks {
				vs[i] = mirrorHeld[k]
				if rng.Intn(5) == 0 {
					vs[i]++
				}
			}
			marks := randomMarks(len(ks))
			desc = fmt.Sprintf("mirror release %v vers %v marks %v", ks, vs, marks)
			op = func(api trainAPI, ws []Word) []any {
				api.mirrorRelease(origin, words(ws, ks), vs, marks)
				return nil
			}
			took = func([]any) {
				for _, k := range ks {
					delete(mirrorHeld, k)
				}
			}
		}

		gotOut, gotPanic := live.run(op)
		wantOut, wantPanic := ref.run(op)
		desc = fmt.Sprintf("step %d, rank %d: %s", step, origin, desc)
		if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotPanic, wantPanic) {
			t.Fatalf("%s: engine returned %v (panic %v), reference %v (panic %v)", desc, gotOut, gotPanic, wantOut, wantPanic)
		}
		gotCounters, gotWords := live.state()
		wantCounters, wantWords := ref.state()
		if !reflect.DeepEqual(gotCounters, wantCounters) {
			t.Fatalf("%s: engine counters %+v, reference %+v", desc, gotCounters, wantCounters)
		}
		if !reflect.DeepEqual(gotWords, wantWords) {
			t.Fatalf("%s: engine words %#x, reference %#x", desc, gotWords, wantWords)
		}
		if gotPanic == nil {
			took(gotOut)
		}
	}
}
