package locks

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gdi-go/gdi/internal/rma"
)

func word(ranks int) (Word, *rma.Fabric) {
	f := rma.New(ranks)
	return Word{Win: f.NewWordWin(4), Target: 0, Idx: 1}, f
}

func TestReadLockBasics(t *testing.T) {
	w, _ := word(1)
	if err := w.TryAcquireRead(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	if err := w.TryAcquireRead(0, DefaultTries); err != nil {
		t.Fatal("second reader refused:", err)
	}
	if wr, rd := w.Peek(0); wr || rd != 2 {
		t.Fatalf("Peek = (%v, %d), want (false, 2)", wr, rd)
	}
	w.ReleaseRead(0)
	w.ReleaseRead(0)
	if wr, rd := w.Peek(0); wr || rd != 0 {
		t.Fatalf("after release Peek = (%v, %d), want (false, 0)", wr, rd)
	}
}

func TestWriteExcludesReaders(t *testing.T) {
	w, _ := word(1)
	if err := w.TryAcquireWrite(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	if err := w.TryAcquireRead(0, 4); err != ErrContended {
		t.Fatalf("reader under writer: err = %v, want ErrContended", err)
	}
	if err := w.TryAcquireWrite(0, 4); err != ErrContended {
		t.Fatalf("second writer: err = %v, want ErrContended", err)
	}
	w.ReleaseWrite(0)
	if err := w.TryAcquireRead(0, DefaultTries); err != nil {
		t.Fatal("reader after writer released:", err)
	}
}

func TestReadersExcludeWriter(t *testing.T) {
	w, _ := word(1)
	if err := w.TryAcquireRead(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	if err := w.TryAcquireWrite(0, 4); err != ErrContended {
		t.Fatalf("writer under reader: err = %v, want ErrContended", err)
	}
	w.ReleaseRead(0)
}

func TestReleasePanics(t *testing.T) {
	w, _ := word(1)
	for name, fn := range map[string]func(){
		"ReleaseRead":  func() { w.ReleaseRead(0) },
		"ReleaseWrite": func() { w.ReleaseWrite(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s without lock did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMutualExclusionUnderContention(t *testing.T) {
	w, f := word(8)
	var inCrit atomic.Int64
	var acquired atomic.Int64
	f.Run(func(r rma.Rank) {
		for i := 0; i < 200; i++ {
			if err := w.TryAcquireWrite(r, 10_000); err != nil {
				continue
			}
			if inCrit.Add(1) != 1 {
				t.Error("two writers in the critical section")
			}
			inCrit.Add(-1)
			acquired.Add(1)
			w.ReleaseWrite(r)
		}
	})
	if acquired.Load() == 0 {
		t.Fatal("no writer ever acquired the lock")
	}
	if wr, rd := w.Peek(0); wr || rd != 0 {
		t.Fatalf("lock not clean after contention: (%v, %d)", wr, rd)
	}
}

// trainWords builds one lock word per rank on a fresh fabric of n ranks,
// plus extra words per rank when width > 1.
func trainWords(n, width int) ([]Word, *rma.Fabric) {
	f := rma.New(n)
	win := f.NewWordWin(1 + width)
	var ws []Word
	for r := 0; r < n; r++ {
		for i := 0; i < width; i++ {
			ws = append(ws, Word{Win: win, Target: rma.Rank(r), Idx: 1 + i})
		}
	}
	return ws, f
}

func TestAcquireWriteTrainFresh(t *testing.T) {
	ws, _ := trainWords(4, 2)
	ls := make([]TrainLock, len(ws))
	for i, w := range ws {
		ls[i] = TrainLock{Word: w}
	}
	vers, err := AcquireWriteTrain(0, ls, DefaultTries)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if wr, rd := w.Peek(0); !wr || rd != 0 {
			t.Fatalf("word %d after train: (%v, %d), want exclusively held", i, wr, rd)
		}
	}
	ReleaseWriteTrain(0, ws, vers)
	for i, w := range ws {
		if wr, rd := w.Peek(0); wr || rd != 0 {
			t.Fatalf("word %d after release train: (%v, %d), want free", i, wr, rd)
		}
	}
}

func TestAcquireWriteTrainRollsBackOnContention(t *testing.T) {
	ws, _ := trainWords(3, 1)
	// A reader on the middle word makes its acquisition fail.
	if err := ws[1].TryAcquireRead(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	ls := []TrainLock{{Word: ws[0]}, {Word: ws[1]}, {Word: ws[2]}}
	if _, err := AcquireWriteTrain(0, ls, 4); err != ErrContended {
		t.Fatalf("train over a held word: err = %v, want ErrContended", err)
	}
	if wr, rd := ws[0].Peek(0); wr || rd != 0 {
		t.Fatalf("word 0 not rolled back to free: (%v, %d)", wr, rd)
	}
	if wr, rd := ws[1].Peek(0); wr || rd != 1 {
		t.Fatalf("word 1 disturbed: (%v, %d), want the foreign reader intact", wr, rd)
	}
	if wr, rd := ws[2].Peek(0); wr || rd != 0 {
		t.Fatalf("word 2 not rolled back to free: (%v, %d)", wr, rd)
	}
}

func TestReadTrainAcquireRelease(t *testing.T) {
	ws, _ := trainWords(4, 2)
	if err := AcquireReadTrain(0, ws, DefaultTries); err != nil {
		t.Fatal(err)
	}
	// A second overlapping train stacks reader counts.
	if err := AcquireReadTrain(1, ws, DefaultTries); err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if wr, rd := w.Peek(0); wr || rd != 2 {
			t.Fatalf("word %d: (%v, %d), want 2 readers", i, wr, rd)
		}
	}
	ReleaseReadTrain(0, ws)
	ReleaseReadTrain(1, ws)
	for i, w := range ws {
		if wr, rd := w.Peek(0); wr || rd != 0 {
			t.Fatalf("word %d after releases: (%v, %d), want free", i, wr, rd)
		}
	}
}

func TestReadTrainFailsUnderWriterAndRollsBack(t *testing.T) {
	ws, _ := trainWords(3, 1)
	if err := ws[2].TryAcquireWrite(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	if err := AcquireReadTrain(1, ws, 4); err != ErrContended {
		t.Fatalf("read train under a writer: err = %v, want ErrContended", err)
	}
	for i, w := range ws[:2] {
		if wr, rd := w.Peek(0); wr || rd != 0 {
			t.Fatalf("word %d not rolled back: (%v, %d)", i, wr, rd)
		}
	}
	if wr, _ := ws[2].Peek(0); !wr {
		t.Fatal("foreign write lock disturbed by failed read train")
	}
	// Once the writer leaves, the same train succeeds.
	ws[2].ReleaseWrite(0)
	if err := AcquireReadTrain(1, ws, DefaultTries); err != nil {
		t.Fatal(err)
	}
	ReleaseReadTrain(1, ws)
}

func TestWriteTrainsExcludeEachOtherUnderContention(t *testing.T) {
	ws, f := trainWords(4, 4)
	var inCrit atomic.Int64
	var acquired atomic.Int64
	f.Run(func(r rma.Rank) {
		ls := make([]TrainLock, len(ws))
		for i, w := range ws {
			ls[i] = TrainLock{Word: w}
		}
		for i := 0; i < 50; i++ {
			vers, err := AcquireWriteTrain(r, ls, 100)
			if err != nil {
				continue
			}
			if inCrit.Add(1) != 1 {
				t.Error("two trains holding the full word set")
			}
			inCrit.Add(-1)
			acquired.Add(1)
			ReleaseWriteTrain(r, ws, vers)
		}
	})
	if acquired.Load() == 0 {
		t.Fatal("no train ever acquired the word set")
	}
	for i, w := range ws {
		if wr, rd := w.Peek(0); wr || rd != 0 {
			t.Fatalf("word %d not clean after contention: (%v, %d)", i, wr, rd)
		}
	}
}

func TestTrainSpanningWindowsPanics(t *testing.T) {
	f := rma.New(2)
	w1 := Word{Win: f.NewWordWin(2), Target: 0, Idx: 1}
	w2 := Word{Win: f.NewWordWin(2), Target: 1, Idx: 1}
	defer func() {
		if recover() == nil {
			t.Error("mixed-window train did not panic")
		}
	}()
	_, _ = AcquireWriteTrain(0, []TrainLock{{Word: w1}, {Word: w2}}, 4)
}

func TestReadersWritersInterleaved(t *testing.T) {
	w, f := word(8)
	var shared int64 // guarded by w
	var mu sync.Mutex
	var writes int
	f.Run(func(r rma.Rank) {
		for i := 0; i < 100; i++ {
			if int(r)%2 == 0 {
				if err := w.TryAcquireWrite(r, 100_000); err != nil {
					continue
				}
				shared++
				w.ReleaseWrite(r)
				mu.Lock()
				writes++
				mu.Unlock()
			} else {
				if err := w.TryAcquireRead(r, 100_000); err != nil {
					continue
				}
				_ = shared
				w.ReleaseRead(r)
			}
		}
	})
	if int(shared) != writes {
		t.Fatalf("lost updates: shared = %d, writes = %d", shared, writes)
	}
}

// raw reads the lock word value directly for version assertions.
func raw(w Word) uint64 { return w.Win.Load(w.Target, w.Target, w.Idx) }

func TestWriteUnlockBumpsVersion(t *testing.T) {
	w, _ := word(1)
	if v := Version(raw(w)); v != 0 {
		t.Fatalf("fresh word version = %d, want 0", v)
	}
	for i := 1; i <= 3; i++ {
		if err := w.TryAcquireWrite(0, DefaultTries); err != nil {
			t.Fatal(err)
		}
		if !WriteHeld(raw(w)) {
			t.Fatal("write bit not set while held")
		}
		if v := Version(raw(w)); v != uint64(i-1) {
			t.Fatalf("version moved during hold: %d, want %d", v, i-1)
		}
		w.ReleaseWrite(0)
		if v := Version(raw(w)); v != uint64(i) {
			t.Fatalf("after release %d: version = %d", i, v)
		}
	}
	// Read lock/unlock cycles must not move the version.
	if err := w.TryAcquireRead(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	w.ReleaseRead(0)
	if v := Version(raw(w)); v != 3 {
		t.Fatalf("read cycle moved version to %d", v)
	}
}

func TestScalarLockingWorksAtNonzeroVersions(t *testing.T) {
	w, _ := word(1)
	// Advance the version, then re-run the basic protocol on top of it.
	for i := 0; i < 5; i++ {
		if err := w.TryAcquireWrite(0, DefaultTries); err != nil {
			t.Fatal(err)
		}
		w.ReleaseWrite(0)
	}
	if err := w.TryAcquireRead(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	if err := w.TryAcquireWrite(0, 4); err != ErrContended {
		t.Fatalf("writer under reader at version 5: %v", err)
	}
	w.ReleaseRead(0)
	if err := w.TryAcquireWrite(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	if err := w.TryAcquireRead(0, 4); err != ErrContended {
		t.Fatalf("reader under writer at version 5: %v", err)
	}
	w.ReleaseWrite(0)
	if v := Version(raw(w)); v != 6 {
		t.Fatalf("version = %d, want 6", v)
	}
}

func TestTrainsLearnNonzeroVersions(t *testing.T) {
	ws, _ := trainWords(3, 2)
	// Put every word at a different version so the trains' version-0 guesses
	// are all wrong and must be corrected from CAS results.
	for i, w := range ws {
		for n := 0; n <= i; n++ {
			if err := w.TryAcquireWrite(0, DefaultTries); err != nil {
				t.Fatal(err)
			}
			w.ReleaseWrite(0)
		}
	}
	before := make([]uint64, len(ws))
	for i, w := range ws {
		before[i] = Version(raw(w))
	}
	// Read train: no version movement.
	if err := AcquireReadTrain(0, ws, DefaultTries); err != nil {
		t.Fatal(err)
	}
	ReleaseReadTrain(0, ws)
	for i, w := range ws {
		if got := Version(raw(w)); got != before[i] {
			t.Fatalf("word %d: read train moved version %d -> %d", i, before[i], got)
		}
	}
	// Write train; release bumps every word once.
	ls := make([]TrainLock, len(ws))
	for i, w := range ws {
		ls[i] = TrainLock{Word: w}
	}
	vers, err := AcquireWriteTrain(0, ls, DefaultTries)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if vers[i] != before[i] {
			t.Fatalf("word %d: train reported version %d, want %d", i, vers[i], before[i])
		}
		if got := Version(raw(w)); got != before[i] || !WriteHeld(raw(w)) {
			t.Fatalf("word %d mid-hold: version %d (want %d), held %v", i, got, before[i], WriteHeld(raw(w)))
		}
	}
	ReleaseWriteTrain(0, ws, vers)
	for i, w := range ws {
		if got := Version(raw(w)); got != before[i]+1 {
			t.Fatalf("word %d: release train version %d, want %d", i, got, before[i]+1)
		}
		if wr, rd := w.Peek(0); wr || rd != 0 {
			t.Fatalf("word %d not free after release train: (%v, %d)", i, wr, rd)
		}
	}
}

func TestWriteTrainRollbackPreservesVersion(t *testing.T) {
	ws, _ := trainWords(3, 1)
	// Give word 0 a nonzero version, block word 1 with a foreign reader.
	if err := ws[0].TryAcquireWrite(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	ws[0].ReleaseWrite(0)
	if err := ws[1].TryAcquireRead(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	ls := []TrainLock{{Word: ws[0]}, {Word: ws[1]}, {Word: ws[2]}}
	if _, err := AcquireWriteTrain(0, ls, 4); err != ErrContended {
		t.Fatalf("train over a held word: err = %v, want ErrContended", err)
	}
	// Rollback is not a write-unlock: versions unchanged, words free.
	if v := Version(raw(ws[0])); v != 1 {
		t.Fatalf("word 0 version after rollback = %d, want 1", v)
	}
	if v := Version(raw(ws[2])); v != 0 {
		t.Fatalf("word 2 version after rollback = %d, want 0", v)
	}
	if wr, rd := ws[2].Peek(0); wr || rd != 0 {
		t.Fatalf("word 2 not rolled back to free: (%v, %d)", wr, rd)
	}
}

func TestVersionsMonotonicUnderContention(t *testing.T) {
	w, f := word(8)
	var acquired atomic.Int64
	f.Run(func(r rma.Rank) {
		last := uint64(0)
		for i := 0; i < 100; i++ {
			cur := w.Win.Load(r, w.Target, w.Idx)
			if v := Version(cur); v < last {
				t.Errorf("version went backwards: %d after %d", v, last)
			} else {
				last = v
			}
			if err := w.TryAcquireWrite(r, 10_000); err != nil {
				continue
			}
			acquired.Add(1)
			w.ReleaseWrite(r)
		}
	})
	n := acquired.Load()
	if n == 0 {
		t.Fatal("no writer ever acquired the lock")
	}
	if v := Version(raw(w)); v != uint64(n) {
		t.Fatalf("final version %d, want one bump per acquisition (%d)", v, n)
	}
}

func TestReleaseTrainWithVersionsConvergesInOneRound(t *testing.T) {
	ws, f := trainWords(3, 2)
	// Put every word at a nonzero version so version-0 guesses are wrong.
	for _, w := range ws {
		if err := w.TryAcquireWrite(0, DefaultTries); err != nil {
			t.Fatal(err)
		}
		w.ReleaseWrite(0)
	}
	ls := make([]TrainLock, len(ws))
	for i, w := range ws {
		ls[i] = TrainLock{Word: w}
	}
	// Origin 1 makes every CAS remote, so AtomicBatches counts the rounds.
	vers, err := AcquireWriteTrain(1, ls, DefaultTries)
	if err != nil {
		t.Fatal(err)
	}
	f.ResetCounters()
	ReleaseWriteTrain(1, ws, vers)
	s := f.CounterSnapshot(1)
	if want := int64(2); s.AtomicBatches != want { // one train per remote owner rank
		t.Fatalf("seeded release used %d trains, want %d (one round per rank)", s.AtomicBatches, want)
	}
	// The unseeded release at nonzero versions needs a learning round.
	if _, err := AcquireWriteTrain(1, ls, DefaultTries); err != nil {
		t.Fatal(err)
	}
	f.ResetCounters()
	ReleaseWriteTrain(1, ws, nil)
	s = f.CounterSnapshot(1)
	if want := int64(4); s.AtomicBatches != want {
		t.Fatalf("unseeded release used %d trains, want %d (two rounds per rank)", s.AtomicBatches, want)
	}
	for i, w := range ws {
		if wr, rd := w.Peek(0); wr || rd != 0 {
			t.Fatalf("word %d not free after releases: (%v, %d)", i, wr, rd)
		}
	}
}

func TestMirrorTrainLockstep(t *testing.T) {
	f := rma.New(3)
	win := f.NewWordWin(8)
	words := []Word{
		{Win: win, Target: 1, Idx: 2},
		{Win: win, Target: 2, Idx: 5},
	}
	// Follower words sit free at version 7 (lockstep with a primary at 7).
	for _, w := range words {
		win.Store(0, w.Target, w.Idx, 7<<versionShift)
	}
	vers := []uint64{7, 7}
	held := AcquireMirrorTrain(0, words, vers)
	for i, h := range held {
		if !h {
			t.Fatalf("follower %d not marked despite lockstep", i)
		}
		if got := raw(words[i]); got != 7<<versionShift|writeBit {
			t.Fatalf("follower %d word = %#x after mark", i, got)
		}
	}
	ReleaseMirrorTrain(0, words, vers)
	for i := range words {
		got := raw(words[i])
		if WriteHeld(got) || Version(got) != 8 {
			t.Fatalf("follower %d word = %#x after release, want free at version 8", i, got)
		}
	}
}

func TestMirrorTrainDropsOutOfLockstepFollowers(t *testing.T) {
	f := rma.New(2)
	win := f.NewWordWin(8)
	words := []Word{
		{Win: win, Target: 1, Idx: 0}, // in lockstep at 4
		{Win: win, Target: 1, Idx: 1}, // ahead: re-seeded at version 9
		{Win: win, Target: 1, Idx: 2}, // already marked by a (protocol-violating) writer
	}
	win.Store(0, 1, 0, 4<<versionShift)
	win.Store(0, 1, 1, 9<<versionShift)
	win.Store(0, 1, 2, 4<<versionShift|writeBit)
	held := AcquireMirrorTrain(0, words, []uint64{4, 4, 4})
	if !held[0] || held[1] || held[2] {
		t.Fatalf("held = %v, want [true false false]", held)
	}
	// Only the marked follower releases; the dropped ones are untouched.
	ReleaseMirrorTrain(0, words[:1], []uint64{4})
	if got := raw(words[0]); Version(got) != 5 || WriteHeld(got) {
		t.Fatalf("follower 0 word = %#x, want free at version 5", got)
	}
	if got := raw(words[1]); got != 9<<versionShift {
		t.Fatalf("dropped follower 1 word changed to %#x", got)
	}
}

func TestMirrorTrainVersionWrap(t *testing.T) {
	f := rma.New(1)
	win := f.NewWordWin(2)
	w := Word{Win: win, Target: 0, Idx: 0}
	top := uint64(1<<versionBits - 1)
	win.Store(0, 0, 0, top<<versionShift)
	if held := AcquireMirrorTrain(0, []Word{w}, []uint64{top}); !held[0] {
		t.Fatal("mark at the top version failed")
	}
	ReleaseMirrorTrain(0, []Word{w}, []uint64{top})
	if got := raw(w); got != 0 {
		t.Fatalf("word = %#x after wrap, want 0 (version wrapped inside its field)", got)
	}
}
