package locks

import (
	"testing"

	"github.com/gdi-go/gdi/internal/rma"
)

// seededWords returns a train of 2 words on each of 3 ranks, every word
// at a different nonzero version, so a version-0 guess is wrong for all of
// them, plus those versions. Trains are issued from rank 1, so ranks 0 and 2
// are remote and AtomicBatches counts rounds × 2.
func seededWords(t *testing.T) ([]Word, []uint64, *rma.Fabric) {
	t.Helper()
	ws, f := trainWords(3, 2)
	vers := make([]uint64, len(ws))
	for i, w := range ws {
		for n := 0; n <= i; n++ {
			if err := w.TryAcquireWrite(0, DefaultTries); err != nil {
				t.Fatal(err)
			}
			w.ReleaseWrite(0)
		}
		vers[i] = uint64(i + 1)
	}
	return ws, vers, f
}

// trains runs fn from rank 1 and returns the atomic trains and remote
// atomics it issued.
func trains(f *rma.Fabric, fn func()) (batches, atoms int64) {
	f.ResetCounters()
	fn()
	s := f.CounterSnapshot(1)
	return s.AtomicBatches, s.RemoteAtoms
}

// TestSeededTrainsConvergeInOneRoundPerRank: read lock, read release, write
// lock and write release, each seeded with the words' versions, take one
// CAS round per owner rank. The read train's stamps are the words as they
// stand after the acquisition.
func TestSeededTrainsConvergeInOneRoundPerRank(t *testing.T) {
	ws, vers, f := seededWords(t)
	const oneRound = 2 // remote owner ranks
	var stamps []uint64
	if n, _ := trains(f, func() {
		var err error
		if stamps, err = AcquireReadTrainAt(1, ws, vers, DefaultTries); err != nil {
			t.Fatal(err)
		}
	}); n != oneRound {
		t.Errorf("seeded read train: %d trains, want %d", n, oneRound)
	}
	for i, w := range ws {
		if stamps[i] != raw(w) || Version(stamps[i]) != vers[i] || Readers(stamps[i]) != 1 {
			t.Errorf("word %d: stamp %#x, word after acquisition %#x (version %d)", i, stamps[i], raw(w), vers[i])
		}
	}
	if n, _ := trains(f, func() { ReleaseReadTrainAt(1, ws, vers) }); n != oneRound {
		t.Errorf("seeded read release: %d trains, want %d", n, oneRound)
	}
	var held []uint64
	if n, _ := trains(f, func() {
		var err error
		if held, err = AcquireWriteTrain(1, seededLocks(ws, vers), DefaultTries); err != nil {
			t.Fatal(err)
		}
	}); n != oneRound {
		t.Errorf("seeded write train: %d trains, want %d", n, oneRound)
	}
	if n, _ := trains(f, func() { ReleaseWriteTrain(1, ws, held) }); n != oneRound {
		t.Errorf("seeded write release: %d trains, want %d", n, oneRound)
	}
	bump(vers)
	checkWords(t, ws, vers, false)
}

// TestWrongSeedsStillConverge: seeds one version behind cost each train
// exactly the round whose CAS results correct them, and leave the words as
// correct seeds would.
func TestWrongSeedsStillConverge(t *testing.T) {
	ws, vers, f := seededWords(t)
	const twoRounds = 4
	stale := make([]uint64, len(vers))
	for i, v := range vers {
		stale[i] = v - 1
	}
	var stamps []uint64
	if n, _ := trains(f, func() {
		var err error
		if stamps, err = AcquireReadTrainAt(1, ws, stale, DefaultTries); err != nil {
			t.Fatal(err)
		}
	}); n != twoRounds {
		t.Errorf("wrongly seeded read train: %d trains, want %d", n, twoRounds)
	}
	for i, w := range ws {
		if stamps[i] != raw(w) {
			t.Errorf("word %d: stamp %#x, word after acquisition %#x", i, stamps[i], raw(w))
		}
	}
	if n, _ := trains(f, func() { ReleaseReadTrainAt(1, ws, stale) }); n != twoRounds {
		t.Errorf("wrongly seeded read release: %d trains, want %d", n, twoRounds)
	}
	var held []uint64
	if n, _ := trains(f, func() {
		var err error
		if held, err = AcquireWriteTrain(1, seededLocks(ws, stale), DefaultTries); err != nil {
			t.Fatal(err)
		}
	}); n != twoRounds {
		t.Errorf("wrongly seeded write train: %d trains, want %d", n, twoRounds)
	}
	for i := range held {
		if held[i] != vers[i] {
			t.Fatalf("word %d: write train reported version %d, want %d", i, held[i], vers[i])
		}
	}
	if n, _ := trains(f, func() { ReleaseWriteTrain(1, ws, stale) }); n != twoRounds {
		t.Errorf("wrongly seeded write release: %d trains, want %d", n, twoRounds)
	}
	bump(vers)
	checkWords(t, ws, vers, false)
}

// TestOneWordWriteReleaseWithVersIsOneCAS: releasing a single remote word
// with its version is one CAS in one round trip, with no load first.
func TestOneWordWriteReleaseWithVersIsOneCAS(t *testing.T) {
	ws, vers, f := seededWords(t)
	w := ws[0] // on rank 0, remote from rank 1
	held, err := AcquireWriteTrain(1, []TrainLock{{Word: w, Ver: vers[0]}}, DefaultTries)
	if err != nil {
		t.Fatal(err)
	}
	if n, atoms := trains(f, func() { ReleaseWriteTrain(1, []Word{w}, held) }); n != 1 || atoms != 1 {
		t.Errorf("one-word release: %d remote atomics in %d trains, want 1 in 1", atoms, n)
	}
	if wr, _ := w.Peek(0); wr || Version(raw(w)) != vers[0]+1 {
		t.Fatalf("word after release: held %v at version %d, want free at %d", wr, Version(raw(w)), vers[0]+1)
	}
}

// TestStubBitRidesEveryLockOperation: a marked write release sets and clears
// the stub bit, a release without a mark keeps it, and every other lock
// operation — read and write trains, rollbacks, read releases —
// carries it through unchanged while the version moves as before. A stub
// word costs a seeded train the one round that learns the bit; a release
// marked StubClear guesses it and converges in one.
func TestStubBitRidesEveryLockOperation(t *testing.T) {
	ws, vers, f := seededWords(t)
	const oneRound, twoRounds = 2, 4
	set := make([]ReleaseMark, len(ws))
	for i := range set {
		set[i] = StubSet
	}
	held, err := AcquireWriteTrain(1, seededLocks(ws, vers), DefaultTries)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := trains(f, func() { ReleaseWriteTrainMarked(1, ws, held, set) }); n != oneRound {
		t.Errorf("release publishing stubs: %d trains, want %d", n, oneRound)
	}
	bump(vers)
	checkWords(t, ws, vers, true)

	// A stub word is one round more for a train seeded without the bit, and
	// keeps its bit through read locks, a write lock and a plain release.
	if n, _ := trains(f, func() {
		if _, err := AcquireReadTrainAt(1, ws, vers, DefaultTries); err != nil {
			t.Fatal(err)
		}
	}); n != twoRounds {
		t.Errorf("read train over stub words: %d trains, want %d", n, twoRounds)
	}
	ReleaseReadTrainAt(1, ws, vers)
	checkWords(t, ws, vers, true)
	if held, err = AcquireWriteTrain(1, seededLocks(ws, vers), DefaultTries); err != nil {
		t.Fatal(err)
	}
	ReleaseWriteTrain(1, ws, held)
	bump(vers)
	checkWords(t, ws, vers, true)
	if _, err := AcquireReadTrainAt(1, ws, vers, DefaultTries); err != nil {
		t.Fatal(err)
	}
	ReleaseReadTrainAt(1, ws, vers)
	checkWords(t, ws, vers, true)

	// A rolled-back train leaves the bit where it was.
	if err := ws[0].TryAcquireRead(0, DefaultTries); err != nil {
		t.Fatal(err)
	}
	if _, err := AcquireWriteTrain(1, seededLocks(ws, vers), 2); err == nil {
		t.Fatal("write train took a read-held word")
	}
	ws[0].ReleaseRead(0)
	checkWords(t, ws, vers, true)

	clearing := make([]ReleaseMark, len(ws))
	for i := range clearing {
		clearing[i] = StubClear
	}
	if held, err = AcquireWriteTrain(1, seededLocks(ws, vers), DefaultTries); err != nil {
		t.Fatal(err)
	}
	if n, _ := trains(f, func() { ReleaseWriteTrainMarked(1, ws, held, clearing) }); n != oneRound {
		t.Errorf("release retiring stubs: %d trains, want %d", n, oneRound)
	}
	bump(vers)
	checkWords(t, ws, vers, false)
}

// seededLocks is a write train over ws seeded with vers.
func seededLocks(ws []Word, vers []uint64) []TrainLock {
	ls := make([]TrainLock, len(ws))
	for i, w := range ws {
		ls[i] = TrainLock{Word: w, Ver: vers[i]}
	}
	return ls
}

func bump(vers []uint64) {
	for i := range vers {
		vers[i]++
	}
}

// checkWords fails unless every word is free at its version, with the stub
// bit as stub says.
func checkWords(t *testing.T, ws []Word, vers []uint64, stub bool) {
	t.Helper()
	for i, w := range ws {
		if got := raw(w); WriteHeld(got) || Readers(got) != 0 || Version(got) != vers[i] || Stub(got) != stub {
			t.Fatalf("word %d = %#x, want free at version %d with stub bit %v", i, got, vers[i], stub)
		}
	}
}
