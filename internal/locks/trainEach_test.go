package locks

import (
	"testing"

	"github.com/gdi-go/gdi/internal/rma"
)

// TestAcquireWriteTrainEachPartial: the best-effort train takes every free
// word, skips the contended ones without rolling back its successes, and the
// returned versions release cleanly in one round.
func TestAcquireWriteTrainEachPartial(t *testing.T) {
	f := rma.New(2)
	win := f.NewWordWin(8)
	word := func(target rma.Rank, idx int) Word { return Word{Win: win, Target: target, Idx: idx} }

	// Word (1,1) is pinned by a foreign reader; (0,2) by a writer.
	if err := word(1, 1).TryAcquireRead(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := word(0, 2).TryAcquireWrite(0, 4); err != nil {
		t.Fatal(err)
	}
	// Bump (1,3)'s version so the train has to learn a non-zero word.
	if err := word(1, 3).TryAcquireWrite(0, 4); err != nil {
		t.Fatal(err)
	}
	word(1, 3).ReleaseWrite(0)

	train := []TrainLock{
		{Word: word(0, 1)},
		{Word: word(1, 1)}, // blocked by the reader
		{Word: word(0, 2)}, // blocked by the writer
		{Word: word(1, 3)},
	}
	vers, held := AcquireWriteTrainEach(0, train, 8)
	if !held[0] || held[1] || !held[3] {
		t.Fatalf("held = %v, want [true false _ true]", held)
	}
	if held[2] {
		t.Fatal("train acquired a word another writer holds")
	}
	if vers[3] != 1 {
		t.Fatalf("version of (1,3) = %d, want 1", vers[3])
	}

	// The blocked words are untouched: reader count and writer bit intact.
	if w, r := word(1, 1).Peek(0); w || r != 1 {
		t.Fatalf("(1,1) disturbed: writer=%v readers=%d", w, r)
	}
	if w, _ := word(0, 2).Peek(0); !w {
		t.Fatal("(0,2) lost its writer bit")
	}

	// Release the held subset with the returned versions; everything is
	// acquirable again afterwards.
	var ws []Word
	var vs []uint64
	for i, h := range held {
		if h {
			ws = append(ws, train[i].Word)
			vs = append(vs, vers[i])
		}
	}
	ReleaseWriteTrain(0, ws, vs)
	for _, w := range []Word{word(0, 1), word(1, 3)} {
		if err := w.TryAcquireWrite(0, 4); err != nil {
			t.Fatalf("word not released: %v", err)
		}
		w.ReleaseWrite(0)
	}
	if got := Version(win.Load(0, 1, 3)); got != 3 {
		t.Fatalf("(1,3) version = %d after two release cycles, want 3", got)
	}
}
