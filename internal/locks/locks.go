// Package locks implements the scalable two-phase reader-writer locking of
// GDI-RMA (§5.6 of the paper). One 64-bit lock word guards each vertex:
//
//	bit  63      write bit (exclusively held)
//	bits 32..62  version counter, bumped by every write-unlock
//	bit  31      stub bit: the guarded block is a migration forwarding stub
//	bits  0..30  reader count
//
// All acquisition and release is performed with remote CAS on the word,
// batched into one vectored train per owner rank. Every train is seeded with
// the version its caller last saw each word at, so an uncontended lock or
// release costs one round per owner rank when the seed is right
// and two when it is not: the failed CAS reports the word, and the second
// round uses it. One train engine runs every lock operation, each a seed, a
// step rule and a round budget: the "Life of a lock train" section of
// ARCHITECTURE.md walks it through and tabulates the rules.
//
// Transactions take no shared locks: they read under the version counter
// and write-lock at commit. The reader count and the read trains remain for
// the benchmark module's lock probes, which time them.
//
// The version counter is the foundation of the optimistic read protocol
// (§3.8, §5.2): holder content only changes while the write bit is set, and every
// write-unlock bumps the version, so a reader that observes the same version
// with the write bit clear before and after a fetch holds an untorn copy,
// and a cached copy stamped with version v is current exactly while the word
// still carries v. Versions are per word and strictly monotonic (releases
// only increment; the 31-bit counter wraps after 2^31 writes per vertex,
// far beyond any transaction lifetime this simulation runs).
//
// The stub bit says what the guarded block is, so a reader that loads the
// word before fetching knows whether the block is a forwarding stub (§5.6's
// stamp train doubles as a type probe). Only a write release changes it
// (StubMark), and only the two owners of forwarding stubs ask it to: live
// migration publishes a stub at each vacated home and clears the bit of a
// home its vertex moves back into, and the deletion that retires a stub
// clears it before the block is freed. Every other lock operation computes
// its new word from the observed one and carries the bit through. A free
// word therefore has the bit exactly when its block holds a stub. The
// seeded trains guess the bit clear, so on a stub word their first round
// learns it and a second takes it; on every other word they still converge
// in one.
//
// Acquisition is bounded: after maxTries failed CAS/recheck rounds the
// attempt fails and the caller (the transaction layer) must abort the
// transaction with a transaction-critical error. This bounded try-lock is
// what produces the paper's small failed-transaction percentages under
// write-heavy load, and it also rules out distributed deadlock without a
// lock manager.
package locks

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/gdi-go/gdi/internal/fabric"
)

// writeBit marks an exclusively held word.
const writeBit uint64 = 1 << 63

// stubBit marks a word whose block is a forwarding stub.
const stubBit uint64 = 1 << 31

// readerMask extracts the reader count.
const readerMask uint64 = stubBit - 1

// The version counter occupies bits 32..62.
const (
	versionShift        = 32
	versionBits         = 31
	versionOne   uint64 = 1 << versionShift
	versionMask  uint64 = (1<<versionBits - 1) << versionShift
)

// Version extracts the version counter from a raw lock word.
func Version(word uint64) uint64 { return (word & versionMask) >> versionShift }

// WriteHeld reports whether a raw lock word is exclusively held.
func WriteHeld(word uint64) bool { return word&writeBit != 0 }

// Readers extracts the reader count from a raw lock word.
func Readers(word uint64) uint32 { return uint32(word & readerMask) }

// Stub reports whether a raw lock word marks its block as a forwarding stub.
func Stub(word uint64) bool { return word&stubBit != 0 }

// StubMark is a write release's choice for a word's stub bit.
type StubMark uint8

const (
	// StubKeep leaves the bit as the word carries it.
	StubKeep StubMark = iota
	// StubSet publishes the block as a forwarding stub.
	StubSet
	// StubClear publishes the block as no stub: a retired stub, or a former
	// home a vertex moved back into.
	StubClear
)

// apply returns word with its stub bit as m asks.
func (m StubMark) apply(word uint64) uint64 {
	switch m {
	case StubSet:
		return word | stubBit
	case StubClear:
		return word &^ stubBit
	}
	return word
}

// bumpVersion increments the version field of word, wrapping inside the
// field so an overflow cannot spill into the write bit.
func bumpVersion(word uint64) uint64 {
	return (word &^ versionMask) | ((word + versionOne) & versionMask)
}

// ErrContended is returned when a bounded acquisition gives up. Transactions
// translate it into a transaction-critical error.
var ErrContended = errors.New("locks: lock acquisition exceeded retry budget")

// DefaultTries is the default retry budget for bounded acquisition.
const DefaultTries = 64

// Word addresses one lock word inside an RMA word window.
type Word struct {
	Win    fabric.WordWin
	Target fabric.Rank
	Idx    int
}

// freeAt is the word of a lock free at version ver, with no readers: the
// value a seeded train's first CAS assumes.
func freeAt(ver uint64) uint64 { return ver << versionShift & versionMask }

// The scalar lock operations are one-word trains: every lock kind has one
// body, the train's, and a scalar caller pays what a one-word train pays.

// TryAcquireRead takes a shared lock, retrying at most tries rounds.
func (w Word) TryAcquireRead(origin fabric.Rank, tries int) error {
	return AcquireReadTrain(origin, []Word{w}, tries)
}

// ReleaseRead drops a shared lock.
func (w Word) ReleaseRead(origin fabric.Rank) { ReleaseReadTrain(origin, []Word{w}) }

// TryAcquireWrite takes the exclusive lock: it succeeds only when no reader
// and no writer holds the word. The version field is preserved across
// acquisition (it only moves on release).
func (w Word) TryAcquireWrite(origin fabric.Rank, tries int) error {
	_, err := AcquireWriteTrain(origin, []TrainLock{{Word: w}}, tries)
	return err
}

// ReleaseWrite drops the exclusive lock and bumps the version counter — the
// signal that tells version-validated readers their cached copies of the
// guarded holder are stale.
func (w Word) ReleaseWrite(origin fabric.Rank) { ReleaseWriteTrain(origin, []Word{w}, nil) }

// Peek returns the word's writer flag and reader count (diagnostics and
// tests).
func (w Word) Peek(origin fabric.Rank) (writer bool, readers uint32) {
	cur := w.Win.Load(origin, w.Target, w.Idx)
	return cur&writeBit != 0, uint32(cur & readerMask)
}

// Stamp atomically loads the raw lock word. Combined with Version and
// WriteHeld it is the seqlock primitive of validated reads: load, read the
// guarded content, load again — an unchanged free stamp proves the copy
// untorn.
func (w Word) Stamp(origin fabric.Rank) uint64 {
	return w.Win.Load(origin, w.Target, w.Idx)
}

// Lock trains: the write-side batching of §5.6. A transaction's commit
// touches one lock word per written vertex; acquiring them with scalar CAS
// costs one remote atomic round-trip each. A train sorts the words globally
// (rank, then index — a total order shared by all ranks, so concurrent
// trains cannot deadlock even when acquisition blocks) and issues all CAS
// for one owner rank as a single vectored train, paying the injected remote
// latency once per rank per round instead of once per word. All words of a
// train must address the same window (in GDA they all live in the block
// store's system window).
//
// Lock words carry versions, so a train cannot know a word's value; it
// learns it from failed CAS results. Every train is therefore seeded with
// the version its caller last saw each word at (0 when it saw none): a
// correct seed takes the word in the first round, one round per owner rank,
// and a wrong one costs exactly the round whose CAS result corrects it. The
// seeded round stands in for the load a scalar acquisition starts with, so
// an acquisition's budget of tries counts the rounds after it.

// TrainLock is one element of a write-lock train.
type TrainLock struct {
	Word Word
	// Ver seeds the train: the version the caller saw the word at.
	Ver uint64
}

// checkVers verifies that a seeded train carries one version per word.
func checkVers(kind string, words int, vers []uint64) {
	if vers != nil && len(vers) != words {
		panic(fmt.Sprintf("locks: %s train of %d words with %d versions", kind, words, len(vers)))
	}
}

// seedAt is the free word at the version vers gives word i (0 when vers is
// nil).
func seedAt(vers []uint64, i int) uint64 {
	if vers == nil {
		return 0
	}
	return freeAt(vers[i])
}

// untilDone is the round budget of a train that cannot give up.
const untilDone = math.MaxInt

// train is one lock operation's words in the global order, each with the
// CAS its next round issues, and the buffer its rounds group a rank's CASes
// in. Trains are pooled, as the read path pools its block.Trains: newTrain
// takes one and free puts it back, so a lock operation allocates neither.
type train struct {
	words []trainWord
	batch []fabric.CASOp
}

type trainWord struct {
	Word
	src  int          // the word's position in the caller's slice
	op   fabric.CASOp // Old: the expected word, once done the word installed
	done bool
}

var trainPool = sync.Pool{New: func() any { return new(train) }}

// newTrain sorts n words into the global order, each expected at seed(i).
func newTrain(n int, word func(i int) Word, seed func(i int) uint64) *train {
	t := trainPool.Get().(*train)
	t.words = slices.Grow(t.words[:0], n)[:n]
	for i := range t.words {
		w := word(i)
		if w.Win != word(0).Win {
			t.free()
			panic("locks: lock train spans multiple windows")
		}
		t.words[i] = trainWord{Word: w, src: i, op: fabric.CASOp{Idx: w.Idx, Old: seed(i)}}
	}
	slices.SortFunc(t.words, func(a, b trainWord) int {
		return cmp.Or(cmp.Compare(a.Target, b.Target), cmp.Compare(a.Idx, b.Idx))
	})
	return t
}

// free returns t to the pool; t must not be used afterwards.
func (t *train) free() {
	clear(t.words) // drop the windows the words name
	trainPool.Put(t)
}

// rounds issues up to max CAS rounds, one CASBatch per owner rank per round
// over the words not done, and returns how many are still not done. Each
// CAS expects the word's op.Old and installs step(i, op.Old), i the word's
// position in the caller's slice. A swap that changes the word completes
// it, a swap that does not is a probe, and a failed CAS learns the word it
// reports. Steps are taken as soon as a word is learned, so a step that
// panics does so right after the CAS that revealed the word.
func (t *train) rounds(origin fabric.Rank, max int, step func(i int, cur uint64) uint64) (left int) {
	ws := t.words
	for k := range ws {
		if !ws[k].done {
			ws[k].op.New = step(ws[k].src, ws[k].op.Old)
			left++
		}
	}
	for round := 0; round < max && left > 0; round++ {
		for lo, hi := 0, 0; lo < len(ws); lo = hi {
			batch := t.batch[:0]
			for hi = lo; hi < len(ws) && ws[hi].Target == ws[lo].Target; hi++ {
				if !ws[hi].done {
					batch = append(batch, ws[hi].op)
				}
			}
			t.batch = batch
			if len(batch) == 0 {
				continue
			}
			k := lo
			for _, r := range ws[lo].Win.CASBatch(origin, ws[lo].Target, batch) {
				for ws[k].done { // done before this round: not in the batch
					k++
				}
				w := &ws[k]
				switch {
				case !r.Swapped:
					w.op.Old, w.op.New = r.Prev, step(w.src, r.Prev)
				case w.op.New != w.op.Old:
					w.op.Old, w.done = w.op.New, true
					left--
				}
				k++
			}
		}
	}
	return left
}

// flip swaps done and not done: what an acquisition took is what its undo
// must visit.
func (t *train) flip() {
	for k := range t.words {
		t.words[k].done = !t.words[k].done
	}
}

// acquireWrite runs a write acquisition's tries+1 rounds over ls.
func acquireWrite(origin fabric.Rank, ls []TrainLock, tries int) (t *train, left int) {
	t = newTrain(len(ls), func(i int) Word { return ls[i].Word }, func(i int) uint64 { return freeAt(ls[i].Ver) })
	return t, t.rounds(origin, tries+1, func(_ int, cur uint64) uint64 {
		if cur&(writeBit|readerMask) == 0 {
			return cur | writeBit
		}
		return cur // probe: readers or a writer hold it
	})
}

// AcquireWriteTrain write-locks every word of the train, issuing one
// vectored CAS train per owner rank per retry round. Acquisition is all or
// nothing: if any word cannot be taken within the retry budget, every lock
// the train did acquire is rolled back to its pre-train state (versions
// untouched — a rollback is not a write-unlock) and (nil, ErrContended) is
// returned.
//
// On success it returns the version of every held word, aligned with ls.
// Passing those versions to ReleaseWriteTrain lets the release converge in
// one CAS round per rank instead of re-learning the values the acquisition
// already knew.
func AcquireWriteTrain(origin fabric.Rank, ls []TrainLock, tries int) ([]uint64, error) {
	if len(ls) == 0 {
		return nil, nil
	}
	t, left := acquireWrite(origin, ls, tries)
	defer t.free()
	if left == 0 {
		vers := make([]uint64, len(ls))
		for _, w := range t.words {
			vers[w.src] = Version(w.op.Old)
		}
		return vers, nil
	}
	// Held words are stable, so one round must roll every one of them back.
	t.flip()
	if t.rounds(origin, 1, func(_ int, cur uint64) uint64 { return cur &^ writeBit }) > 0 {
		panic("locks: write-train rollback of a word not exclusively held")
	}
	return nil, ErrContended
}

// ReleaseWriteTrain drops exclusively held locks and bumps their version
// counters, one vectored CAS train per owner rank per round. Every word must
// be write-held by the caller. vers, when non-nil, seeds the train with the
// held words' versions (aligned with words, as returned by
// AcquireWriteTrain): a held word's value is stable, so correct versions
// make the train converge in a single round per rank. With vers nil the
// first round guesses version 0 and any word whose guess was wrong is
// released on the second round. Stub bits are kept.
func ReleaseWriteTrain(origin fabric.Rank, words []Word, vers []uint64) {
	ReleaseWriteTrainMarked(origin, words, vers, nil)
}

// ReleaseWriteTrainMarked is ReleaseWriteTrain that also publishes each
// word's stub bit as marks asks (aligned with words; nil keeps every bit).
// The first round guesses the bit set on a word marked StubClear — the
// stubs a caller retires or reclaims — and clear on the others.
func ReleaseWriteTrainMarked(origin fabric.Rank, words []Word, vers []uint64, marks []StubMark) {
	checkVers("release", len(words), vers)
	if marks != nil && len(marks) != len(words) {
		panic(fmt.Sprintf("locks: release train of %d words with %d stub marks", len(words), len(marks)))
	}
	if len(words) == 0 {
		return
	}
	mark := func(i int) StubMark {
		if marks == nil {
			return StubKeep
		}
		return marks[i]
	}
	t := newTrain(len(words), func(i int) Word { return words[i] }, func(i int) uint64 {
		if mark(i) == StubClear {
			return writeBit | stubBit | seedAt(vers, i)
		}
		return writeBit | seedAt(vers, i)
	})
	defer t.free()
	// The hook must see every word still write-held at its pre-bump
	// version, so fire it for the whole train before any CAS round.
	for _, w := range t.words {
		runReleaseHook(w.Win, w.Target, w.Idx)
	}
	t.rounds(origin, untilDone, func(i int, cur uint64) uint64 {
		if cur&writeBit == 0 {
			panic("locks: ReleaseWriteTrain without holding the write lock")
		}
		return mark(i).apply(bumpVersion(cur &^ writeBit))
	})
}

// AcquireWriteTrainEach is the best-effort sibling of AcquireWriteTrain for
// background work (live vertex migration): same acquisition rounds, but a
// word still contended when the budget runs out is simply not taken — the
// words that were acquired stay held, nothing is rolled back. It returns,
// aligned with ls, each word's held flag and (for held words) its version;
// the caller releases the held words with ReleaseWriteTrain when done. A
// migrator uses this to skip busy vertices instead of aborting a whole
// migration batch on one hot lock.
func AcquireWriteTrainEach(origin fabric.Rank, ls []TrainLock, tries int) (vers []uint64, heldOut []bool) {
	vers = make([]uint64, len(ls))
	heldOut = make([]bool, len(ls))
	if len(ls) == 0 {
		return vers, heldOut
	}
	t, _ := acquireWrite(origin, ls, tries)
	defer t.free()
	for _, w := range t.words {
		if w.done {
			heldOut[w.src] = true
			vers[w.src] = Version(w.op.Old)
		}
	}
	return vers, heldOut
}

// Mirror trains: the follower-word half of the replica lockstep protocol.
// Each follower copy of a replicated vertex has its own version word, kept in
// lockstep with the primary's: follower word free at version v means the
// follower content equals the primary content at v. The committer (which
// already holds the primary's write lock, so no other mirror train can race
// it on the same vertex) write-marks the follower words, lands the follower
// payload, releases the primary (bumping it to v+1), and only then releases
// the follower words to v+1 — primary-then-follower order, so a reader that
// validates against either word never accepts a follower payload newer than
// the primary version it proved.

// AcquireMirrorTrain write-marks follower version words, one vectored CAS
// train per owner rank, one round. vers carries each word's expected current
// version (the primary's pre-commit version, which lockstep guarantees the
// follower shares). Unlike a lock acquisition there is no retry: the primary
// write lock already excludes every competing mirror train, so a CAS that
// fails means the follower is not in lockstep (it was just seeded, dropped,
// or re-seeded against a different version) — the caller drops that follower
// from the fan-out instead of waiting. Returns the per-word marked flags,
// aligned with words.
func AcquireMirrorTrain(origin fabric.Rank, words []Word, vers []uint64) []bool {
	return mirrorTrain(origin, words, vers, 0, func(_ int, cur uint64) uint64 { return cur | writeBit })
}

// mirrorTrain runs one round over follower words, each expected at
// freeAt(vers[i]) | held and moved by step; it returns the per-word swapped
// flags, aligned with words.
func mirrorTrain(origin fabric.Rank, words []Word, vers []uint64, held uint64, step func(i int, cur uint64) uint64) []bool {
	swapped := make([]bool, len(words))
	if len(words) == 0 {
		return swapped
	}
	if len(vers) != len(words) {
		panic(fmt.Sprintf("locks: mirror train of %d words with %d versions", len(words), len(vers)))
	}
	t := newTrain(len(words), func(i int) Word { return words[i] }, func(i int) uint64 { return freeAt(vers[i]) | held })
	defer t.free()
	t.rounds(origin, 1, step)
	for _, w := range t.words {
		swapped[w.src] = w.done
	}
	return swapped
}

// ReleaseMirrorTrain completes the fan-out on follower words AcquireMirrorTrain
// marked: each word moves from write-marked at version v to free at v+1, the
// same bump the primary's release already performed. A failed CAS means the
// mark was stolen: when a vertex's primary rank dies while a (surviving)
// committer is mid-fan-out, promotion forcibly re-seeds the marked follower
// words — nothing would ever complete the fan-out if the committer had died
// too, and a live committer finding its mark gone simply leaves the word to
// its new owner. No release hook fires: snapshot cuts pin primaries, so
// follower blocks never carry retirement obligations.
func ReleaseMirrorTrain(origin fabric.Rank, words []Word, vers []uint64) {
	mirrorTrain(origin, words, vers, writeBit, func(_ int, cur uint64) uint64 { return bumpVersion(cur &^ writeBit) })
}

// SeedMirrorWord initializes a follower copy's version word. Seeding runs
// under the primary's write lock at version v and writes content equal to
// what the primary's pending release will publish as v+1, so the word enters
// lockstep as free at v+1 (the same bump the primary's release performs).
// Promotion reuses it to forcibly reset a follower word that a committer on a
// now-dead rank left write-marked mid-fan-out: nothing will ever complete
// that fan-out, so an unconditional store is the only way the word can move
// again.
func SeedMirrorWord(origin fabric.Rank, w Word, primaryVer uint64) {
	w.Win.Store(origin, w.Target, w.Idx, bumpVersion(primaryVer<<versionShift))
}

// BumpMirrorTrain moves lockstep follower words from free at v to free at
// v+1 with one best-effort CAS train per owner rank — the follower half of a
// content-preserving write release (an aborted transaction, a skipped
// migration, a bailed replica seed). The primary's release bumped its version
// without changing its content, so a follower in lockstep stays in lockstep
// by tracking the bump. A word that fails the CAS was already out of lockstep
// (or is mid-mark by a racing committer) and is left alone: its next replica
// read simply fails version validation and falls back.
func BumpMirrorTrain(origin fabric.Rank, words []Word, vers []uint64) {
	mirrorTrain(origin, words, vers, 0, func(_ int, cur uint64) uint64 { return bumpVersion(cur) })
}

// AcquireReadTrain is AcquireReadTrainAt seeded with version 0, for callers
// that have seen none of the words.
func AcquireReadTrain(origin fabric.Rank, words []Word, tries int) error {
	_, err := AcquireReadTrainAt(origin, words, nil, tries)
	return err
}

// AcquireReadTrainAt takes shared locks on every word, one vectored CAS
// train per owner rank per round, seeded with vers (aligned with words; nil
// seeds version 0). Words observed under a writer are probed with a
// value-preserving CAS until the writer leaves or the budget runs out. All
// or nothing: on ErrContended every read lock the train took is released.
// On success it returns, aligned with words, each word as the train's CAS
// left it. A read-held word cannot change version, so that is the word's
// stamp for as long as the lock is held.
func AcquireReadTrainAt(origin fabric.Rank, words []Word, vers []uint64, tries int) ([]uint64, error) {
	checkVers("read", len(words), vers)
	if len(words) == 0 {
		return nil, nil
	}
	t := newTrain(len(words), func(i int) Word { return words[i] }, func(i int) uint64 { return seedAt(vers, i) })
	defer t.free()
	if t.rounds(origin, tries+1, func(_ int, cur uint64) uint64 {
		if cur&writeBit != 0 {
			return cur // probe: a writer holds the word
		}
		return cur + 1
	}) == 0 {
		stamps := make([]uint64, len(words))
		for _, w := range t.words {
			stamps[w.src] = w.op.Old
		}
		return stamps, nil
	}
	// Release what the train took, seeded as ReleaseReadTrainAt seeds it.
	t.flip()
	for k := range t.words {
		t.words[k].op.Old = 1 | freeAt(Version(t.words[k].op.Old))
	}
	t.rounds(origin, untilDone, releaseRead)
	return nil, ErrContended
}

// ReleaseReadTrain is ReleaseReadTrainAt seeded with version 0.
func ReleaseReadTrain(origin fabric.Rank, words []Word) { ReleaseReadTrainAt(origin, words, nil) }

// ReleaseReadTrainAt drops shared locks, one vectored CAS train per owner
// rank per round, seeded with the versions the locks were granted at
// (aligned with words; nil seeds version 0). The first round assumes the
// caller is each word's only reader; reader churn is learned from the CAS
// results and retried until every lock is dropped.
func ReleaseReadTrainAt(origin fabric.Rank, words []Word, vers []uint64) {
	checkVers("read release", len(words), vers)
	if len(words) == 0 {
		return
	}
	t := newTrain(len(words), func(i int) Word { return words[i] }, func(i int) uint64 { return 1 | seedAt(vers, i) })
	defer t.free()
	t.rounds(origin, untilDone, releaseRead)
}

// releaseRead is the step of a read release: drop one reader.
func releaseRead(_ int, cur uint64) uint64 {
	if cur&readerMask == 0 {
		panic("locks: ReleaseReadTrain with zero reader count")
	}
	return cur - 1
}
