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
// the version its caller last saw each word at, so an uncontended lock,
// upgrade or release costs one round per owner rank when the seed is right
// and two when it is not: the failed CAS reports the word, and the second
// round uses it.
//
// The version counter is the foundation of the optimistic read tier (§3.8,
// §5.2): holder content only changes while the write bit is set, and every
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
	"errors"
	"fmt"
	"sort"

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

// TryAcquireReadAt takes a shared lock only while the word carries version
// ver with the write bit and the stub bit clear: it is the speculative read
// lock of a vertex the caller expects at ver, and a stub is never a vertex.
// Its first CAS guesses a free word without readers, so an uncontended
// acquisition is one remote atomic; a failed CAS reports the word, and the
// attempt gives up, holding nothing, as soon as the word shows a writer, a
// stub or another version (a writer's release moves the version anyway).
// Reader churn is retried at most tries rounds. On success it returns the
// word as its CAS left it: a stamp at version ver that stays valid while the
// lock is held.
func (w Word) TryAcquireReadAt(origin fabric.Rank, ver uint64, tries int) (stamp uint64, ok bool) {
	cur := freeAt(ver)
	for i := 0; i < tries; i++ {
		if cur&(writeBit|stubBit) != 0 || Version(cur) != ver {
			return 0, false
		}
		prev, ok := w.Win.CAS(origin, w.Target, w.Idx, cur, cur+1)
		if ok {
			return cur + 1, true
		}
		cur = prev
	}
	return 0, false
}

// Peek returns the raw lock word (diagnostics and tests).
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
	// FromRead marks a word the caller already holds shared: the train
	// upgrades it (sole reader → writer, CAS 1→writeBit) instead of
	// acquiring it from free (CAS 0→writeBit).
	FromRead bool
	// Ver seeds the train: the version the caller saw the word at (for an
	// upgrade, the version its read lock was granted at).
	Ver uint64
}

// checkTrainWin verifies the single-window invariant of lock trains.
func checkTrainWin(win fabric.WordWin, w Word) {
	if w.Win != win {
		panic("locks: lock train spans multiple windows")
	}
}

// trainOldReaders returns the reader count a train entry starts from: one
// for an upgrade of our own shared lock, zero for a fresh acquisition.
func trainOldReaders(l TrainLock) uint64 {
	if l.FromRead {
		return 1
	}
	return 0
}

// trainOrder returns the positions 0..n-1 of a train's words in the global
// order (rank, then index — the shared total order that makes concurrent
// trains deadlock-free), checking that they all address one window.
func trainOrder(n int, word func(int) Word) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
		checkTrainWin(word(0).Win, word(i))
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := word(order[i]), word(order[j])
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Idx < b.Idx
	})
	return order
}

// sortTrain globally orders ls and returns the sorted train plus the mapping
// sorted position -> index in ls.
func sortTrain(ls []TrainLock) (train []TrainLock, order []int) {
	order = trainOrder(len(ls), func(i int) Word { return ls[i].Word })
	train = make([]TrainLock, len(ls))
	for i, src := range order {
		train[i] = ls[src]
	}
	return train, order
}

// checkVers verifies that a seeded train carries one version per word.
func checkVers(kind string, words int, vers []uint64) {
	if vers != nil && len(vers) != words {
		panic(fmt.Sprintf("locks: %s train of %d words with %d versions", kind, words, len(vers)))
	}
}

// acquireWriteRounds is the acquisition core shared by the all-or-nothing
// and best-effort write trains: up to tries vectored CAS rounds over the
// sorted train, one train per owner rank per round. The first round assumes
// each word free (or, for an upgrade, held by our one reader) at its seeded
// version; a word observed in another state is learned from the CAS result,
// and one observed in an unacquirable state is probed with a
// value-preserving CAS. It returns the per-word held flags and, for held
// words, the value installed (write bit + the word's version).
func acquireWriteRounds(origin fabric.Rank, train []TrainLock, tries int) (held []bool, expected []uint64, nHeld int) {
	win := train[0].Word.Win
	held = make([]bool, len(train))
	expected = make([]uint64, len(train)) // last observed word value, or held value
	for i, l := range train {
		expected[i] = freeAt(l.Ver) + trainOldReaders(l)
	}
	for round := 0; round <= tries && nHeld < len(train); round++ {
		forEachRank(len(train), func(i int) fabric.Rank { return train[i].Word.Target }, func(lo, hi int) {
			ops := make([]fabric.CASOp, 0, hi-lo)
			opIdx := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if held[i] {
					continue
				}
				op := fabric.CASOp{Idx: train[i].Word.Idx, Old: expected[i]}
				if expected[i]&writeBit == 0 && expected[i]&readerMask == trainOldReaders(train[i]) {
					// Acquirable: drop our reader (upgrades) and set the bit.
					op.New = (expected[i] - trainOldReaders(train[i])) | writeBit
				} else {
					op.New = op.Old // probe: foreign readers or a writer hold it
				}
				ops = append(ops, op)
				opIdx = append(opIdx, i)
			}
			for j, r := range win.CASBatch(origin, train[lo].Word.Target, ops) {
				i := opIdx[j]
				switch {
				case r.Swapped && ops[j].New != ops[j].Old:
					held[i] = true
					expected[i] = ops[j].New // the value we installed
					nHeld++
				case r.Swapped: // probe confirmed the blockers are still there
				default:
					expected[i] = r.Prev
				}
			}
		})
	}
	return held, expected, nHeld
}

// AcquireWriteTrain write-locks every word of the train, issuing one
// vectored CAS train per owner rank per retry round (acquireWriteRounds).
// Acquisition is all or nothing: if any word cannot be taken within the
// retry budget, every lock the train did acquire is rolled back to its
// pre-train state (upgrades return to one reader, versions untouched — a
// rollback is not a write-unlock) and (nil, ErrContended) is returned.
//
// On success it returns the version of every held word, aligned with ls.
// Passing those versions to ReleaseWriteTrain lets the release converge in
// one CAS round per rank instead of re-learning the values the acquisition
// already knew.
func AcquireWriteTrain(origin fabric.Rank, ls []TrainLock, tries int) ([]uint64, error) {
	if len(ls) == 0 {
		return nil, nil
	}
	train, order := sortTrain(ls)
	win := train[0].Word.Win
	held, expected, nHeld := acquireWriteRounds(origin, train, tries)
	if nHeld == len(train) {
		vers := make([]uint64, len(ls))
		for i, src := range order {
			vers[src] = Version(expected[i])
		}
		return vers, nil
	}
	// Roll back every word this train acquired, again one train per rank.
	// Held words are stable, so the single CAS per word must succeed.
	forEachRank(len(train), func(i int) fabric.Rank { return train[i].Word.Target }, func(lo, hi int) {
		ops := make([]fabric.CASOp, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if held[i] {
				ops = append(ops, fabric.CASOp{Idx: train[i].Word.Idx, Old: expected[i], New: (expected[i] &^ writeBit) + trainOldReaders(train[i])})
			}
		}
		for _, r := range win.CASBatch(origin, train[lo].Word.Target, ops) {
			if !r.Swapped {
				panic("locks: write-train rollback of a word not exclusively held")
			}
		}
	})
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
	order := trainOrder(len(words), func(i int) Word { return words[i] })
	train := make([]Word, len(words))
	for i, src := range order {
		train[i] = words[src]
	}
	win := train[0].Win
	done := make([]bool, len(train))
	expected := make([]uint64, len(train))
	for i, src := range order {
		// The hook must see every word still write-held at its pre-bump
		// version, so fire it for the whole train before any CAS round.
		runReleaseHook(win, train[i].Target, train[i].Idx)
		expected[i] = writeBit
		if vers != nil {
			expected[i] |= freeAt(vers[src])
		}
		if mark(src) == StubClear {
			expected[i] |= stubBit
		}
	}
	nDone := 0
	for nDone < len(train) {
		forEachRank(len(train), func(i int) fabric.Rank { return train[i].Target }, func(lo, hi int) {
			ops := make([]fabric.CASOp, 0, hi-lo)
			opIdx := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if done[i] {
					continue
				}
				ops = append(ops, fabric.CASOp{Idx: train[i].Idx, Old: expected[i], New: mark(order[i]).apply(bumpVersion(expected[i] &^ writeBit))})
				opIdx = append(opIdx, i)
			}
			for j, r := range win.CASBatch(origin, train[lo].Target, ops) {
				i := opIdx[j]
				if r.Swapped {
					done[i] = true
					nDone++
					continue
				}
				if r.Prev&writeBit == 0 {
					panic("locks: ReleaseWriteTrain without holding the write lock")
				}
				expected[i] = r.Prev
			}
		})
	}
}

// AcquireWriteTrainEach is the best-effort sibling of AcquireWriteTrain for
// background work (live vertex migration): same acquisition rounds
// (acquireWriteRounds), but a word still contended when the budget runs out
// is simply not taken — the words that were acquired stay held, nothing is
// rolled back. It returns, aligned with ls, each word's held flag and (for
// held words) its version; the caller releases the held words with
// ReleaseWriteTrain when done. A migrator uses this to skip busy vertices
// instead of aborting a whole migration batch on one hot lock.
func AcquireWriteTrainEach(origin fabric.Rank, ls []TrainLock, tries int) (vers []uint64, heldOut []bool) {
	vers = make([]uint64, len(ls))
	heldOut = make([]bool, len(ls))
	if len(ls) == 0 {
		return vers, heldOut
	}
	train, order := sortTrain(ls)
	held, expected, _ := acquireWriteRounds(origin, train, tries)
	for i, src := range order {
		if held[i] {
			heldOut[src] = true
			vers[src] = Version(expected[i])
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
	return mirrorTrain(origin, words, vers, func(free uint64) (uint64, uint64) { return free, free | writeBit })
}

// mirrorTrain issues one CAS per follower word, one vectored train per owner
// rank and one round, each CAS computed by cas from the word's expected free
// value; it returns the per-word swapped flags, aligned with words.
func mirrorTrain(origin fabric.Rank, words []Word, vers []uint64, cas func(free uint64) (old, new uint64)) []bool {
	swapped := make([]bool, len(words))
	if len(words) == 0 {
		return swapped
	}
	if len(vers) != len(words) {
		panic(fmt.Sprintf("locks: mirror train of %d words with %d versions", len(words), len(vers)))
	}
	order := trainOrder(len(words), func(i int) Word { return words[i] })
	win := words[0].Win
	forEachRank(len(order), func(i int) fabric.Rank { return words[order[i]].Target }, func(lo, hi int) {
		ops := make([]fabric.CASOp, 0, hi-lo)
		for _, i := range order[lo:hi] {
			old, new := cas(freeAt(vers[i]))
			ops = append(ops, fabric.CASOp{Idx: words[i].Idx, Old: old, New: new})
		}
		for j, r := range win.CASBatch(origin, words[order[lo]].Target, ops) {
			swapped[order[lo+j]] = r.Swapped
		}
	})
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
	mirrorTrain(origin, words, vers, func(free uint64) (uint64, uint64) { return free | writeBit, bumpVersion(free) })
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
	mirrorTrain(origin, words, vers, func(free uint64) (uint64, uint64) { return free, bumpVersion(free) })
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
	order := trainOrder(len(words), func(i int) Word { return words[i] })
	win := words[0].Win
	held := make([]bool, len(words))
	expected := make([]uint64, len(words)) // by train position: last observed word value, or held value
	if vers != nil {
		for k, i := range order {
			expected[k] = freeAt(vers[i])
		}
	}
	nHeld := 0
	for round := 0; round <= tries && nHeld < len(words); round++ {
		forEachRank(len(order), func(k int) fabric.Rank { return words[order[k]].Target }, func(lo, hi int) {
			ops := make([]fabric.CASOp, 0, hi-lo)
			opIdx := make([]int, 0, hi-lo)
			for k := lo; k < hi; k++ {
				if held[k] {
					continue
				}
				op := fabric.CASOp{Idx: words[order[k]].Idx, Old: expected[k], New: expected[k] + 1}
				if expected[k]&writeBit != 0 {
					op.New = op.Old // probe: a writer holds the word
				}
				ops = append(ops, op)
				opIdx = append(opIdx, k)
			}
			for j, r := range win.CASBatch(origin, words[order[lo]].Target, ops) {
				k := opIdx[j]
				switch {
				case r.Swapped && ops[j].New != ops[j].Old:
					held[k] = true
					expected[k] = ops[j].New
					nHeld++
				case r.Swapped: // probe confirmed the writer is still there
				default:
					expected[k] = r.Prev
				}
			}
		})
	}
	stamps := make([]uint64, len(words))
	var taken []Word
	var takenVers []uint64
	for k, i := range order {
		stamps[i] = expected[k]
		if held[k] {
			taken = append(taken, words[i])
			takenVers = append(takenVers, Version(expected[k]))
		}
	}
	if nHeld == len(words) {
		return stamps, nil
	}
	ReleaseReadTrainAt(origin, taken, takenVers)
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
	order := trainOrder(len(words), func(i int) Word { return words[i] })
	win := words[0].Win
	done := make([]bool, len(words))
	expected := make([]uint64, len(words))
	for k, i := range order {
		expected[k] = 1 // we are the only reader
		if vers != nil {
			expected[k] |= freeAt(vers[i])
		}
	}
	for nDone := 0; nDone < len(words); {
		forEachRank(len(order), func(k int) fabric.Rank { return words[order[k]].Target }, func(lo, hi int) {
			ops := make([]fabric.CASOp, 0, hi-lo)
			opIdx := make([]int, 0, hi-lo)
			for k := lo; k < hi; k++ {
				if !done[k] {
					ops = append(ops, fabric.CASOp{Idx: words[order[k]].Idx, Old: expected[k], New: expected[k] - 1})
					opIdx = append(opIdx, k)
				}
			}
			for j, r := range win.CASBatch(origin, words[order[lo]].Target, ops) {
				k := opIdx[j]
				switch {
				case r.Swapped:
					done[k] = true
					nDone++
				case r.Prev&readerMask == 0:
					panic("locks: ReleaseReadTrain with zero reader count")
				default:
					expected[k] = r.Prev
				}
			}
		})
	}
}

// forEachRank walks the maximal runs of equal-target elements of a sorted
// train, calling visit with each half-open run [lo, hi).
func forEachRank(n int, target func(int) fabric.Rank, visit func(lo, hi int)) {
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && target(hi) == target(lo) {
			hi++
		}
		visit(lo, hi)
		lo = hi
	}
}
