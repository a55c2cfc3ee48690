package locks

import (
	"fmt"
	"sort"

	"github.com/gdi-go/gdi/internal/fabric"
)

// The lock trains the one train engine replaced: six loops that each sort
// their words, group them by owner rank, build a CASOp slice, call CASBatch
// and sort the results into took, probed and learned. They are the oracle
// TestLockTrainsMatchReference checks the engine against, kept as they were
// apart from the ref prefix on their names and the release rule they now
// share with the engine: a release bumps a word iff its hold wrote the
// block (refReleased).

// refCheckTrainWin verifies the single-window invariant of lock trains.
func refCheckTrainWin(win fabric.WordWin, w Word) {
	if w.Win != win {
		panic("locks: lock train spans multiple windows")
	}
}

// refTrainOrder returns the positions 0..n-1 of a train's words in the global
// order (rank, then index — the shared total order that makes concurrent
// trains deadlock-free), checking that they all address one window.
func refTrainOrder(n int, word func(int) Word) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
		refCheckTrainWin(word(0).Win, word(i))
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

// refSortTrain globally orders ls and returns the sorted train plus the mapping
// sorted position -> index in ls.
func refSortTrain(ls []TrainLock) (train []TrainLock, order []int) {
	order = refTrainOrder(len(ls), func(i int) Word { return ls[i].Word })
	train = make([]TrainLock, len(ls))
	for i, src := range order {
		train[i] = ls[src]
	}
	return train, order
}

// refAcquireWriteRounds is the acquisition core shared by the all-or-nothing
// and best-effort write trains: up to tries vectored CAS rounds over the
// sorted train, one train per owner rank per round. The first round assumes
// each word free at its seeded version; a word observed in another state is learned from the CAS result,
// and one observed in an unacquirable state is probed with a
// value-preserving CAS. It returns the per-word held flags and, for held
// words, the value installed (write bit + the word's version).
func refAcquireWriteRounds(origin fabric.Rank, train []TrainLock, tries int) (held []bool, expected []uint64, nHeld int) {
	win := train[0].Word.Win
	held = make([]bool, len(train))
	expected = make([]uint64, len(train)) // last observed word value, or held value
	for i, l := range train {
		expected[i] = freeAt(l.Ver)
	}
	for round := 0; round <= tries && nHeld < len(train); round++ {
		refForEachRank(len(train), func(i int) fabric.Rank { return train[i].Word.Target }, func(lo, hi int) {
			ops := make([]fabric.CASOp, 0, hi-lo)
			opIdx := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if held[i] {
					continue
				}
				op := fabric.CASOp{Idx: train[i].Word.Idx, Old: expected[i]}
				if expected[i]&(writeBit|readerMask) == 0 {
					op.New = expected[i] | writeBit // acquirable: set the bit
				} else {
					op.New = op.Old // probe: readers or a writer hold it
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

// refAcquireWriteTrain write-locks every word of the train, issuing one
// vectored CAS train per owner rank per retry round (refAcquireWriteRounds).
// Acquisition is all or nothing: if any word cannot be taken within the
// retry budget, every lock the train did acquire is rolled back to its
// pre-train state (versions untouched — a rollback wrote nothing)
// and (nil, ErrContended) is returned.
//
// On success it returns the version of every held word, aligned with ls.
// Passing those versions to ReleaseWriteTrain lets the release converge in
// one CAS round per rank instead of re-learning the values the acquisition
// already knew.
func refAcquireWriteTrain(origin fabric.Rank, ls []TrainLock, tries int) ([]uint64, error) {
	if len(ls) == 0 {
		return nil, nil
	}
	train, order := refSortTrain(ls)
	win := train[0].Word.Win
	held, expected, nHeld := refAcquireWriteRounds(origin, train, tries)
	if nHeld == len(train) {
		vers := make([]uint64, len(ls))
		for i, src := range order {
			vers[src] = Version(expected[i])
		}
		return vers, nil
	}
	// Roll back every word this train acquired, again one train per rank.
	// Held words are stable, so the single CAS per word must succeed.
	refForEachRank(len(train), func(i int) fabric.Rank { return train[i].Word.Target }, func(lo, hi int) {
		ops := make([]fabric.CASOp, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if held[i] {
				ops = append(ops, fabric.CASOp{Idx: train[i].Word.Idx, Old: expected[i], New: expected[i] &^ writeBit})
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

// refReleased is the word a release marked m installs over the held word
// w: a hold that wrote the block bumps the version and publishes the stub
// bit m asks for; one that wrote nothing only clears the write bit.
func refReleased(m ReleaseMark, w uint64) uint64 {
	w &^= writeBit
	if m == Unwritten {
		return w
	}
	w = bumpVersion(w)
	switch m {
	case StubSet:
		w |= stubBit
	case StubClear:
		w &^= stubBit
	}
	return w
}

// refMarkAt is marks[i], or Written when marks is nil.
func refMarkAt(marks []ReleaseMark, i int) ReleaseMark {
	if marks == nil {
		return Written
	}
	return marks[i]
}

// refReleaseWriteTrainMarked drops exclusively held locks, one vectored CAS
// train per owner rank per round, each word as its mark says (aligned with
// words; nil marks every word Written; refReleased). The first round
// guesses the stub bit set on a word marked StubClear — the stubs a caller
// retires or reclaims — and clear on the others.
func refReleaseWriteTrainMarked(origin fabric.Rank, words []Word, vers []uint64, marks []ReleaseMark) {
	checkVers("release", len(words), vers)
	if marks != nil && len(marks) != len(words) {
		panic(fmt.Sprintf("locks: release train of %d words with %d marks", len(words), len(marks)))
	}
	if len(words) == 0 {
		return
	}
	mark := func(i int) ReleaseMark { return refMarkAt(marks, i) }
	order := refTrainOrder(len(words), func(i int) Word { return words[i] })
	train := make([]Word, len(words))
	for i, src := range order {
		train[i] = words[src]
	}
	win := train[0].Win
	done := make([]bool, len(train))
	expected := make([]uint64, len(train))
	for i, src := range order {
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
		refForEachRank(len(train), func(i int) fabric.Rank { return train[i].Target }, func(lo, hi int) {
			ops := make([]fabric.CASOp, 0, hi-lo)
			opIdx := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if done[i] {
					continue
				}
				ops = append(ops, fabric.CASOp{Idx: train[i].Idx, Old: expected[i], New: refReleased(mark(order[i]), expected[i])})
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

// refAcquireWriteTrainEach is the best-effort sibling of refAcquireWriteTrain for
// background work (live vertex migration): same acquisition rounds
// (refAcquireWriteRounds), but a word still contended when the budget runs out
// is simply not taken — the words that were acquired stay held, nothing is
// rolled back. It returns, aligned with ls, each word's held flag and (for
// held words) its version; the caller releases the held words with
// ReleaseWriteTrain when done. A migrator uses this to skip busy vertices
// instead of aborting a whole migration batch on one hot lock.
func refAcquireWriteTrainEach(origin fabric.Rank, ls []TrainLock, tries int) (vers []uint64, heldOut []bool) {
	vers = make([]uint64, len(ls))
	heldOut = make([]bool, len(ls))
	if len(ls) == 0 {
		return vers, heldOut
	}
	train, order := refSortTrain(ls)
	held, expected, _ := refAcquireWriteRounds(origin, train, tries)
	for i, src := range order {
		if held[i] {
			heldOut[src] = true
			vers[src] = Version(expected[i])
		}
	}
	return vers, heldOut
}

// refAcquireMirrorTrain write-marks follower version words, one vectored CAS
// train per owner rank, one round. vers carries each word's expected current
// version (the primary's pre-commit version, which lockstep guarantees the
// follower shares). Unlike a lock acquisition there is no retry: the primary
// write lock already excludes every competing mirror train, so a CAS that
// fails means the follower is not in lockstep (it was just seeded, dropped,
// or re-seeded against a different version) — the caller drops that follower
// from the fan-out instead of waiting. Returns the per-word marked flags,
// aligned with words.
func refAcquireMirrorTrain(origin fabric.Rank, words []Word, vers []uint64) []bool {
	return refMirrorTrain(origin, words, vers, func(_ int, free uint64) (uint64, uint64) { return free, free | writeBit })
}

// refMirrorTrain issues one CAS per follower word, one vectored train per owner
// rank and one round, each CAS computed by cas from the word's position in
// words and its expected free value; it returns the per-word swapped flags,
// aligned with words.
func refMirrorTrain(origin fabric.Rank, words []Word, vers []uint64, cas func(i int, free uint64) (old, new uint64)) []bool {
	swapped := make([]bool, len(words))
	if len(words) == 0 {
		return swapped
	}
	if len(vers) != len(words) {
		panic(fmt.Sprintf("locks: mirror train of %d words with %d versions", len(words), len(vers)))
	}
	order := refTrainOrder(len(words), func(i int) Word { return words[i] })
	win := words[0].Win
	refForEachRank(len(order), func(i int) fabric.Rank { return words[order[i]].Target }, func(lo, hi int) {
		ops := make([]fabric.CASOp, 0, hi-lo)
		for _, i := range order[lo:hi] {
			old, new := cas(i, freeAt(vers[i]))
			ops = append(ops, fabric.CASOp{Idx: words[i].Idx, Old: old, New: new})
		}
		for j, r := range win.CASBatch(origin, words[order[lo]].Target, ops) {
			swapped[order[lo+j]] = r.Swapped
		}
	})
	return swapped
}

// refReleaseMirrorTrain completes the fan-out on follower words
// refAcquireMirrorTrain marked: each word moves from write-marked at version
// v as its mark says (refReleased) — to free at v+1, the same bump the
// primary's release performed, or back to free at v when the writer wrote
// nothing. A failed CAS means the mark was stolen: when a vertex's primary
// rank dies while a (surviving) committer is mid-fan-out, promotion forcibly
// re-seeds the marked follower words — nothing would ever complete the
// fan-out if the committer had died too, and a live committer finding its
// mark gone simply leaves the word to its new owner.
func refReleaseMirrorTrain(origin fabric.Rank, words []Word, vers []uint64, marks []ReleaseMark) {
	if marks != nil && len(marks) != len(words) {
		panic(fmt.Sprintf("locks: mirror release train of %d words with %d marks", len(words), len(marks)))
	}
	refMirrorTrain(origin, words, vers, func(i int, free uint64) (uint64, uint64) {
		return free | writeBit, refReleased(refMarkAt(marks, i), free|writeBit)
	})
}

// refAcquireReadTrainAt takes shared locks on every word, one vectored CAS
// train per owner rank per round, seeded with vers (aligned with words; nil
// seeds version 0). Words observed under a writer are probed with a
// value-preserving CAS until the writer leaves or the budget runs out. All
// or nothing: on ErrContended every read lock the train took is released.
// On success it returns, aligned with words, each word as the train's CAS
// left it. A read-held word cannot change version, so that is the word's
// stamp for as long as the lock is held.
func refAcquireReadTrainAt(origin fabric.Rank, words []Word, vers []uint64, tries int) ([]uint64, error) {
	checkVers("read", len(words), vers)
	if len(words) == 0 {
		return nil, nil
	}
	order := refTrainOrder(len(words), func(i int) Word { return words[i] })
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
		refForEachRank(len(order), func(k int) fabric.Rank { return words[order[k]].Target }, func(lo, hi int) {
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
	refReleaseReadTrainAt(origin, taken, takenVers)
	return nil, ErrContended
}

// refReleaseReadTrainAt drops shared locks, one vectored CAS train per owner
// rank per round, seeded with the versions the locks were granted at
// (aligned with words; nil seeds version 0). The first round assumes the
// caller is each word's only reader; reader churn is learned from the CAS
// results and retried until every lock is dropped.
func refReleaseReadTrainAt(origin fabric.Rank, words []Word, vers []uint64) {
	checkVers("read release", len(words), vers)
	if len(words) == 0 {
		return
	}
	order := refTrainOrder(len(words), func(i int) Word { return words[i] })
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
		refForEachRank(len(order), func(k int) fabric.Rank { return words[order[k]].Target }, func(lo, hi int) {
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

// refForEachRank walks the maximal runs of equal-target elements of a sorted
// train, calling visit with each half-open run [lo, hi).
func refForEachRank(n int, target func(int) fabric.Rank, visit func(lo, hi int)) {
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && target(hi) == target(lo) {
			hi++
		}
		visit(lo, hi)
		lo = hi
	}
}
