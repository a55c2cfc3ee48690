package core

import (
	"fmt"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/lpg"
)

// refFetch tracks one unique vertex being materialized by a flush: its
// state, the growing logical stream, the guard version the stream was
// validated against, and every future awaiting it.
type refFetch struct {
	dp     fabric.DPtr
	st     *vertexState
	futs   []*VertexFuture
	buf    []byte
	blocks []fabric.DPtr
	nb     int
	stamp  uint64      // the guard word every round of this fetch is served against
	ver    uint64      // its version
	fwd    fabric.DPtr // set when dp held a migration stub: chase here
	err    error
	// Optimistic-tier bookkeeping: the reads that came off the wire (their
	// stability is only established by the post-stamp check, after which
	// they are installed into the cache) and a provisional deleted/corrupt
	// verdict awaiting that check.
	fetched []block.StampedRead
	suspect error
}

// referenceFlush is the association flush as it was before the chain reader:
// its own stream buffers, its own follower read, and no check of the block
// count or the table entries it reads. TestAssociateMatchesReference runs it
// as the oracle of Tx.flush. A speculative flush (spec) is a translation-cache hit being checked: its
// holders must still carry guard version expect, free of writers, and a
// primary vertex head, or their futures fail with errStaleTranslation — on
// the guard word alone, before any block is read, when the version moved.
func referenceFlush(tx *Tx, pending []*VertexFuture, spec bool, expect uint64) {
	if len(pending) == 0 {
		return
	}
	if err := tx.check(); err != nil {
		for _, f := range pending {
			f.fail(err)
		}
		return
	}

	// Deduplicate by DPtr (resolving migration aliases this transaction has
	// already chased); cache hits resolve without communication. The dedup
	// map is built lazily on the second distinct fetch, so the dominant
	// single-vertex point read allocates no map at all. A multi-hop frontier
	// that revisits an already-chased stale DPtr in a later hop resolves
	// here through chaseAlias + the installed state — no fresh chase
	// generation, no second ForwardedReads count, no traffic
	// (TestMultiHopRevisitOfMigratedVertexUsesAliasMap).
	var fetches []*refFetch
	var uniq map[fabric.DPtr]*refFetch
	enqueue := func(dp fabric.DPtr, futs []*VertexFuture) {
		dp = tx.chaseAlias(dp)
		if st, ok := tx.verts[dp]; ok {
			for _, f := range futs {
				f.resolveState(st)
			}
			return
		}
		// Optimistic fetches are served by a local follower copy when this
		// rank holds one: zero remote traffic, and the follower-observed
		// version is recorded against the primary DPtr so the commit-time
		// validation train still proves freshness against the primary's word.
		// Heat stays attributed to the primary's owner — a replica read must
		// not make the follower rank look like the place the vertex lives.
		if tx.mode == ReadOnly && tx.optimistic() {
			if st, ver, ok := referenceReplicaRead(tx, dp); ok {
				if spec && ver != expect {
					for _, f := range futs {
						f.fail(errStaleTranslation)
					}
					return
				}
				tx.eng.replicaReads.Add(1)
				st.ver = ver
				st.origLabel = append([]lpg.LabelID(nil), st.v.Labels...)
				tx.verts[dp] = st
				tx.optReads = append(tx.optReads, optRead{dp, ver})
				tx.eng.recordHeat(tx.rank, st.v.AppID, dp.Rank())
				for _, f := range futs {
					f.resolveState(st)
				}
				return
			}
		}
		if uniq == nil && len(fetches) > 0 {
			uniq = make(map[fabric.DPtr]*refFetch, len(pending))
			for _, q := range fetches {
				uniq[q.dp] = q
			}
		}
		var pf *refFetch
		if uniq != nil {
			pf = uniq[dp]
		}
		if pf == nil {
			pf = &refFetch{dp: dp}
			if uniq != nil {
				uniq[dp] = pf
			}
			fetches = append(fetches, pf)
		}
		pf.futs = append(pf.futs, futs...)
	}
	for _, f := range pending {
		if !f.done {
			enqueue(f.dp, []*VertexFuture{f})
		}
	}

	// Each generation fetches one hop of the (normally trivial) forwarding
	// graph: fetches that land on a migration stub re-queue at the vertex's
	// current primary and go around again, bounded by maxForwardHops.
	for hop := 0; len(fetches) > 0; hop++ {
		// Scrub the generation against states installed since it was
		// queued: a chase re-queued at the vertex's current primary may
		// race a direct fetch of that same primary resolving later in the
		// previous generation — fetching it again would double-lock the
		// word and fork the per-transaction state.
		if hop > 0 {
			live := fetches[:0]
			for _, pf := range fetches {
				if st, ok := tx.verts[pf.dp]; ok {
					for _, f := range pf.futs {
						f.resolveState(st)
					}
					continue
				}
				live = append(live, pf)
			}
			fetches = live
			if len(fetches) == 0 {
				return
			}
		}
		if hop > maxForwardHops {
			crit := tx.fail(fmt.Errorf("associating %d vertices: migration forwarding chain exceeded %d hops: %w",
				len(fetches), maxForwardHops, locks.ErrContended))
			for _, pf := range fetches {
				for _, f := range pf.futs {
					f.fail(crit)
				}
			}
			return
		}

		for _, pf := range fetches {
			pf.st = tx.newState(pf.dp)
		}

		// Fetch rounds. Optimistic holders whose guard version moved
		// mid-stream come back torn and are re-fetched from scratch; a holder
		// still unstable after the retry budget fails the transaction.
		remaining := fetches
		for attempt := 0; len(remaining) > 0; attempt++ {
			unstable := referenceFetchStreams(tx, remaining, spec, expect)
			if len(unstable) == 0 {
				break
			}
			if attempt+1 >= tx.eng.cfg.LockTries {
				// An optimistic abort like the commit-time one, surfaced at
				// fetch time: count it so the abort reports stay
				// self-describing.
				tx.eng.optAborts.Add(1)
				crit := tx.fail(fmt.Errorf("optimistic fetch of %d vertices still torn after %d attempts: %w",
					len(unstable), attempt+1, locks.ErrContended))
				for _, pf := range unstable {
					pf.err = crit
				}
				break
			}
			for _, pf := range unstable {
				pf.buf, pf.blocks, pf.nb, pf.fwd = nil, nil, 0, 0
				pf.fetched, pf.suspect = nil, nil
			}
			remaining = unstable
		}

		// Phase 3: decode, install, resolve — or re-queue fetches that found
		// a forwarding stub where the holder used to be. The optimistic tier
		// records the version each holder was validated at; Commit
		// revalidates the whole read set in one train per owner rank.
		gen := fetches
		fetches = nil
		uniq = nil
		for _, pf := range gen {
			if pf.err == nil && !pf.fwd.IsNull() {
				tx.eng.forwards.Add(1)
				tx.addAlias(pf.dp, pf.fwd)
				enqueue(pf.fwd, pf.futs)
				continue
			}
			if pf.err == nil {
				// Decode: validate the stream and materialize everything but
				// the edge records, which are appended from the view.
				st := pf.st
				err := st.view.Reset(pf.buf)
				var v *holder.Vertex
				if err == nil {
					v, err = st.view.DecodeMeta()
				}
				if err == nil {
					v.Edges = st.view.AppendEdges(nil)
				}
				if err != nil {
					pf.err = fmt.Errorf("%w: %v", ErrNotFound, err)
				} else {
					pf.st.v = v
					pf.st.ver = pf.ver
					pf.st.blocks = pf.blocks
					pf.st.origLabel = append([]lpg.LabelID(nil), v.Labels...)
					tx.verts[pf.dp] = pf.st
					// pf.dp is the block the holder actually decoded from —
					// the post-chase primary when the fetch went through a
					// forwarding stub — so heat lands against the vertex's
					// current owner, not the vacated one.
					tx.eng.recordHeat(tx.rank, v.AppID, pf.dp.Rank())
					if tx.optimistic() {
						tx.optReads = append(tx.optReads, optRead{pf.dp, pf.ver})
					}
				}
			}
			for _, f := range pf.futs {
				if pf.err != nil {
					f.fail(pf.err)
				} else {
					f.resolveState(pf.st)
				}
			}
		}
	}
}

// referenceFetchStreams is referenceFlush's fetch. It materializes the
// logical streams of the given fetches — round 0 reads every primary, round i the i-th continuation block of every
// holder still needing one, each round one vectored read train per owner
// rank — and returns the subset whose optimistic reads came back unstable
// (guard version moved or writer held across the fetch) for the caller to
// retry. Holders that turn out deleted or corrupt, or fail a speculative
// fetch's checks (spec, expect: see flush), have pf.err set and are not
// returned.
//
// Every round of every holder is served against one stamp of its guard:
// cache hits valid at the stamp cost no traffic at all, and misses come off
// the wire one GET train per rank per round. The guards are stamped up
// front, one atomic-load train per owner rank. The
// optimistic tier then establishes stability with a single post-stamp train
// covering only the holders that actually touched the wire (a fully
// cache-served holder is a consistent copy at its stamped version by
// construction); fetched blocks of holders whose guard did not move are
// installed into the cache.
func referenceFetchStreams(tx *Tx, fetches []*refFetch, spec bool, expect uint64) (unstable []*refFetch) {
	bs := tx.eng.cfg.BlockSize
	store := tx.eng.store
	opt := tx.optimistic()

	// Stamp every primary once; in optimistic mode a guard already held by a
	// writer cannot validate, so its holder goes straight to retry. A speculative fetch is stale instead, at another
	// version or under a writer (whose release moves the version).
	var trains block.Trains
	live := make([]*refFetch, 0, len(fetches))
	prims := make([]fabric.DPtr, len(fetches))
	for i, pf := range fetches {
		prims[i] = pf.dp
	}
	words := make([]uint64, len(prims))
	store.LockStampsInto(tx.rank, prims, words, &trains)
	for i, pf := range fetches {
		w := words[i]
		switch {
		case spec && (locks.Version(w) != expect || locks.WriteHeld(w)):
			pf.err = errStaleTranslation
		case opt && locks.WriteHeld(w):
			unstable = append(unstable, pf)
		default:
			pf.stamp, pf.ver = w, locks.Version(w)
			live = append(live, pf)
		}
	}

	// readRound reads one block of every holder in roundPfs, reads[j] for
	// roundPfs[j].
	reads := make([]block.StampedRead, 0, len(live))
	roundPfs := make([]*refFetch, 0, len(live))
	readRound := func() {
		store.ReadBlocksStamped(tx.rank, reads, !opt, &trains, nil)
		if opt {
			for j, pf := range roundPfs {
				if reads[j].Fetched {
					pf.fetched = append(pf.fetched, reads[j])
				}
			}
		}
	}
	// fail marks a holder deleted/corrupt. On the optimistic tier the
	// verdict is provisional — the poison itself may be a torn read — and
	// is confirmed or discarded by the post-stamp check.
	var toCheck []*refFetch
	fail := func(pf *refFetch, err error) {
		if opt {
			pf.suspect = err
			toCheck = append(toCheck, pf)
			return
		}
		pf.err = err
	}

	// Round 0: every primary block, guarded by its own lock word.
	for _, pf := range live {
		pf.buf = make([]byte, bs)
		reads = append(reads, block.StampedRead{DP: pf.dp, Buf: pf.buf, Guard: pf.dp, Stamp: pf.stamp})
		roundPfs = append(roundPfs, pf)
	}
	readRound()
	cur := make([]*refFetch, 0, len(live))
	for _, pf := range live {
		nb := holder.NumBlocks(pf.buf)
		if nb < 1 {
			fail(pf, fmt.Errorf("%w: holder %v was deleted", ErrNotFound, pf.dp))
			continue
		}
		if spec && (!isVertexHead(pf.buf) || holder.IsReplicaBlock(pf.buf)) {
			// A cached translation names primary vertex heads only; the
			// caller falls back to the index instead of chasing anything.
			pf.err = errStaleTranslation
			continue
		}
		if holder.IsMoved(pf.buf) {
			// The vertex migrated away and left a forwarding stub: record
			// the chase target — the flush re-queues the fetch at the
			// current primary. On the
			// optimistic tier the stub read still goes through the
			// post-stamp check below before the target is trusted.
			pf.fwd = holder.MovedTarget(pf.buf)
			continue
		}
		pf.nb = nb
		pf.blocks = make([]fabric.DPtr, 1, nb)
		pf.blocks[0] = pf.dp
		if nb > 1 {
			full := make([]byte, nb*bs)
			copy(full, pf.buf)
			pf.buf = full
		}
		cur = append(cur, pf)
	}

	// Continuation rounds: block `round` of every holder still needing one,
	// guarded by the holder's primary.
	for round := 1; len(cur) > 0; round++ {
		reads, roundPfs = reads[:0], roundPfs[:0]
		next := cur[:0]
		for _, pf := range cur {
			if pf.nb <= round {
				continue
			}
			dp := holder.TableEntry(pf.buf, round-1)
			if dp.IsNull() {
				fail(pf, fmt.Errorf("%w: holder %v has a null continuation block", ErrNotFound, pf.dp))
				continue
			}
			pf.blocks = append(pf.blocks, dp)
			reads = append(reads, block.StampedRead{DP: dp, Buf: pf.buf[round*bs : (round+1)*bs], Guard: pf.dp, Stamp: pf.stamp})
			roundPfs = append(roundPfs, pf)
			next = append(next, pf)
		}
		if len(reads) == 0 {
			break
		}
		readRound()
		cur = next
	}

	// Optimistic post-validation: one stamp train over the holders that
	// fetched anything (or look deleted); an unmoved guard proves every one
	// of their wire reads was stable.
	if opt {
		for _, pf := range fetches {
			if pf.err == nil && pf.suspect == nil && len(pf.fetched) > 0 {
				toCheck = append(toCheck, pf)
			}
		}
		if len(toCheck) == 0 {
			return unstable
		}
		prims := make([]fabric.DPtr, len(toCheck))
		for i, pf := range toCheck {
			prims[i] = pf.dp
		}
		post := make([]uint64, len(prims))
		store.LockStampsInto(tx.rank, prims, post, &trains)
		for i, pf := range toCheck {
			if w := post[i]; locks.Version(w) != pf.ver || locks.WriteHeld(w) {
				pf.suspect = nil
				unstable = append(unstable, pf)
				continue
			}
			if pf.suspect != nil {
				pf.err = pf.suspect
				pf.suspect = nil
				continue
			}
			store.InstallStamped(tx.rank, pf.fetched)
		}
	}
	return unstable
}

// referenceReplicaRead is referenceFlush's follower read. It serves an
// optimistic fetch from a local follower copy: a seqlock read of the follower chain (stamp, read, re-stamp), decoded and
// validated, with the observed version recorded by the caller against the
// primary DPtr — the existing commit-time validation train then checks it
// against the primary's word, so a stale follower costs an abort, never a
// stale read. Returns false (and possibly drops the directory entry) on any
// miss; the caller falls back to the remote fetch path, and counts a read it
// accepts.
func referenceReplicaRead(tx *Tx, dp fabric.DPtr) (*vertexState, uint64, bool) {
	e := tx.eng
	ent, ok := e.repl[tx.rank].lookup(dp)
	if !ok {
		return nil, 0, false
	}
	bs := e.cfg.BlockSize
	word := e.lockWordOf(ent.head)
	w1 := word.Stamp(tx.rank)
	if locks.WriteHeld(w1) {
		return nil, 0, false // fan-out or reseed in flight
	}
	buf := make([]byte, bs)
	e.store.ReadBlock(tx.rank, ent.head, buf)
	nb := holder.NumBlocks(buf)
	if nb < 1 || nb > e.store.BlocksPerRank() || !holder.IsReplicaBlock(buf) || holder.IsMoved(buf) {
		e.repl[tx.rank].drop(dp)
		return nil, 0, false
	}
	if nb > 1 {
		full := make([]byte, nb*bs)
		copy(full, buf)
		buf = full
		for i := 1; i < nb; i++ {
			bdp := holder.TableEntry(buf, i-1)
			if !e.validPoolDPtr(bdp) || bdp.Rank() != tx.rank {
				e.repl[tx.rank].drop(dp)
				return nil, 0, false
			}
			e.store.ReadBlock(tx.rank, bdp, buf[i*bs:(i+1)*bs])
		}
	}
	if word.Stamp(tx.rank) != w1 {
		return nil, 0, false // torn: a fan-out landed mid-read
	}
	v, err := holder.DecodeVertex(buf)
	if err != nil || !v.IsReplica || v.AppID != ent.app {
		e.repl[tx.rank].drop(dp)
		return nil, 0, false
	}
	st := tx.newState(dp)
	st.v = v
	return st, locks.Version(w1), true
}
