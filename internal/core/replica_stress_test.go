package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/rma"
)

// TestKillARankFailoverStress is the kill-a-rank stress tier: concurrent
// writers rewrite replicated vertex payloads and optimistic readers snapshot
// them while one rank's data plane is killed mid-run; afterwards the
// survivors promote the dead rank's followers. Invariants checked:
//
//   - conservation: every write a surviving writer successfully committed —
//     including commits whose write-back raced the kill and reached only the
//     follower copies — is readable from every surviving rank afterwards;
//   - failover: every vertex whose primary died is promoted exactly once,
//     and accepts new commits at its new primary;
//   - no torn reads and per-reader per-key monotonic sequence numbers
//     throughout, kill included.
//
// Runs under -race in CI (the kill-a-rank step of the race job).
func TestKillARankFailoverStress(t *testing.T) {
	const (
		ranks           = 4
		k               = 3 // one primary + two followers
		keys            = 16
		payloadWords    = 16
		writers         = 4
		readers         = 4
		writesPerWriter = 200
		readsPerReader  = 300
		doomed          = rma.Rank(1)
	)
	f := rma.New(ranks)
	e := NewEngine(f, Config{
		BlockSize:     64,
		BlocksPerRank: 1 << 12,
		LockTries:     256,
	})
	pt := payloadPType(t, e)
	for i := 0; i < keys; i++ {
		seedPayloadVertex(t, e, uint64(i), pt, payloadWords)
	}
	for r := 0; r < ranks; r++ {
		e.ReplicateUniform(rma.Rank(r), k)
	}
	var doomedKeys []uint64
	probe := e.StartLocal(0, ReadOnly)
	for i := 0; i < keys; i++ {
		dp, err := probe.TranslateVertexID(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if dp.Rank() == doomed {
			doomedKeys = append(doomedKeys, uint64(i))
		}
	}
	probe.Abort()
	if len(doomedKeys) == 0 {
		t.Fatal("no vertex has its primary on the doomed rank")
	}

	survivors := make([]rma.Rank, 0, ranks-1)
	for r := 0; r < ranks; r++ {
		if rma.Rank(r) != doomed {
			survivors = append(survivors, rma.Rank(r))
		}
	}

	var (
		wg            sync.WaitGroup
		mu            sync.Mutex
		firstErr      error
		killOnce      sync.Once
		lastCommitted [keys]uint64 // per-key, written only by the key's writer
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// absorb runs one transaction attempt, converting a peer-death panic
	// (an access that raced the kill into the dead rank's data plane) into
	// ok=false — exactly what a production driver does when a request hits a
	// dying peer.
	absorb := func(fn func() bool) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, peer := fabric.AsPeerDeath(r); peer {
					ok = false
					return
				}
				panic(r)
			}
		}()
		return fn()
	}

	// Writers: each owns the keys congruent to its index, so per-key commits
	// are sequential and "last committed" is well defined. Halfway through,
	// writer 0 kills the doomed rank under full load.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rank := survivors[w%len(survivors)]
			seq := uint64(w)*1_000_000 + 1
			for i := 0; i < writesPerWriter; i++ {
				if w == 0 && i == writesPerWriter/2 {
					killOnce.Do(func() { f.KillRank(doomed) })
				}
				app := uint64((i*writers + w) % keys)
				s := seq
				committed := absorb(func() bool {
					tx := e.StartLocal(rank, ReadWrite)
					defer func() {
						if !tx.closed {
							tx.Abort()
						}
					}()
					dp, err := tx.TranslateVertexID(app)
					if err != nil {
						return false
					}
					h, err := tx.AssociateVertex(dp)
					if err != nil {
						return false
					}
					if err := h.SetProperty(pt, payloadPattern(s, payloadWords)); err != nil {
						report(err)
						return false
					}
					return tx.Commit() == nil
				})
				if committed {
					lastCommitted[app] = s
					seq++
				}
			}
		}(w)
	}

	// Readers: optimistic snapshots, panic-tolerant, checking torn-freedom
	// and per-key monotonicity across every validated read.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rank := survivors[r%len(survivors)]
			var seen [keys]uint64
			for i := 0; i < readsPerReader; i++ {
				app := uint64((i*7 + r*3) % keys)
				absorb(func() bool {
					tx := e.StartLocal(rank, ReadOnly)
					defer func() {
						if !tx.closed {
							tx.Abort()
						}
					}()
					dp, err := tx.TranslateVertexID(app)
					if err != nil {
						return false
					}
					h, err := tx.AssociateVertex(dp)
					if err != nil {
						return false
					}
					p, ok := h.Property(pt)
					if !ok {
						report(fmt.Errorf("reader: payload of vertex %d missing", app))
						return false
					}
					seq, torn := decodePattern(p)
					if torn {
						report(fmt.Errorf("reader: torn payload of vertex %d", app))
						return false
					}
					if tx.Commit() != nil {
						return false // optimistic abort: snapshot discarded
					}
					if seq < seen[app] {
						report(fmt.Errorf("reader %d: vertex %d seq went backwards %d → %d",
							r, app, seen[app], seq))
					}
					seen[app] = seq
					return true
				})
			}
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Failover: with in-flight commits drained, every survivor promotes; the
	// doomed rank's vertices must be won exactly once in total.
	promos := 0
	for _, r := range survivors {
		promos += e.PromoteDead(r)
	}
	if promos != len(doomedKeys) {
		t.Fatalf("promoted %d vertices, want %d (one per doomed primary)", promos, len(doomedKeys))
	}

	// Conservation: every surviving rank reads back the last committed value
	// of every key — the doomed-primary keys through their promoted copies.
	for _, r := range survivors {
		for app := uint64(0); app < keys; app++ {
			tx := e.StartLocal(r, ReadOnly)
			dp, err := tx.TranslateVertexID(app)
			if err != nil {
				t.Fatalf("rank %d: vertex %d lost after failover: %v", r, app, err)
			}
			if dp.Rank() == doomed {
				t.Fatalf("vertex %d still placed on the dead rank", app)
			}
			h, err := tx.AssociateVertex(dp)
			if err != nil {
				t.Fatalf("rank %d: associating vertex %d after failover: %v", r, app, err)
			}
			p, ok := h.Property(pt)
			if !ok {
				t.Fatalf("rank %d: payload of vertex %d missing after failover", r, app)
			}
			seq, torn := decodePattern(p)
			if torn {
				t.Fatalf("rank %d: torn payload of vertex %d after failover", r, app)
			}
			if seq != lastCommitted[app] {
				t.Fatalf("rank %d: vertex %d = seq %d after failover, last committed %d (lost write)",
					r, app, seq, lastCommitted[app])
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("rank %d: validating vertex %d after failover: %v", r, app, err)
			}
		}
	}

	// The promoted primaries accept new commits, and those commits fan out
	// to the rekeyed surviving followers.
	for _, app := range doomedKeys {
		writeSeq(t, e, survivors[0], app, 9_000_000+app, pt, payloadWords)
		if got := readSeq(t, e, survivors[1], app, pt); got != 9_000_000+app {
			t.Fatalf("post-failover commit to vertex %d reads back %d", app, got)
		}
	}
	if e.Promotions() == 0 || e.ReplicaReads() == 0 {
		t.Fatalf("counters flat: promotions=%d replicaReads=%d", e.Promotions(), e.ReplicaReads())
	}
}
