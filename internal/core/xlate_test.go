package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/rma"
)

// TestCommittedReadSeesTheTranslatedVertex: a transaction translates app 5,
// then another deletes it and a third creates app 9 in the freed block (same
// owner rank, LIFO pool). Associating the translated DPtr must not hand the
// first transaction vertex 9 in a commit that succeeds: translation and
// association are one validated step, so the transaction keeps the vertex
// it translated, and the delete, which no read holds back, lands and fails
// its validation, in read-only and read-write transactions alike.
func TestCommittedReadSeesTheTranslatedVertex(t *testing.T) {
	for _, mode := range []Mode{ReadOnly, ReadWrite} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			e := NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 64, LockTries: 16})
			seed := e.StartLocal(1, ReadWrite)
			dp5, err := seed.CreateVertex(5)
			if err != nil {
				t.Fatal(err)
			}
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}

			reader := e.StartLocal(0, mode)
			got, err := reader.TranslateVertexID(5)
			if err != nil || got != dp5 {
				t.Fatalf("TranslateVertexID(5) = %v, %v; want %v", got, err, dp5)
			}

			del := e.StartLocal(1, ReadWrite)
			deleted := del.DeleteVertex(dp5) == nil && del.Commit() == nil
			del.Abort()
			create := e.StartLocal(1, ReadWrite)
			dp9, err := create.CreateVertex(9)
			if err != nil {
				t.Fatal(err)
			}
			if err := create.Commit(); err != nil {
				t.Fatal(err)
			}
			if deleted && dp9 != dp5 {
				t.Fatalf("vertex 9 went to %v, not into the freed block %v", dp9, dp5)
			}

			h, err := reader.AssociateVertex(got)
			committed := reader.Commit() == nil
			if err == nil && committed && h.AppID() != 5 {
				t.Fatalf("a committed transaction translated vertex 5 and read vertex %d", h.AppID())
			}
			if !deleted || committed {
				t.Fatalf("deleted = %v, reader committed = %v; want the delete to land and the reader to fail validation", deleted, committed)
			}
		})
	}
}

// TestTranslationNeverServesAnotherVertex: a transaction that already
// associated the block a deleted vertex left behind — now holding another
// vertex — gets ErrNotFound for the deleted vertex's ID, not that block, even
// though its rank's cache still names the block.
func TestTranslationNeverServesAnotherVertex(t *testing.T) {
	e := NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 64, LockTries: 16})
	seed := e.StartLocal(1, ReadWrite)
	dp5, err := seed.CreateVertex(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	readVertex(t, e, 0, ReadOnly, 5, fabric.NullDPtr) // rank 0 caches 5 → dp5
	del := e.StartLocal(1, ReadWrite)
	if err := del.DeleteVertex(dp5); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	create := e.StartLocal(1, ReadWrite)
	if dp9, err := create.CreateVertex(9); err != nil || dp9 != dp5 {
		t.Fatalf("vertex 9 went to %v (%v), not into the freed block %v", dp9, err, dp5)
	}
	if err := create.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := e.StartLocal(0, ReadOnly)
	defer tx.Abort()
	if _, err := tx.AssociateVertex(dp5); err != nil {
		t.Fatal(err)
	}
	if got, err := tx.TranslateVertexID(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("TranslateVertexID(5) of a deleted vertex = %v, %v; want ErrNotFound", got, err)
	}
}

// TestTranslationServesOnlyPrimaryHeads: cache entries that name a forwarding
// stub or a follower copy's head, at those blocks' current versions, are not
// served — the translation goes to the index and returns the primary.
func TestTranslationServesOnlyPrimaryHeads(t *testing.T) {
	_, e := newReplicaEngine(t, 3)
	pt := payloadPType(t, e)
	stubbed := seedPayloadVertex(t, e, 1, pt, 4)
	moved := mustMigrate(t, e, 1, otherRank(stubbed, 3))
	primary := seedPayloadVertex(t, e, 2, pt, 4)
	follower := otherRank(primary, 3)
	if n := e.ReplicateFromRank(follower, primary.Rank(), 2); n == 0 {
		t.Fatal("seeded no follower copy")
	}
	head := followerHead(t, e, follower, primary)

	for _, c := range []struct {
		app     uint64
		planted fabric.DPtr // a block that is not the vertex's primary
		want    fabric.DPtr
	}{
		{1, stubbed, moved},
		{2, head, primary},
	} {
		for _, mode := range []Mode{ReadOnly, ReadWrite} {
			e.xlate[follower].put(c.app, c.planted, versionAt(e, follower, c.planted))
			hits, _ := e.TranslationCacheStats()
			if got := readVertex(t, e, follower, mode, c.app, fabric.NullDPtr); got != c.want {
				t.Fatalf("vertex %d, mode %d: translated to %v, want %v", c.app, mode, got, c.want)
			}
			if h, _ := e.TranslationCacheStats(); h != hits {
				t.Fatalf("vertex %d, mode %d: an entry naming %v was served", c.app, mode, c.planted)
			}
		}
	}
}

// traffic is the remote traffic of one operation, and its block-cache
// lookups, from the simulator's counters.
type traffic struct {
	atoms, atomTrains, gets, getTrains, puts, putTrains, cacheHits, cacheMisses int64
}

func measure(e *Engine, fn func()) traffic {
	b := e.Fabric().TotalSnapshot()
	fn()
	a := e.Fabric().TotalSnapshot()
	return traffic{
		a.RemoteAtoms - b.RemoteAtoms, a.AtomicBatches - b.AtomicBatches,
		a.RemoteGets - b.RemoteGets, a.GetBatches - b.GetBatches,
		a.RemotePuts - b.RemotePuts, a.PutBatches - b.PutBatches,
		a.CacheHits - b.CacheHits, a.CacheMisses - b.CacheMisses,
	}
}

// remoteApp returns the first application ID placed on rank 1 whose internal
// index entry also lives on rank 1, so a lookup from rank 0 is remote.
func remoteApp(e *Engine) uint64 {
	for app := uint64(1); ; app += 2 {
		if e.OwnerOf(app) == 1 && e.index.HomeRank(app) == 1 {
			return app
		}
	}
}

// readVertex runs translate → associate → commit of app on origin, or only
// associate → commit when dp is given, and returns what it associated.
func readVertex(t *testing.T, e *Engine, origin rma.Rank, mode Mode, app uint64, dp fabric.DPtr) fabric.DPtr {
	t.Helper()
	tx := e.StartLocal(origin, mode)
	if dp.IsNull() {
		var err error
		if dp, err = tx.TranslateVertexID(app); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if h.AppID() != app {
		t.Fatalf("associated vertex %d, want %d", h.AppID(), app)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return h.ID()
}

// TestTranslateHitTrafficContract: once rank 0 has translated a remote vertex,
// translating it again costs nothing on the wire. translate → associate →
// commit of the unchanged vertex issues exactly the traffic of associate →
// commit alone, with no DHT access, in a read-only and in a read-write
// transaction alike: the speculative association is checked on the stamp
// its guarded read loads anyway.
func TestTranslateHitTrafficContract(t *testing.T) {
	for _, mode := range []Mode{ReadOnly, ReadWrite} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			e := NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 16})
			app := remoteApp(e)
			tx := e.StartLocal(1, ReadWrite)
			dp, err := tx.CreateVertex(app)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			readVertex(t, e, 0, mode, app, fabric.NullDPtr) // fills the translation and block caches

			hits, _ := e.TranslationCacheStats()
			hit := measure(e, func() { readVertex(t, e, 0, mode, app, fabric.NullDPtr) })
			if h, _ := e.TranslationCacheStats(); h != hits+1 {
				t.Fatalf("the second translation was not a cache hit")
			}
			plain := measure(e, func() { readVertex(t, e, 0, mode, app, dp) })
			if hit != plain {
				t.Fatalf("translate → associate → commit: %+v; associate → commit: %+v; want the same", hit, plain)
			}
			t.Logf("warm read of a remote vertex: %+v", hit)
		})
	}
}

// TestOwnCommitRefreshesTranslation: a rank that writes a vertex caches it at
// the version its commit published, so its next translation is a hit.
func TestOwnCommitRefreshesTranslation(t *testing.T) {
	e := NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 16})
	pt := payloadPType(t, e)
	seedPayloadVertex(t, e, 1, pt, 4)
	writeSeq(t, e, 0, 1, 7, pt, 4) // translates (a miss), writes, commits
	hits, _ := e.TranslationCacheStats()
	readVertex(t, e, 0, ReadOnly, 1, fabric.NullDPtr)
	if h, _ := e.TranslationCacheStats(); h != hits+1 {
		t.Fatal("the writer's next translation of the vertex it committed was not a hit")
	}
}

// TestStaleTranslationCostsOneStamp: after another rank deletes and re-creates
// the vertex, a cached translation is refused on its guard version, in one
// round trip and with no GET: the head round's guarded train, since rank 0
// still caches the block at the entry's version, loads the guard alone, and
// the cache lookup the load refutes counts a miss. The translation then
// costs exactly what a translation with no cache entry costs. An entry that
// names the forwarding stub a migration left, at the stub's current
// version, is refused in one round trip too, on the stub bit of the same
// word: by the guarded train that loads the word around its GET of the stub
// block, which is then dropped. Read-only and read-write transactions pay
// the same.
func TestStaleTranslationCostsOneStamp(t *testing.T) {
	// Each history gives two engines the same past, in which rank 0's cache
	// entry for the vertex went stale; it returns the entry's app and the
	// vertex's current primary. The subtests keep the names they had when
	// re-creation was the only history.
	histories := map[string]func(t *testing.T, e *Engine, mode Mode) (uint64, fabric.DPtr){
		// Rank 0 translates the vertex, then rank 1 deletes and re-creates it.
		"": func(t *testing.T, e *Engine, mode Mode) (uint64, fabric.DPtr) {
			app := remoteApp(e)
			tx := e.StartLocal(1, ReadWrite)
			dp, err := tx.CreateVertex(app)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			readVertex(t, e, 0, mode, app, fabric.NullDPtr)
			del := e.StartLocal(1, ReadWrite)
			if err := del.DeleteVertex(dp); err != nil {
				t.Fatal(err)
			}
			if err := del.Commit(); err != nil {
				t.Fatal(err)
			}
			re := e.StartLocal(1, ReadWrite)
			if dp, err = re.CreateVertex(app); err != nil {
				t.Fatal(err)
			}
			if err := re.Commit(); err != nil {
				t.Fatal(err)
			}
			return app, dp
		},
		// The vertex moves from rank 1 to rank 0, and rank 0's entry names
		// the stub at rank 1 at the stub's version.
		"migrated/": func(t *testing.T, e *Engine, _ Mode) (uint64, fabric.DPtr) {
			app := remoteApp(e)
			stub := seedPayloadVertex(t, e, app, payloadPType(t, e), 4)
			dp := mustMigrate(t, e, app, 0)
			e.xlate[0].put(app, stub, versionAt(e, 0, stub))
			return app, dp
		},
	}
	for name, history := range histories {
		for _, mode := range []Mode{ReadOnly, ReadWrite} {
			t.Run(fmt.Sprintf("%smode=%d", name, mode), func(t *testing.T) {
				build := func() (*Engine, uint64, fabric.DPtr) {
					e := NewEngine(rma.New(2), Config{BlockSize: 256, BlocksPerRank: 1 << 10, LockTries: 16})
					app, dp := history(t, e, mode)
					return e, app, dp
				}
				stale, app, dp := build()
				cold, _, _ := build()
				cold.xlate[0] = xlateCache{size: cold.xlate[0].size}

				var got fabric.DPtr
				staleCost := measure(stale, func() { got = readVertex(t, stale, 0, mode, app, fabric.NullDPtr) })
				if got != dp {
					t.Fatalf("stale entry translated to %v, want the vertex's primary %v", got, dp)
				}
				if hits, _ := stale.TranslationCacheStats(); hits != 0 {
					t.Fatalf("%d translations served from a stale entry", hits)
				}
				coldCost := measure(cold, func() { readVertex(t, cold, 0, mode, app, fabric.NullDPtr) })
				want := coldCost
				switch {
				case name == "":
					// A train of one guard load, which refutes the cached copy.
					want.atoms++
					want.atomTrains++
					want.cacheMisses++
				default:
					// Load, GET of the stub block, load: one guarded train.
					want.atoms += 2
					want.gets++
					want.getTrains++
					want.cacheMisses++
				}
				if staleCost != want {
					t.Fatalf("stale entry: %+v; no entry: %+v; want %+v", staleCost, coldCost, want)
				}
			})
		}
	}
}

// TestTranslationChurnStress: readers translate and associate in a loop — in
// read-only and in read-write transactions — while a churner deletes vertices and
// re-creates them, under the same application ID or under a twin one, in the
// block the delete freed, a migrator moves them between ranks, and finally a
// rank dies and the survivors promote the followers of its replicated
// vertices. Checked for every translation a committed transaction served:
// the vertex it associated is a vertex head with the requested application
// ID, and the internal index agrees with it unless the guard moved past the
// version the transaction validated. After the promotion no translation names
// the dead rank.
//
// Runs under -race in CI (the translation step of the race job).
func TestTranslationChurnStress(t *testing.T) {
	const (
		ranks      = 4
		doomed     = rma.Rank(3)
		pairs      = 6  // churn keys: app a (owner rank a%4) and its twin a+twin
		twin       = 64 // a multiple of ranks: the twin has the same owner
		replicated = 8  // replicated keys, from app replBase
		replBase   = 1000
		readers    = 4
		rounds     = 300
		afterDeath = 200
	)
	f := rma.New(ranks)
	e := NewEngine(f, Config{BlockSize: 64, BlocksPerRank: 1 << 12, LockTries: 256})
	pt := payloadPType(t, e)

	// Churn keys live on ranks 0..2 only, so the death touches replicated
	// vertices alone.
	var churn []uint64
	for app := uint64(0); len(churn) < pairs; app++ {
		if e.OwnerOf(app) != doomed {
			churn = append(churn, app)
		}
	}
	for _, app := range churn {
		seedPayloadVertex(t, e, app, pt, 4)
	}
	var doomedRepl []uint64
	for i := uint64(0); i < replicated; i++ {
		app := replBase + i
		if seedPayloadVertex(t, e, app, pt, 4).Rank() == doomed {
			doomedRepl = append(doomedRepl, app)
		}
	}
	for r := 0; r < ranks; r++ {
		e.ReplicateUniform(rma.Rank(r), 2)
	}
	if len(doomedRepl) == 0 {
		t.Fatal("no replicated vertex has its primary on the doomed rank")
	}
	var keys []uint64
	for _, app := range churn {
		keys = append(keys, app, app+twin)
	}
	for i := uint64(0); i < replicated; i++ {
		keys = append(keys, replBase+i)
	}

	var (
		wg, writers sync.WaitGroup
		mu          sync.Mutex
		firstErr    error
		stop        atomic.Bool
		promoted    atomic.Bool
		served      atomic.Int64
		recycled    atomic.Int64
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	absorb := func(fn func()) {
		defer func() {
			if r := recover(); r != nil {
				if _, peer := fabric.AsPeerDeath(r); !peer {
					panic(r)
				}
			}
		}()
		fn()
	}

	// read runs one translate → associate → commit of app on rank and checks
	// what a committed transaction was served.
	read := func(rank rma.Rank, mode Mode, app uint64) {
		afterPromotion := promoted.Load()
		tx := e.StartLocal(rank, mode)
		defer tx.Abort()
		dp, err := tx.TranslateVertexID(app)
		if err != nil {
			return // not found: the churner has the twin alive
		}
		if afterPromotion && dp.Rank() == doomed {
			report(fmt.Errorf("vertex %d translated to %v on the dead rank after promotion", app, dp))
			return
		}
		h, err := tx.AssociateVertex(dp)
		if err != nil {
			return
		}
		ver := h.st.ver
		if tx.Commit() != nil {
			return
		}
		served.Add(1)
		if h.AppID() != app || h.ID() != dp {
			report(fmt.Errorf("translation of %d to %v served vertex %d at %v", app, dp, h.AppID(), h.ID()))
			return
		}
		if dp.Rank() == doomed {
			return // the index moves off the dead rank without bumping its words
		}
		if cur, ok := e.index.Lookup(rank, app); !ok || fabric.DPtr(cur) != dp {
			w := e.lockWordOf(dp).Stamp(rank)
			if locks.Version(w) == ver && !locks.WriteHeld(w) {
				report(fmt.Errorf("vertex %d: index says %v (found %v), but %v is still at the validated version %d",
					app, fabric.DPtr(cur), ok, dp, ver))
			}
		}
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*7919 + 3))
			rank := rma.Rank(r % int(doomed)) // survivors only
			mode := []Mode{ReadOnly, ReadWrite}[r%2]
			for left := afterDeath; left > 0; {
				app := keys[rng.Intn(len(keys))]
				absorb(func() { read(rank, mode, app) })
				if promoted.Load() {
					left--
				}
				runtime.Gosched() // on one CPU, the churner and migrator need turns too
			}
		}(r)
	}

	// The churner flips each pair between a and its twin: delete whichever is
	// alive, then create the other one — or the same one again — in a second
	// transaction, which the LIFO pool serves from the block just freed.
	live := make([]uint64, len(churn))
	copy(live, churn)
	writers.Add(2)
	go func() {
		defer writers.Done()
		defer stop.Store(true) // the migrator stops with the churner, once it has moved a vertex
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < rounds; i++ {
			k := rng.Intn(len(churn))
			del := e.StartLocal(rma.Rank(i%int(doomed)), ReadWrite)
			dp, err := del.TranslateVertexID(live[k])
			if err == nil {
				err = del.DeleteVertex(dp)
			}
			if err == nil {
				err = del.Commit()
			}
			del.Abort()
			if err != nil {
				continue // a committer holds it, or the migrator moved it mid-way
			}
			// A committer that looked the deleted vertex up just before can
			// still hold the freed block's word: retry.
			next := churn[k] + twin*uint64(rng.Intn(2))
			var ndp fabric.DPtr
			for try := 0; try < 64; try++ {
				cr := e.StartLocal(e.OwnerOf(next), ReadWrite)
				if ndp, err = cr.CreateVertex(next); err == nil {
					err = cr.Commit()
				}
				cr.Abort()
				if !errors.Is(err, ErrTxCritical) {
					break
				}
				runtime.Gosched()
			}
			if err != nil {
				report(fmt.Errorf("re-creating vertex %d: %v", next, err))
				return
			}
			if ndp == dp {
				recycled.Add(1)
			}
			live[k] = next
			runtime.Gosched() // let the migrator move what was just created
		}
	}()
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(29))
		// Past the churner's end the keys are stable, so a migrator that has
		// moved nothing yet keeps on until it has: the test wants one.
		for !stop.Load() || e.Migrations() == 0 {
			app := keys[rng.Intn(2*len(churn))]
			val, ok := e.index.Lookup(0, app)
			if !ok {
				continue
			}
			dest := rma.Rank(rng.Intn(int(doomed)))
			if dest == fabric.DPtr(val).Rank() {
				dest = (dest + 1) % doomed
			}
			if _, err := e.MigrateVertices(dest, []MigrationMove{{App: app, Old: fabric.DPtr(val), Dest: dest}}); err != nil {
				report(fmt.Errorf("migrating vertex %d: %v", app, err))
				return
			}
			runtime.Gosched()
		}
	}()

	// With the writers drained, kill the doomed rank under the readers' load
	// and let every survivor promote; the readers then run afterDeath more
	// translations each.
	writers.Wait()
	f.KillRank(doomed)
	promos := 0
	for r := rma.Rank(0); r < doomed; r++ {
		promos += e.PromoteDead(r)
	}
	promoted.Store(true)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if promos != len(doomedRepl) {
		t.Fatalf("promoted %d vertices, want %d", promos, len(doomedRepl))
	}
	// Quiesced, every survivor translates every replicated vertex — with
	// entries naming the dead rank in its cache — to a live placement.
	for r := rma.Rank(0); r < doomed; r++ {
		for i := uint64(0); i < replicated; i++ {
			if got := readVertex(t, e, r, ReadOnly, replBase+i, fabric.NullDPtr); got.Rank() == doomed {
				t.Fatalf("rank %d: vertex %d still translates to the dead rank", r, replBase+i)
			}
		}
	}
	hits, misses := e.TranslationCacheStats()
	if served.Load() == 0 || hits == 0 || recycled.Load() == 0 || e.Migrations() == 0 {
		t.Fatalf("served %d translations (%d hits, %d misses), %d re-creations in the freed block, %d migrations; want all non-zero",
			served.Load(), hits, misses, recycled.Load(), e.Migrations())
	}
	t.Logf("served %d committed translations: %d hits, %d misses; %d re-creations in the freed block; %d migrations",
		served.Load(), hits, misses, recycled.Load(), e.Migrations())
}
