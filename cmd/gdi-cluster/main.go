// Command gdi-cluster runs GDA as a real multi-process cluster over the TCP
// fabric backend: N ranks, each its own OS process, connected in a full mesh
// carrying one-sided operation trains. The same workload also runs over the
// in-process simulator (-backend sim), and because the dense analytics pass
// executes on the pristine loaded graph before any OLTP traffic, its report
// lines are bit-identical between the two backends on the same seed — the
// cross-backend equivalence check CI exploits.
//
// Modes:
//
//	gdi-cluster -ranks 4                  launcher: spawns 4 rank processes
//	                                      of itself and waits for them
//	gdi-cluster -rank 2 -peers a,b,c,d    join: run as rank 2 of that mesh
//	gdi-cluster -backend sim -ranks 4     single process, simulator backend
//
// The workload is fixed: load a Kronecker graph, run direction-optimizing
// dense BFS, dense PageRank and LCC (the analytics lines), then an OLTP mix with
// one worker per rank (the committed/failed line), then the one-sided
// traffic report. Only rank 0 prints.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/fabric/tcp"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/rma"
	"github.com/gdi-go/gdi/internal/workload"
)

func main() {
	backend := flag.String("backend", "tcp", "fabric backend: tcp (one process per rank) or sim (in-process simulator)")
	ranks := flag.Int("ranks", 4, "number of ranks in the cluster")
	rank := flag.Int("rank", -1, "join an existing mesh as this rank (internal: set by the launcher)")
	peers := flag.String("peers", "", "comma-separated listen addresses, one per rank (internal: set by the launcher)")
	scale := flag.Int("scale", 10, "graph has 2^scale vertices")
	ops := flag.Int("ops", 1000, "OLTP operations per rank")
	iters := flag.Int("iters", 5, "PageRank iterations")
	seed := flag.Int64("seed", 1, "generator and workload seed")
	mixName := flag.String("mix", "LinkBench", `OLTP mix: "read mostly", "read intensive", "write intensive", "LinkBench"`)
	replicas := flag.Int("replicas", 1, "k-replica holder chains: every vertex gets one primary plus k-1 follower chains kept in lockstep by the commit fan-out")
	kill := flag.Int("kill", -1, "kill-one-process variant: rank to kill halfway through the write run (must not be 0); survivors promote its followers and each prints a committed-write conservation line")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the OLTP phase to `file` (under -backend tcp each rank process writes file.<rank>)")
	flag.Parse()
	if *kill == 0 || *kill >= *ranks {
		fatalf("-kill must name a non-zero rank below -ranks (rank 0 prints the reports)")
	}
	if *kill >= 0 && *cpuprofile != "" {
		fatalf("-cpuprofile profiles the fixed workload's OLTP phase; the -kill variant has none")
	}

	var mix workload.Mix
	found := false
	for _, m := range workload.Mixes {
		if m.Name == *mixName {
			mix, found = m, true
		}
	}
	if !found {
		fatalf("unknown mix %q", *mixName)
	}

	switch {
	case *backend == "sim":
		rt := gdi.Init(*ranks)
		if *kill >= 0 {
			runKill(rt, *ops, *seed, *replicas, *kill)
		} else {
			runWorkload(rt, mix, *scale, *ops, *iters, *seed, *replicas, profile{0, *cpuprofile})
		}
	case *rank >= 0:
		list := strings.Split(*peers, ",")
		t, err := tcp.New(tcp.Config{Rank: *rank, Peers: list})
		if err != nil {
			fatalf("%v", err)
		}
		rt := gdi.InitWithTransport(t)
		if *kill >= 0 {
			runKill(rt, *ops, *seed, *replicas, *kill)
		} else {
			prof := profile{rank: *rank}
			if *cpuprofile != "" {
				prof.path = fmt.Sprintf("%s.%d", *cpuprofile, *rank)
			}
			runWorkload(rt, mix, *scale, *ops, *iters, *seed, *replicas, prof)
		}
	case *backend == "tcp":
		launch(*ranks, *kill)
	default:
		fatalf("unknown backend %q", *backend)
	}
}

// launch spawns one rank process per rank of a fresh mesh and waits for all
// of them, forwarding their output. In the kill variant (kill >= 0) that
// rank's process SIGKILLs itself mid-run, so its non-zero exit is expected
// and does not fail the cluster.
func launch(n, kill int) {
	peers, err := freePorts(n)
	if err != nil {
		fatalf("%v", err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	args := []string{"-rank", "", "-peers", strings.Join(peers, ",")}
	// Forward every workload flag the launcher received.
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "rank" && f.Name != "peers" && f.Name != "backend" {
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	procs := make([]*exec.Cmd, n)
	for r := 0; r < n; r++ {
		a := append([]string(nil), args...)
		a[1] = strconv.Itoa(r)
		cmd := exec.Command(exe, a...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fatalf("starting rank %d: %v", r, err)
		}
		procs[r] = cmd
	}
	failed := false
	for r, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			if r == kill {
				fmt.Printf("killed: rank %d (%v)\n", r, err)
				continue
			}
			fmt.Fprintf(os.Stderr, "gdi-cluster: rank %d: %v\n", r, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// freePorts reserves n distinct loopback ports by binding and immediately
// releasing them; the rank processes re-bind moments later. The window in
// between is a benign race on an otherwise idle CI host.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
	}
	for _, lis := range listeners {
		lis.Close()
	}
	return addrs, nil
}

// runWorkload executes the fixed cluster workload over whatever transport
// the runtime wraps. On a wire transport every rank process executes this
// same function; the collective calls inside line them up.
// profile is where a process profiles the OLTP phase: the rank that starts
// and stops the profile — the process's own rank on a wire transport, rank 0
// in the simulator's one process — and the file it writes ("" for none).
type profile struct {
	rank int
	path string
}

func runWorkload(rt *gdi.Runtime, mix workload.Mix, scale, ops, iters int, seed int64, replicas int, prof profile) {
	cfg := kron.Config{Scale: scale, EdgeFactor: 16, Seed: seed, NumLabels: 20, NumProps: 13}.WithDefaults()
	idxBuckets, idxEntries := workload.IndexSizing(cfg, rt.Size())
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:           512,
		BlocksPerRank:       int((cfg.NumVertices()*12+cfg.NumEdges()*2)/uint64(rt.Size())) + (1 << 13),
		IndexBucketsPerRank: idxBuckets,
		IndexEntriesPerRank: idxEntries,
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		fatalf("%v", err)
	}
	g := &analytics.Graph{DB: db, Schema: sch}
	sys := &workload.GDASystem{DB: db, Schema: sch}

	// The analytics pass runs first, on the pristine loaded graph: its lines
	// depend only on (scale, seed, ranks, iters), so they are bit-identical
	// between the TCP mesh and the simulator. OLTP then follows, where only
	// liveness (committed > 0) is asserted — interleavings are real.
	rt.Run(db, func(p *gdi.Process) {
		me := p.Rank()
		if replicas > 1 {
			seeded := p.Replicate(replicas)
			total := p.AllreduceInt64(int64(seeded))
			if me == 0 {
				fmt.Printf("replication: k=%d, seeded %d follower chains\n", replicas, total)
			}
			p.Barrier()
		}
		visited, depth, bstats, err := analytics.BFSDense(p, g, 0)
		if err != nil {
			fatalf("bfs: %v", err)
		}
		if me == 0 {
			fmt.Printf("bfs: visited %d vertices, eccentricity %d (%d push / %d pull levels)\n",
				visited, depth, bstats.PushLevels, bstats.PullLevels)
		}
		masses, norm, err := analytics.PageRank(p, g, iters, 0.85)
		if err != nil {
			fatalf("pagerank: %v", err)
		}
		if me == 0 {
			// Rank 0's shard mass is a partition-dependent fingerprint of the
			// whole computation — a far stronger cross-backend equivalence
			// signal than the global norm, which normalizes to 1.
			apps := make([]uint64, 0, len(masses))
			for app := range masses {
				apps = append(apps, app)
			}
			slices.Sort(apps) // map order is random; FP addition is not associative
			local := 0.0
			for _, app := range apps {
				local += masses[app]
			}
			fmt.Printf("pagerank: i=%d df=0.85, total mass %.12f, rank0 mass %.12f over %d vertices\n",
				iters, norm, local, len(masses))
		}
		avgLCC, err := analytics.LCC(p, g)
		if err != nil {
			fatalf("lcc: %v", err)
		}
		if me == 0 {
			// %.17g round-trips a float64, so equal lines mean equal bits.
			fmt.Printf("lcc: average %.17g\n", avgLCC)
		}
		// The profile starts before the barrier every rank leaves for the
		// OLTP phase, and stops once the reduction of its counts shows every
		// rank through it.
		var stopProfile func() error
		if int(me) == prof.rank {
			if stopProfile, err = workload.StartCPUProfile(prof.path); err != nil {
				fatalf("%v", err)
			}
		}
		p.Barrier()

		committed, failed := oltpWorker(sys, p, mix, cfg, ops, seed)
		totalCommitted := p.AllreduceInt64(committed)
		totalFailed := p.AllreduceInt64(failed)
		if stopProfile != nil {
			if err := stopProfile(); err != nil {
				fatalf("%v", err)
			}
		}
		if me == 0 {
			fmt.Printf("oltp: mix=%q ranks=%d ops=%d committed=%d failed=%d\n",
				mix.Name, p.Size(), p.Size()*ops, totalCommitted, totalFailed)
		}
		p.Barrier()
		if me == 0 {
			snap := rt.Transport().TotalSnapshot()
			fmt.Printf("traffic: remote puts %d (trains %d), remote gets %d (trains %d), remote atomics %d (trains %d), bytes put %d, bytes got %d\n",
				snap.RemotePuts, snap.PutBatches, snap.RemoteGets, snap.GetBatches,
				snap.RemoteAtoms, snap.AtomicBatches, snap.BytesPut, snap.BytesGot)
		}
		if replicas > 1 && me == 0 {
			// Engine counters are process-local on a wire transport: this is
			// rank 0's view (the whole cluster's on the simulator).
			st := db.ReplicaStats()
			fmt.Printf("replication: replica reads %d, reseeds %d, promotions %d, drops %d\n",
				st.Reads, st.Reseeds, st.Promotions, st.Drops)
		}
		p.Barrier()
	})
	rt.Finalize()
	// Exactly one line per cluster: rank 0's process (or the single sim
	// process) reports the clean shutdown CI greps for.
	if rt.Transport().Local(0) {
		fmt.Println("shutdown: clean")
	}
}

// runKill executes the kill-one-process conservation workload: a flat
// vertex set replicated k ways, every rank rewriting its own key slice with
// monotonically increasing sequence payloads, the doomed rank dying halfway
// through its write loop (SIGKILL on the TCP mesh, the simulator's KillRank
// hook in-process). Each survivor then promotes the dead rank's followers
// and re-reads every write it successfully committed: a committed sequence
// that is not readable afterwards — promoted copies included — is a lost
// write and fails the run. Keys whose lookup metadata (DHT shard) died with
// the killed process are counted unresolvable rather than lost: on a real
// wire transport the dead rank's memory is gone, and the directory itself
// is not replicated.
//
// No collective runs after the kill point — with a dead rank the collective
// layer would hang — so the drain before promotion and the cross-rank
// alignment before shutdown are generous sleeps, which is all a smoke tier
// needs.
func runKill(rt *gdi.Runtime, ops int, seed int64, replicas, kill int) {
	const (
		numVertices  = 256
		payloadBytes = 16
	)
	if replicas < 2 {
		replicas = 3
	}
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:     512,
		BlocksPerRank: 1 << 13,
		LockTries:     512,
	})
	payload, err := db.DefinePType("payload", gdi.PTypeSpec{Datatype: gdi.TypeBytes})
	if err != nil {
		fatalf("%v", err)
	}
	sim, _ := rt.Transport().(*rma.Fabric)
	rt.Run(db, func(p *gdi.Process) {
		me := int(p.Rank())
		n := p.Size()
		var specs []gdi.VertexSpec
		if me == 0 {
			for app := uint64(0); app < numVertices; app++ {
				specs = append(specs, gdi.VertexSpec{
					AppID: app,
					Props: []gdi.Property{{PType: payload, Value: make([]byte, payloadBytes)}},
				})
			}
		}
		if err := p.BulkLoadVertices(specs); err != nil {
			fatalf("%v", err)
		}
		seeded := p.Replicate(replicas)
		total := p.AllreduceInt64(int64(seeded))
		if me == 0 {
			fmt.Printf("replication: k=%d, seeded %d follower chains\n", replicas, total)
		}
		p.Barrier() // the last collective: everything below survives a dead rank

		// Every rank owns the keys congruent to it mod n, so "last committed
		// sequence" per key has exactly one writer and is well defined.
		committed := make(map[uint64]uint64)
		seq := uint64(me)*1_000_000 + 1
		for i := 0; i < ops; i++ {
			if me == kill && i == ops/2 {
				if sim != nil {
					sim.KillRank(gdi.Rank(kill))
					return // the dead rank does no further work
				}
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
			app := uint64(me + (i%(numVertices/n))*n)
			s := seq
			if absorb(func() bool { return writeSeq(p, payload, app, s) }) {
				committed[app] = s
				seq++
			}
		}
		if me == kill {
			return
		}
		// Drain: the other survivors finish their write loops (same length,
		// same machine) before anyone promotes over their in-flight commits.
		time.Sleep(1 * time.Second)
		promos := p.PromoteDead()
		time.Sleep(1 * time.Second) // let every survivor finish promoting

		checked, unresolvable := 0, 0
		for app, want := range committed {
			var got uint64
			ok := false
			for try := 0; try < 10 && !ok; try++ {
				if try > 0 {
					time.Sleep(200 * time.Millisecond)
				}
				ok = absorb(func() bool {
					g, valid := readSeqValue(p, payload, app)
					got = g
					return valid
				})
			}
			if !ok {
				unresolvable++
				continue
			}
			if got != want {
				fmt.Fprintf(os.Stderr,
					"gdi-cluster: conservation: rank %d LOST vertex %d: committed seq %d, read back %d\n",
					me, app, want, got)
				os.Exit(1)
			}
			checked++
		}
		fmt.Printf("conservation: rank %d ok (%d committed writes verified, %d unresolvable, %d promoted)\n",
			me, checked, unresolvable, promos)
		time.Sleep(1 * time.Second) // laggard survivors may still need our windows
	})
	rt.Finalize()
	if rt.Transport().Local(0) {
		fmt.Println("shutdown: clean")
	}
}

// writeSeq commits one fixed-size payload rewrite of app carrying seq. The
// deferred Abort is a no-op after Commit closed the transaction; it matters
// on the error paths and when a peer-death panic unwinds through here.
func writeSeq(p *gdi.Process, payload gdi.PTypeID, app, seq uint64) bool {
	tx := p.StartTransaction(gdi.ReadWrite)
	defer tx.Abort()
	dp, err := tx.TranslateVertexID(app)
	if err != nil {
		return false
	}
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		return false
	}
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, seq)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	if err := h.SetProperty(payload, buf); err != nil {
		return false
	}
	return tx.Commit() == nil
}

// readSeqValue reads app's payload through a validated optimistic read and
// returns the sequence it carries.
func readSeqValue(p *gdi.Process, payload gdi.PTypeID, app uint64) (uint64, bool) {
	tx := p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	dp, err := tx.TranslateVertexID(app)
	if err != nil {
		return 0, false
	}
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		return 0, false
	}
	v, ok := h.Property(payload)
	if !ok || len(v) != 16 {
		return 0, false
	}
	a := binary.LittleEndian.Uint64(v)
	b := binary.LittleEndian.Uint64(v[8:])
	if a != b { // torn read: the optimistic validation below must reject it
		return 0, false
	}
	return a, tx.Commit() == nil
}

// absorb runs one transaction attempt, converting a peer-death panic (an
// access that raced into the dead rank) into false — what any production
// driver does when a request hits a dying peer.
func absorb(fn func() bool) (ok bool) {
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

// oltpWorker drives one closed-loop OLTP session on this rank against its
// own process and returns (committed, failed) counts.
func oltpWorker(sys *workload.GDASystem, p *gdi.Process, mix workload.Mix, cfg kron.Config, ops int, seed int64) (committed, failed int64) {
	me := int(p.Rank())
	n := p.Size()
	client := sys.NewClient(me)
	rng := rand.New(rand.NewSource(seed + int64(me)*7919))
	keySpace := cfg.NumVertices()
	inserts := 0
	for i := 0; i < ops; i++ {
		op := pickOp(mix, rng)
		app := rng.Uint64() % keySpace
		app2 := rng.Uint64() % keySpace
		if op == workload.OpAddVertex {
			// Fresh appIDs disjoint across ranks, above the loaded key space.
			app = keySpace + uint64(inserts)*uint64(n) + uint64(me) + 1
			inserts++
		}
		switch err := client.Do(op, app, app2); err {
		case nil:
			committed++
		case workload.ErrTxFailed:
			failed++
		default:
			fatalf("oltp rank %d: %v", me, err)
		}
	}
	return committed, failed
}

// pickOp samples one operation from the mix's weights.
func pickOp(mix workload.Mix, rng *rand.Rand) workload.Op {
	r := rng.Float64()
	acc := 0.0
	for op := workload.Op(0); op < workload.NumOps; op++ {
		acc += mix.Weights[op]
		if r < acc {
			return op
		}
	}
	return workload.OpGetProps
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gdi-cluster: "+format+"\n", args...)
	os.Exit(1)
}
