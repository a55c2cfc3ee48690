package tcp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/rma"
)

// runCluster drives one SPMD program over every transport of a loopback
// cluster (each Transport.Run hosts exactly one rank) and closes the mesh
// once all ranks return.
func runCluster(t *testing.T, ts []*Transport, fn func(tr fabric.Transport, me fabric.Rank)) {
	t.Helper()
	var wg sync.WaitGroup
	for _, tr := range ts {
		wg.Add(1)
		go func(tr *Transport) {
			defer wg.Done()
			tr.Run(func(me fabric.Rank) { fn(tr, me) })
		}(tr)
	}
	wg.Wait()
	for _, tr := range ts {
		tr.Close()
	}
}

// opScript executes a deterministic mixed workload of scalar and vectored
// window operations from every rank against every rank, and returns a digest
// of everything observed. Running it over the simulator and over the TCP
// loopback mesh must produce identical digests — the backends are
// semantically interchangeable.
func opScript(tr fabric.Transport, me fabric.Rank, bw fabric.ByteWin, ww fabric.WordWin, comm *collective.Comm) []byte {
	n := tr.Size()
	rng := rand.New(rand.NewSource(100 + int64(me)))
	var digest []byte

	// Phase 1: every rank writes rank-tagged pages into every segment, in
	// disjoint per-origin regions so the phase is race-free by construction.
	region := bw.SegSize() / n
	for tgt := 0; tgt < n; tgt++ {
		data := make([]byte, 64+rng.Intn(200))
		for i := range data {
			data[i] = byte(int(me)*31 + i)
		}
		bw.Put(me, fabric.Rank(tgt), int(me)*region, data)
		ops := []fabric.PutOp{
			{Off: int(me)*region + 512, Data: bytes.Repeat([]byte{byte(me) + 1}, 33)},
			{Off: int(me)*region + 777, Data: []byte(fmt.Sprintf("origin-%d", me))},
		}
		bw.PutBatch(me, fabric.Rank(tgt), ops)
	}
	comm.Barrier(me)

	// Phase 2: read back every origin's region from every segment, scalar and
	// vectored, and fold the bytes into the digest.
	for tgt := 0; tgt < n; tgt++ {
		for src := 0; src < n; src++ {
			buf := make([]byte, 64)
			bw.Get(me, fabric.Rank(tgt), src*region, buf)
			digest = append(digest, buf...)
		}
		gops := []fabric.GetOp{
			{Off: 512, Buf: make([]byte, 33)},
			{Off: 777, Buf: make([]byte, 8)},
		}
		bw.GetBatch(me, fabric.Rank(tgt), gops)
		for _, g := range gops {
			digest = append(digest, g.Buf...)
		}
	}
	comm.Barrier(me)

	// Phase 3: contended word atomics. Every rank FetchAdds every counter
	// word and CAS-claims per-rank slots; totals are deterministic even
	// though interleavings are not.
	for tgt := 0; tgt < n; tgt++ {
		ww.FetchAdd(me, fabric.Rank(tgt), 0, 1)
		ww.FetchAdd(me, fabric.Rank(tgt), 1, uint64(me)+1)
		// Slot n+me is uncontended: the CAS train must succeed then fail.
		res := ww.CASBatch(me, fabric.Rank(tgt), []fabric.CASOp{
			{Idx: 2 + int(me), Old: 0, New: uint64(me) + 100},
			{Idx: 2 + int(me), Old: 0, New: 9999},
		})
		digest = append(digest, boolByte(res[0].Swapped), boolByte(res[1].Swapped))
		digest = binary.LittleEndian.AppendUint64(digest, res[1].Prev)
		ww.Store(me, fabric.Rank(tgt), 2+n+int(me), uint64(me)^0xDEAD)
	}
	comm.Barrier(me)

	// Phase 4: observe the settled words everywhere.
	for tgt := 0; tgt < n; tgt++ {
		digest = binary.LittleEndian.AppendUint64(digest, ww.Load(me, fabric.Rank(tgt), 0))
		digest = binary.LittleEndian.AppendUint64(digest, ww.Load(me, fabric.Rank(tgt), 1))
		idxs := make([]int, 2*n)
		for i := range idxs {
			idxs[i] = 2 + i
		}
		for _, v := range ww.LoadBatch(me, fabric.Rank(tgt), idxs) {
			digest = binary.LittleEndian.AppendUint64(digest, v)
		}
	}
	comm.Barrier(me)
	return digest
}

// runOpScript executes opScript over an arbitrary transport and returns the
// per-rank digests.
func runOpScript(tr fabric.Transport) [][]byte {
	n := tr.Size()
	bw := tr.NewByteWin(1 << 13)
	ww := tr.NewWordWin(2 + 2*n)
	out := make([][]byte, n)
	tr.Run(func(me fabric.Rank) {
		out[me] = opScript(tr, me, bw, ww, collective.New(tr))
	})
	return out
}

func TestLoopbackMatchesSimulator(t *testing.T) {
	const n = 3
	sim := rma.New(n)
	simDigests := runOpScript(sim)

	ts, err := NewLoopbackCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	tcpDigests := make([][]byte, n)
	var wg sync.WaitGroup
	for rank, tr := range ts {
		wg.Add(1)
		go func(rank int, tr *Transport) {
			defer wg.Done()
			bw := tr.NewByteWin(1 << 13)
			ww := tr.NewWordWin(2 + 2*n)
			tr.Run(func(me fabric.Rank) {
				tcpDigests[me] = opScript(tr, me, bw, ww, collective.New(tr))
			})
		}(rank, tr)
	}
	wg.Wait()
	for _, tr := range ts {
		tr.Close()
	}

	for r := 0; r < n; r++ {
		if !bytes.Equal(simDigests[r], tcpDigests[r]) {
			t.Errorf("rank %d: TCP digest (%d bytes) diverges from simulator digest (%d bytes)",
				r, len(tcpDigests[r]), len(simDigests[r]))
		}
	}
}

func TestLoopbackCollectives(t *testing.T) {
	const n = 4
	ts, err := NewLoopbackCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, ts, func(tr fabric.Transport, me fabric.Rank) {
		comm := collective.New(tr)
		sum := collective.Allreduce(comm, me, int64(me)+1, func(a, b int64) int64 { return a + b })
		if sum != n*(n+1)/2 {
			t.Errorf("rank %d: Allreduce sum = %d, want %d", me, sum, n*(n+1)/2)
		}
		got := collective.Bcast(comm, me, 2, pick(me == 2, []byte("payload from two"), nil))
		if string(got) != "payload from two" {
			t.Errorf("rank %d: Bcast = %q", me, got)
		}
		all := collective.Allgather(comm, me, fmt.Sprintf("r%d", me))
		for r, s := range all {
			if s != fmt.Sprintf("r%d", r) {
				t.Errorf("rank %d: Allgather[%d] = %q", me, r, s)
			}
		}
		mine := collective.Exscan(comm, me, int64(1)<<uint(me), func(a, b int64) int64 { return a + b })
		if want := int64(1)<<uint(me) - 1; mine != want {
			t.Errorf("rank %d: Exscan = %d, want %d", me, mine, want)
		}
		comm.Barrier(me)
	})
}

func TestLoopbackInboxDelivery(t *testing.T) {
	const n = 3
	ts, err := NewLoopbackCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, ts, func(tr fabric.Transport, me fabric.Rank) {
		inbox := tr.NewInbox(3 * 1024)
		comm := collective.New(tr)
		for tgt := 0; tgt < n; tgt++ {
			inbox.Deliver(me, fabric.Rank(tgt), []byte(fmt.Sprintf("from %d to %d", me, tgt)))
		}
		comm.Barrier(me)
		seen := 0
		inbox.Drain(me, func(src fabric.Rank, payload []byte) {
			if want := fmt.Sprintf("from %d to %d", src, me); string(payload) != want {
				t.Errorf("rank %d: drained %q from %d, want %q", me, payload, src, want)
			}
			seen++
		})
		if seen != n {
			t.Errorf("rank %d: drained %d deliveries, want %d", me, seen, n)
		}
		comm.Barrier(me)
	})
}

func TestLoopbackServiceCalls(t *testing.T) {
	const n = 2
	ts, err := NewLoopbackCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		tr.Register(fabric.SvcIndexAdd, func(from fabric.Rank, req []byte) []byte {
			return append([]byte(fmt.Sprintf("seen-by-%d-from-%d:", tr.me, from)), req...)
		})
	}
	runCluster(t, ts, func(tr fabric.Transport, me fabric.Rank) {
		other := fabric.Rank(1 - int(me))
		resp := tr.Call(me, other, fabric.SvcIndexAdd, []byte("hello"))
		if want := fmt.Sprintf("seen-by-%d-from-%d:hello", other, me); string(resp) != want {
			t.Errorf("rank %d: Call = %q, want %q", me, resp, want)
		}
		self := tr.Call(me, me, fabric.SvcIndexAdd, []byte("self"))
		if want := fmt.Sprintf("seen-by-%d-from-%d:self", me, me); string(self) != want {
			t.Errorf("rank %d: local Call = %q, want %q", me, self, want)
		}
		collective.New(tr).Barrier(me)
	})
}

func TestLoopbackCounters(t *testing.T) {
	const n = 2
	ts, err := NewLoopbackCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, ts, func(tr fabric.Transport, me fabric.Rank) {
		bw := tr.NewByteWin(4096)
		comm := collective.New(tr)
		other := fabric.Rank(1 - int(me))
		bw.Put(me, other, 0, make([]byte, 100))
		bw.Get(me, me, 0, make([]byte, 50))
		comm.Barrier(me)
		own := tr.CounterSnapshot(me)
		if own.RemotePuts != 1 || own.BytesPut != 100 {
			t.Errorf("rank %d: RemotePuts=%d BytesPut=%d, want 1/100", me, own.RemotePuts, own.BytesPut)
		}
		peer := tr.CounterSnapshot(other)
		if peer.RemotePuts != 1 || peer.LocalGets != 1 {
			t.Errorf("rank %d: peer RemotePuts=%d LocalGets=%d, want 1/1", me, peer.RemotePuts, peer.LocalGets)
		}
		tot := tr.TotalSnapshot()
		if tot.RemotePuts != 2 || tot.LocalGets != 2 || tot.BytesPut != 200 {
			t.Errorf("rank %d: total %+v", me, tot)
		}
		comm.Barrier(me)
		if me == 0 {
			tr.ResetCounters()
		}
		comm.Barrier(me)
		if tot := tr.TotalSnapshot(); tot.RemoteOps() != 0 && me == 0 {
			t.Errorf("after reset: total remote ops = %d", tot.RemoteOps())
		}
		comm.Barrier(me)
	})
}

// TestPeerDeathFailsPendingCalls covers the mid-run failure path: a request
// blocked on a peer whose connection dies must complete promptly with
// *fabric.PeerError instead of hanging forever, the registered death callback
// must fire, Alive must flip, and every subsequent operation toward the dead
// peer must fail immediately.
func TestPeerDeathFailsPendingCalls(t *testing.T) {
	const n = 3
	const victim = fabric.Rank(2)
	ts, err := NewLoopbackCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()

	// The victim's handler wedges until the test ends, so the in-flight
	// request can only complete through the death path.
	block := make(chan struct{})
	defer close(block)
	entered := make(chan struct{}, 1)
	for _, tr := range ts {
		tr.Register(fabric.SvcIndexAdd, func(from fabric.Rank, req []byte) []byte {
			entered <- struct{}{}
			<-block
			return nil
		})
	}
	deaths := make(chan fabric.Rank, n)
	ts[0].NotifyPeerDeath(func(r fabric.Rank) { deaths <- r })

	callErr := make(chan *fabric.PeerError, 1)
	go func() {
		var pe *fabric.PeerError
		defer func() {
			if r := recover(); r != nil {
				pe, _ = fabric.AsPeerDeath(r)
			}
			callErr <- pe
		}()
		ts[0].Call(0, victim, fabric.SvcIndexAdd, []byte("stuck"))
	}()

	<-entered // the request reached the victim and its handler is wedged
	ts[victim].Close()

	select {
	case pe := <-callErr:
		if pe == nil || pe.Rank != victim {
			t.Fatalf("blocked Call: want *fabric.PeerError for rank %d, got %v", victim, pe)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Call still hanging 5s after the peer died")
	}

	select {
	case r := <-deaths:
		if r != victim {
			t.Fatalf("death callback fired for rank %d, want %d", r, victim)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("death callback never fired")
	}

	if ts[0].Alive(victim) {
		t.Error("Alive(victim) = true after its connection died")
	}
	if !ts[0].Alive(1) {
		t.Error("Alive(1) = false, but rank 1 is healthy")
	}

	// Subsequent operations toward the dead peer fail fast, not after a
	// network timeout.
	start := time.Now()
	func() {
		defer func() {
			if pe, ok := fabric.AsPeerDeath(recover()); !ok || pe.Rank != victim {
				t.Errorf("post-death Call: want *fabric.PeerError for rank %d, got %v", victim, pe)
			}
		}()
		ts[0].Call(0, victim, fabric.SvcIndexAdd, nil)
		t.Error("post-death Call returned instead of failing")
	}()
	if e := time.Since(start); e > time.Second {
		t.Errorf("post-death Call took %v, want immediate failure", e)
	}
}

func pick[T any](cond bool, a, b T) T {
	if cond {
		return a
	}
	return b
}

// TestDialRetriesPromptly: the higher rank's first dial is refused, because
// the lower rank starts listening a few ms later, and New must still return
// well before a fixed 50 ms poll could have retried — a refused dial backs
// off from 1 ms.
func TestDialRetriesPromptly(t *testing.T) {
	const listenAfter = 5 * time.Millisecond
	reserve, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0 := reserve.Addr().String()
	reserve.Close() // rank 0's port refuses dials until it listens again
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{addr0, lis1.Addr().String()}

	type result struct {
		tr  *Transport
		err error
		in  time.Duration
	}
	rank1 := make(chan result, 1)
	start := time.Now()
	go func() {
		tr, err := New(Config{Rank: 1, Peers: peers, Listener: lis1, DialTimeout: 10 * time.Second})
		rank1 <- result{tr, err, time.Since(start)}
	}()
	time.Sleep(listenAfter)
	lis0, err := net.Listen("tcp", addr0)
	if err != nil {
		t.Fatalf("listening again on rank 0's port: %v", err)
	}
	tr0, err := New(Config{Rank: 0, Peers: peers, Listener: lis0})
	if err != nil {
		t.Fatal(err)
	}
	defer tr0.Close()
	r := <-rank1
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.tr.Close()
	if r.in >= dialPollMax {
		t.Fatalf("rank 1's New took %v with rank 0 listening after %v: want under the %v poll", r.in, listenAfter, dialPollMax)
	}
}
