// Package tcp is the real multi-process backend of the fabric SPI: each
// rank is its own OS process, and one-sided operations travel as framed
// request/response trains over a full TCP mesh.
//
// The semantics match the simulator backend (package rma) exactly — the
// engine cannot tell them apart — but the mechanism differs where an RDMA
// NIC would: remote operations are serviced by a transport-owned handler
// goroutine in the target's process (software-emulated one-sided access;
// the target's application code still never runs on the data path), and a
// vectored train is one request/response round-trip however many
// constituent operations it carries, which preserves the paper's §5.6
// batching economics over a real network.
//
// # Bootstrap
//
// Every process knows the full address list (rank i listens on Peers[i]).
// Rank pairs connect lower-listens/higher-dials: process p dials every rank
// below it (retrying while those listeners come up) and accepts one
// connection from every rank above it, identified by a hello frame. After
// New returns, the mesh is complete.
//
// # Window identity
//
// Windows are identified across processes by collective allocation order
// (the SPMD contract of the fabric package): the i-th window allocated on
// every process is window i. Each process holds only its own rank's
// segment; Transport.Run exchanges window digests (kind and size per
// window, in order) before releasing application code, so a divergent
// allocation sequence fails fast instead of corrupting remote memory.
package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gdi-go/gdi/internal/fabric"
)

// Config describes one rank's membership in the cluster.
type Config struct {
	// Rank is this process's rank in [0, len(Peers)).
	Rank int
	// Peers lists every rank's listen address, indexed by rank.
	Peers []string
	// Listener optionally supplies a pre-bound listener for this rank
	// (loopback tests bind ephemeral ports before the addresses are known);
	// when nil, New listens on Peers[Rank].
	Listener net.Listener
	// DialTimeout bounds how long New retries dialing a lower-ranked peer
	// whose listener has not come up yet (default 60s).
	DialTimeout time.Duration
}

// Transport is a TCP-mesh fabric backend hosting exactly one rank. It
// implements fabric.Transport.
type Transport struct {
	me    fabric.Rank
	n     int
	lis   net.Listener
	peers []*peerConn // indexed by rank; peers[me] == nil

	winMu   sync.Mutex
	winCond *sync.Cond // signalled on every addWindow
	wins    []window
	digest  []byte // (kind, size) per window, in allocation order

	counters fabric.Counters
	msgr     *messenger

	svcMu    sync.RWMutex
	services map[fabric.ServiceID]fabric.Handler

	nextReq atomic.Uint64
	pending sync.Map // reqID uint64 -> *pendingReq

	liveMu    sync.Mutex
	deathSubs []func(fabric.Rank)

	closed atomic.Bool
}

// pendingReq is one in-flight request: the response channel plus the target
// rank, so a dying connection can fail exactly its own requests.
type pendingReq struct {
	target fabric.Rank
	ch     chan pendingResp
}

// pendingResp completes one request: the response payload, or dead=true when
// the peer connection died before responding.
type pendingResp struct {
	data []byte
	dead bool
}

var _ fabric.Transport = (*Transport)(nil)

// window is the server-side dispatch view of one collectively allocated
// window: exactly one of bw/ww is set.
type window interface {
	digestEntry() (kind byte, size uint64)
}

// peerConn is one mesh edge: a single TCP connection to a peer rank, with
// serialized writes and a reader goroutine demultiplexing responses,
// requests, and messenger frames.
type peerConn struct {
	rank fabric.Rank
	c    net.Conn
	wmu  sync.Mutex
	dead atomic.Bool
}

func (p *peerConn) writeFrame(ft byte, body []byte) error {
	return p.write(appendFrame(make([]byte, 0, 5+len(body)), ft, body))
}

// write sends one encoded frame.
func (p *peerConn) write(frame []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	_, err := p.c.Write(frame)
	return err
}

// New bootstraps this rank's end of the mesh and blocks until every pair
// connection is established.
func New(cfg Config) (*Transport, error) {
	n := len(cfg.Peers)
	if n < 1 || n > 1<<16 {
		return nil, fmt.Errorf("tcp: rank count %d out of range [1, 65536]", n)
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("tcp: rank %d out of range [0, %d)", cfg.Rank, n)
	}
	t := &Transport{
		me:       fabric.Rank(cfg.Rank),
		n:        n,
		peers:    make([]*peerConn, n),
		services: make(map[fabric.ServiceID]fabric.Handler),
	}
	t.winCond = sync.NewCond(&t.winMu)
	t.msgr = newMessenger(t)
	if n == 1 {
		return t, nil
	}

	lis := cfg.Listener
	if lis == nil {
		var err error
		lis, err = net.Listen("tcp", cfg.Peers[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("tcp: rank %d listening on %s: %w", cfg.Rank, cfg.Peers[cfg.Rank], err)
		}
	}
	t.lis = lis

	// Dial every lower rank (they listen for us), retrying while their
	// listeners come up; accept one connection from every higher rank.
	timeout := cfg.DialTimeout
	if timeout == 0 {
		timeout = 60 * time.Second
	}
	errc := make(chan error, 2)
	go func() { errc <- t.dialLower(cfg.Peers, timeout) }()
	go func() { errc <- t.acceptHigher() }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			lis.Close()
			return nil, err
		}
	}
	for r, p := range t.peers {
		if p != nil {
			go t.readLoop(p)
		} else if fabric.Rank(r) != t.me {
			lis.Close()
			return nil, fmt.Errorf("tcp: rank %d has no connection to rank %d", t.me, r)
		}
	}
	return t, nil
}

// dialPollMax caps the back-off between refused dials of a lower rank.
const dialPollMax = 50 * time.Millisecond

func (t *Transport) dialLower(peers []string, timeout time.Duration) error {
	for r := 0; r < int(t.me); r++ {
		deadline := time.Now().Add(timeout)
		var c net.Conn
		// A refused dial backs off from 1 ms, doubling up to 50 ms: a lower
		// rank usually starts listening within a few ms of our first dial,
		// and a fixed 50 ms poll would add most of a poll to every set-up.
		for wait := time.Millisecond; ; wait = min(2*wait, dialPollMax) {
			var err error
			c, err = net.Dial("tcp", peers[r])
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("tcp: rank %d dialing rank %d at %s: %w", t.me, r, peers[r], err)
			}
			time.Sleep(wait)
		}
		var hello [2]byte
		binary.LittleEndian.PutUint16(hello[:], uint16(t.me))
		p := &peerConn{rank: fabric.Rank(r), c: c}
		if err := p.writeFrame(ftHello, hello[:]); err != nil {
			return fmt.Errorf("tcp: rank %d hello to rank %d: %w", t.me, r, err)
		}
		t.peers[r] = p
	}
	return nil
}

func (t *Transport) acceptHigher() error {
	for accepted := 0; accepted < t.n-1-int(t.me); accepted++ {
		c, err := t.lis.Accept()
		if err != nil {
			return fmt.Errorf("tcp: rank %d accepting: %w", t.me, err)
		}
		ft, body, err := readFrame(c)
		if err != nil || ft != ftHello || len(body) != 2 {
			c.Close()
			return fmt.Errorf("tcp: rank %d bad handshake: type=%d err=%v", t.me, ft, err)
		}
		r := fabric.Rank(binary.LittleEndian.Uint16(body))
		if r <= t.me || int(r) >= t.n || t.peers[r] != nil {
			c.Close()
			return fmt.Errorf("tcp: rank %d unexpected hello from rank %d", t.me, r)
		}
		t.peers[r] = &peerConn{rank: r, c: c}
	}
	return nil
}

// readLoop demultiplexes one peer connection: responses complete pending
// requests, requests are served by per-request goroutines (the transport's
// stand-in for the NIC's DMA engine), messenger frames enqueue in
// per-source FIFO order. It reads through one buffer per connection, so the
// frames that have arrived cost one read(2) between them.
func (t *Transport) readLoop(p *peerConn) {
	r := bufio.NewReader(p.c)
	for {
		ft, body, err := readFrame(r)
		if err != nil {
			// Our own Close surfaces as a read error on the closed
			// connection; anything else — orderly EOF at the peer's
			// shutdown or a mid-run death (killed process, dropped conn) —
			// marks the peer dead and fails everything waiting on it, so
			// no caller is ever left blocked on a connection that can no
			// longer answer.
			if !t.closed.Load() {
				t.peerDied(p)
			}
			return
		}
		switch ft {
		case ftResp:
			id := binary.LittleEndian.Uint64(body)
			pr, ok := t.pending.LoadAndDelete(id)
			if !ok {
				panic(fmt.Sprintf("tcp: rank %d response for unknown request %d", t.me, id))
			}
			pr.(*pendingReq).ch <- pendingResp{data: body[8:]}
		case ftReq:
			go t.serve(p, body)
		case ftMsg:
			t.msgr.enqueue(p.rank, body)
		default:
			panic(fmt.Sprintf("tcp: rank %d unexpected frame type %d mid-stream", t.me, ft))
		}
	}
}

// peerDied transitions one peer connection to the dead state exactly once:
// every pending request targeting it completes immediately with a peer-death
// verdict (the callers' blocked Call/train waits panic with *fabric.PeerError
// instead of hanging forever), the messenger's per-source queue is poisoned
// the same way, and the registered death callbacks fire.
func (t *Transport) peerDied(p *peerConn) {
	if !p.dead.CompareAndSwap(false, true) {
		return
	}
	p.c.Close()
	t.pending.Range(func(k, v any) bool {
		pr := v.(*pendingReq)
		if pr.target != p.rank {
			return true
		}
		if _, loaded := t.pending.LoadAndDelete(k); loaded {
			pr.ch <- pendingResp{dead: true}
		}
		return true
	})
	t.msgr.fail(p.rank)
	t.liveMu.Lock()
	subs := append([]func(fabric.Rank){}, t.deathSubs...)
	t.liveMu.Unlock()
	for _, fn := range subs {
		fn(p.rank)
	}
}

// Alive reports whether rank r's connection is still up.
func (t *Transport) Alive(r fabric.Rank) bool {
	if r < 0 || int(r) >= t.n {
		panic(fmt.Sprintf("tcp: rank %d out of range [0, %d)", r, t.n))
	}
	if r == t.me {
		return !t.closed.Load()
	}
	p := t.peers[r]
	return p != nil && !p.dead.Load()
}

// NotifyPeerDeath registers fn to fire (from the dying connection's reader
// goroutine) once per detected peer death.
func (t *Transport) NotifyPeerDeath(fn func(fabric.Rank)) {
	t.liveMu.Lock()
	defer t.liveMu.Unlock()
	t.deathSubs = append(t.deathSubs, fn)
}

// request issues one operation towards target and blocks for its response —
// the single round-trip every remote scalar op or train costs. frame is a
// request built by newReq, its body appended.
func (t *Transport) request(target fabric.Rank, frame []byte) []byte {
	op := frame[reqHeader-1]
	p := t.peers[target]
	if p == nil {
		panic(fmt.Sprintf("tcp: rank %d request to unconnected rank %d", t.me, target))
	}
	id := t.nextReq.Add(1)
	pr := &pendingReq{target: target, ch: make(chan pendingResp, 1)}
	t.pending.Store(id, pr)
	// Registered before the liveness check: if the peer dies at any point
	// after the check, peerDied's sweep finds this entry and completes it.
	if p.dead.Load() {
		t.pending.Delete(id)
		panic(&fabric.PeerError{Rank: target, Op: opName(op)})
	}
	binary.LittleEndian.PutUint64(frame[5:], id)
	sealFrame(frame)
	if err := p.write(frame); err != nil {
		t.peerDied(p)
		t.pending.Delete(id)
		panic(&fabric.PeerError{Rank: target, Op: opName(op)})
	}
	resp := <-pr.ch
	if resp.dead {
		panic(&fabric.PeerError{Rank: target, Op: opName(op)})
	}
	return resp.data
}

// serve executes one remote request against this process's segments and
// writes the response. It runs on a transport goroutine, never on the
// application's.
func (t *Transport) serve(p *peerConn, body []byte) {
	resp := make([]byte, respHeader, respHeader+64)
	resp[4] = ftResp
	copy(resp[5:], body[:8]) // the request id
	resp = t.execute(resp, p.rank, body[8], body[9:])
	sealFrame(resp)
	// An undeliverable response means the requester died mid-request; its
	// process is gone, so there is no one left to answer.
	if err := p.write(resp); err != nil {
		t.peerDied(p)
	}
}

// execute serves request op and appends its result to dst.
func (t *Transport) execute(dst []byte, from fabric.Rank, op byte, req []byte) []byte {
	switch op {
	case opGet, opPut, opGetBatch, opPutBatch:
		return t.byteWinAt(binary.LittleEndian.Uint32(req)).execute(dst, op, req[4:])
	case opGuardedGet:
		guard := t.wordWinAt(binary.LittleEndian.Uint32(req[4:]))
		return t.byteWinAt(binary.LittleEndian.Uint32(req)).executeGuarded(dst, guard, req[8:])
	case opLoad, opStore, opCAS, opLoadBatch, opCASBatch, opFetchAdd:
		return t.wordWinAt(binary.LittleEndian.Uint32(req)).execute(dst, op, req[4:])
	case opCall:
		svc := fabric.ServiceID(req[0])
		t.svcMu.RLock()
		h := t.services[svc]
		t.svcMu.RUnlock()
		if h == nil {
			panic(fmt.Sprintf("tcp: rank %d call to unregistered service %d", t.me, svc))
		}
		return append(dst, h(from, req[1:])...)
	case opCounters:
		return appendSnapshot(dst, t.counters.Snapshot())
	case opReset:
		t.counters.Reset()
		return dst
	}
	panic(fmt.Sprintf("tcp: rank %d unknown op %d", t.me, op))
}

// windowAt blocks until window id exists locally. Allocation is collective
// but unsynchronized, so a remote operation can arrive before this process
// has executed the matching NewByteWin/NewWordWin call; the SPMD contract
// guarantees it will, so the serving goroutine simply waits.
func (t *Transport) windowAt(id uint32) window {
	t.winMu.Lock()
	defer t.winMu.Unlock()
	for int(id) >= len(t.wins) {
		t.winCond.Wait()
	}
	return t.wins[id]
}

func (t *Transport) byteWinAt(id uint32) *byteWin {
	w, ok := t.windowAt(id).(*byteWin)
	if !ok {
		panic(fmt.Sprintf("tcp: window %d is not a byte window", id))
	}
	return w
}

func (t *Transport) wordWinAt(id uint32) *wordWin {
	w, ok := t.windowAt(id).(*wordWin)
	if !ok {
		panic(fmt.Sprintf("tcp: window %d is not a word window", id))
	}
	return w
}

// Size returns the number of ranks in the mesh.
func (t *Transport) Size() int { return t.n }

// Local reports whether rank r's memory lives in this process — true only
// for this transport's own rank.
func (t *Transport) Local(r fabric.Rank) bool {
	if r < 0 || int(r) >= t.n {
		panic(fmt.Sprintf("tcp: rank %d out of range [0, %d)", r, t.n))
	}
	return r == t.me
}

// Run verifies that every process performed the same window allocation
// sequence (digest gather at rank 0, verdict broadcast back), then executes
// fn for this process's single rank.
func (t *Transport) Run(fn func(rank fabric.Rank)) {
	t.verifyWindows()
	fn(t.me)
}

func (t *Transport) verifyWindows() {
	if t.n == 1 {
		return
	}
	t.winMu.Lock()
	digest := append([]byte(nil), t.digest...)
	t.winMu.Unlock()
	if t.me != 0 {
		t.msgr.SendBytes(t.me, 0, digest)
		verdict := t.msgr.RecvBytes(0, t.me)
		if len(verdict) != 1 || verdict[0] != 1 {
			panic(fmt.Sprintf("tcp: rank %d window allocation sequence diverges from rank 0 (%d windows locally) — all ranks must allocate the same windows in the same order", t.me, len(digest)/9))
		}
		return
	}
	ok := byte(1)
	bad := fabric.NullRank
	for r := 1; r < t.n; r++ {
		d := t.msgr.RecvBytes(fabric.Rank(r), 0)
		if string(d) != string(digest) && bad == fabric.NullRank {
			ok, bad = 0, fabric.Rank(r)
		}
	}
	for r := 1; r < t.n; r++ {
		t.msgr.SendBytes(0, fabric.Rank(r), []byte{ok})
	}
	if ok == 0 {
		panic(fmt.Sprintf("tcp: rank %d window allocation sequence diverges from rank 0 — all ranks must allocate the same windows in the same order", bad))
	}
}

// Close tears down the mesh: listener and every peer connection.
func (t *Transport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	if t.lis != nil {
		t.lis.Close()
	}
	for _, p := range t.peers {
		if p != nil {
			p.c.Close()
		}
	}
	return nil
}

// Messenger returns the pairwise substrate of the collective layer.
func (t *Transport) Messenger() fabric.Messenger { return t.msgr }

// Flush completes outstanding operations towards target. Every operation on
// this transport completes synchronously within its round-trip, so Flush
// only accounts.
func (t *Transport) Flush(origin, target fabric.Rank) { t.counters.Flushes.Add(1) }

// FlushAll completes all outstanding operations issued by origin.
func (t *Transport) FlushAll(origin fabric.Rank) { t.counters.Flushes.Add(1) }

// Register installs the handler for one control-plane service.
func (t *Transport) Register(svc fabric.ServiceID, h fabric.Handler) {
	t.svcMu.Lock()
	defer t.svcMu.Unlock()
	if _, dup := t.services[svc]; dup {
		panic(fmt.Sprintf("tcp: service %d registered twice", svc))
	}
	t.services[svc] = h
}

// Call invokes svc on rank target: directly when target is this process,
// else as one request/response round-trip.
func (t *Transport) Call(origin, target fabric.Rank, svc fabric.ServiceID, req []byte) []byte {
	if target == t.me {
		t.svcMu.RLock()
		h := t.services[svc]
		t.svcMu.RUnlock()
		if h == nil {
			panic(fmt.Sprintf("tcp: call to unregistered service %d", svc))
		}
		return h(origin, req)
	}
	frame := append(newReq(opCall, 1+len(req)), byte(svc))
	return t.request(target, append(frame, req...))
}

// CounterSnapshot returns rank r's counters: the local structure for this
// process, one RPC for a peer.
func (t *Transport) CounterSnapshot(r fabric.Rank) fabric.Snapshot {
	if r == t.me {
		return t.counters.Snapshot()
	}
	if r < 0 || int(r) >= t.n {
		panic(fmt.Sprintf("tcp: rank %d out of range [0, %d)", r, t.n))
	}
	return decodeSnapshot(t.request(r, newReq(opCounters, 0)))
}

// TotalSnapshot sums the counters of every rank (n-1 RPCs).
func (t *Transport) TotalSnapshot() fabric.Snapshot {
	var tot fabric.Snapshot
	for r := 0; r < t.n; r++ {
		tot.Add(t.CounterSnapshot(fabric.Rank(r)))
	}
	return tot
}

// ResetCounters zeroes every rank's counters. Resets are idempotent, so
// concurrent calls from several ranks converge to zero everywhere.
func (t *Transport) ResetCounters() {
	t.counters.Reset()
	for r := 0; r < t.n; r++ {
		if fabric.Rank(r) != t.me {
			t.request(fabric.Rank(r), newReq(opReset, 0))
		}
	}
}

// AddCache accounts lookups of this process's block cache.
func (t *Transport) AddCache(origin fabric.Rank, hits, misses int64) {
	t.counters.AddCache(hits, misses)
}

func appendSnapshot(b []byte, s fabric.Snapshot) []byte {
	for _, v := range []int64{
		s.LocalPuts, s.RemotePuts, s.LocalGets, s.RemoteGets,
		s.LocalAtomics, s.RemoteAtoms, s.BytesPut, s.BytesGot,
		s.Flushes, s.GetBatches, s.PutBatches, s.AtomicBatches,
		s.CacheHits, s.CacheMisses,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func decodeSnapshot(b []byte) fabric.Snapshot {
	var s fabric.Snapshot
	for i, f := range []*int64{
		&s.LocalPuts, &s.RemotePuts, &s.LocalGets, &s.RemoteGets,
		&s.LocalAtomics, &s.RemoteAtoms, &s.BytesPut, &s.BytesGot,
		&s.Flushes, &s.GetBatches, &s.PutBatches, &s.AtomicBatches,
		&s.CacheHits, &s.CacheMisses,
	} {
		*f = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return s
}
