package rma

import (
	"bytes"
	"testing"
	"time"

	"github.com/gdi-go/gdi/internal/fabric/fabrictest"
)

func TestGetBatchMatchesScalarGets(t *testing.T) {
	f := New(3)
	w := f.NewByteWin(1 << 14)
	// Fill rank 2's segment with a recognizable pattern spanning stripe
	// boundaries.
	data := make([]byte, 1<<14)
	for i := range data {
		data[i] = byte(i * 31)
	}
	w.Put(2, 2, 0, data)

	ops := []GetOp{
		{Off: 0, Buf: make([]byte, 17)},
		{Off: 4090, Buf: make([]byte, 16)}, // crosses the 4KiB stripe
		{Off: 1 << 13, Buf: make([]byte, 512)},
		{Off: 1<<14 - 8, Buf: make([]byte, 8)},
		{Off: 100, Buf: make([]byte, 0)},
	}
	w.GetBatch(0, 2, ops)
	for i, op := range ops {
		want := make([]byte, len(op.Buf))
		w.Get(1, 2, op.Off, want)
		if !bytes.Equal(op.Buf, want) {
			t.Errorf("op %d: batch read %v != scalar read %v", i, op.Buf, want)
		}
	}
	// Empty batch is a no-op.
	w.GetBatch(0, 2, nil)
}

func TestGetBatchAccounting(t *testing.T) {
	f := New(2)
	w := f.NewByteWin(1024)
	f.ResetCounters()

	ops := []GetOp{
		{Off: 0, Buf: make([]byte, 10)},
		{Off: 64, Buf: make([]byte, 20)},
		{Off: 512, Buf: make([]byte, 30)},
	}
	w.GetBatch(0, 1, ops)
	s := f.CounterSnapshot(0)
	if s.RemoteGets != 3 {
		t.Errorf("RemoteGets = %d, want 3 (each constituent get is counted)", s.RemoteGets)
	}
	if s.BytesGot != 60 {
		t.Errorf("BytesGot = %d, want 60", s.BytesGot)
	}
	if s.GetBatches != 1 {
		t.Errorf("GetBatches = %d, want 1 (one train per flush)", s.GetBatches)
	}

	// Local batches are counted as local gets and no batch train.
	f.ResetCounters()
	w.GetBatch(1, 1, ops)
	s = f.CounterSnapshot(1)
	if s.LocalGets != 3 || s.GetBatches != 0 || s.RemoteGets != 0 {
		t.Errorf("local batch: %+v", s)
	}
}

func TestGetBatchAmortizesRemoteLatency(t *testing.T) {
	// With 500µs per remote op (the sleep-based regime of spinWait), ten
	// scalar gets cost at least 5ms while one ten-op batch charges the
	// injected latency once. Generous factor-2 margin absorbs oversleep.
	const n = 10
	f := New(2, Options{Latency: Latency{RemoteNs: 500_000}})
	w := f.NewByteWin(4096)

	bufs := make([]GetOp, n)
	for i := range bufs {
		bufs[i] = GetOp{Off: i * 64, Buf: make([]byte, 64)}
	}
	start := time.Now()
	for _, op := range bufs {
		w.Get(0, 1, op.Off, op.Buf)
	}
	scalar := time.Since(start)

	start = time.Now()
	w.GetBatch(0, 1, bufs)
	batched := time.Since(start)

	if scalar < n*500*time.Microsecond {
		t.Errorf("scalar loop finished in %v, below the injected %v", scalar, n*500*time.Microsecond)
	}
	if batched > scalar/2 {
		t.Errorf("batched train took %v, not meaningfully below scalar %v", batched, scalar)
	}
}

func TestPutBatchMatchesScalarPuts(t *testing.T) {
	f := New(3)
	w := f.NewByteWin(1 << 14)
	pattern := func(seed byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}
	ops := []PutOp{
		{Off: 0, Data: pattern(1, 17)},
		{Off: 4090, Data: pattern(2, 16)}, // crosses the 4KiB stripe
		{Off: 1 << 13, Data: pattern(3, 512)},
		{Off: 1<<14 - 8, Data: pattern(4, 8)},
		{Off: 100, Data: nil},
	}
	w.PutBatch(0, 2, ops)
	for i, op := range ops {
		got := make([]byte, len(op.Data))
		w.Get(1, 2, op.Off, got)
		if !bytes.Equal(got, op.Data) {
			t.Errorf("op %d: read back %v, wrote %v", i, got, op.Data)
		}
	}
	// Empty batch is a no-op.
	w.PutBatch(0, 2, nil)
}

func TestPutBatchAccounting(t *testing.T) {
	f := New(2)
	w := f.NewByteWin(1024)
	f.ResetCounters()

	ops := []PutOp{
		{Off: 0, Data: make([]byte, 10)},
		{Off: 64, Data: make([]byte, 20)},
		{Off: 512, Data: make([]byte, 30)},
	}
	w.PutBatch(0, 1, ops)
	s := f.CounterSnapshot(0)
	if s.RemotePuts != 3 {
		t.Errorf("RemotePuts = %d, want 3 (each constituent put is counted)", s.RemotePuts)
	}
	if s.BytesPut != 60 {
		t.Errorf("BytesPut = %d, want 60", s.BytesPut)
	}
	if s.PutBatches != 1 {
		t.Errorf("PutBatches = %d, want 1 (one train per flush)", s.PutBatches)
	}

	// Local batches are counted as local puts and no batch train.
	f.ResetCounters()
	w.PutBatch(1, 1, ops)
	s = f.CounterSnapshot(1)
	if s.LocalPuts != 3 || s.PutBatches != 0 || s.RemotePuts != 0 {
		t.Errorf("local batch: %+v", s)
	}
}

// TestPutBatchAmortizesRemoteLatency compares wall-clock times, so its
// injected latency is large (5 ms a round trip) next to scheduler noise.
func TestPutBatchAmortizesRemoteLatency(t *testing.T) {
	const n = 10
	const latency = 5 * time.Millisecond
	f := New(2, Options{Latency: Latency{RemoteNs: latency.Nanoseconds()}})
	w := f.NewByteWin(4096)

	ops := make([]PutOp, n)
	for i := range ops {
		ops[i] = PutOp{Off: i * 64, Data: make([]byte, 64)}
	}
	start := time.Now()
	for _, op := range ops {
		w.Put(0, 1, op.Off, op.Data)
	}
	scalar := time.Since(start)

	start = time.Now()
	w.PutBatch(0, 1, ops)
	batched := time.Since(start)

	if scalar < n*latency {
		t.Errorf("scalar loop finished in %v, below the injected %v", scalar, n*latency)
	}
	if batched > scalar/2 {
		t.Errorf("batched train took %v, not meaningfully below scalar %v", batched, scalar)
	}
}

func TestCASBatchSemanticsAndAccounting(t *testing.T) {
	f := New(2)
	w := f.NewWordWin(16)
	w.Store(0, 1, 2, 7)
	w.Store(0, 1, 3, 9)
	f.ResetCounters()

	res := w.CASBatch(0, 1, []CASOp{
		{Idx: 1, Old: 0, New: 100}, // free word: swaps
		{Idx: 2, Old: 7, New: 200}, // matching old: swaps
		{Idx: 3, Old: 0, New: 300}, // mismatched old: fails, reports 9
	})
	s := f.CounterSnapshot(0)
	if s.RemoteAtoms != 3 {
		t.Errorf("RemoteAtoms = %d, want 3 (each constituent CAS is counted)", s.RemoteAtoms)
	}
	if s.AtomicBatches != 1 {
		t.Errorf("AtomicBatches = %d, want 1", s.AtomicBatches)
	}
	if !res[0].Swapped || res[0].Prev != 0 {
		t.Errorf("op 0: %+v, want swap from 0", res[0])
	}
	if !res[1].Swapped || res[1].Prev != 7 {
		t.Errorf("op 1: %+v, want swap from 7", res[1])
	}
	if res[2].Swapped || res[2].Prev != 9 {
		t.Errorf("op 2: %+v, want failure reporting 9", res[2])
	}
	if got := w.Load(0, 1, 1); got != 100 {
		t.Errorf("word 1 = %d, want 100", got)
	}
	if got := w.Load(0, 1, 3); got != 9 {
		t.Errorf("word 3 = %d, want 9 (failed CAS must not write)", got)
	}
	if w.CASBatch(0, 1, nil) != nil {
		t.Error("empty CASBatch should return nil")
	}
}

func TestLoadBatchSemanticsAndAccounting(t *testing.T) {
	f := New(2)
	w := f.NewWordWin(16)
	w.Store(0, 1, 1, 11)
	w.Store(0, 1, 5, 55)
	f.ResetCounters()

	got := w.LoadBatch(0, 1, []int{1, 5, 7})
	want := []uint64{11, 55, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d: got %d, want %d", i, got[i], want[i])
		}
	}
	s := f.CounterSnapshot(0)
	if s.RemoteAtoms != 3 {
		t.Errorf("RemoteAtoms = %d, want 3 (each constituent load is counted)", s.RemoteAtoms)
	}
	if s.AtomicBatches != 1 {
		t.Errorf("AtomicBatches = %d, want 1 (latency charged once per train)", s.AtomicBatches)
	}
	if w.LoadBatch(0, 1, nil) != nil {
		t.Error("empty LoadBatch should return nil")
	}

	// Local trains count local atomics and no batch train.
	f.ResetCounters()
	w.LoadBatch(1, 1, []int{1, 5})
	s = f.CounterSnapshot(1)
	if s.LocalAtomics != 2 || s.AtomicBatches != 0 || s.RemoteAtoms != 0 {
		t.Errorf("local train: %+v", s)
	}
}

func TestCacheCounters(t *testing.T) {
	f := New(2)
	f.AddCache(0, 3, 1)
	f.AddCache(1, 0, 2)
	if s := f.CounterSnapshot(0); s.CacheHits != 3 || s.CacheMisses != 1 {
		t.Errorf("rank 0 cache counters: %+v", s)
	}
	if s := f.TotalSnapshot(); s.CacheHits != 3 || s.CacheMisses != 3 {
		t.Errorf("total cache counters: %+v", s)
	}
	f.ResetCounters()
	if s := f.TotalSnapshot(); s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("cache counters survived reset: %+v", s)
	}
}

// TestGuardedGetBatchSeqlock: a guarded train's loads bracket its copies,
// so an op whose two loads show the same version with the write bit clear
// holds exactly that version's block while a writer rewrites it.
func TestGuardedGetBatchSeqlock(t *testing.T) {
	const blocks = 4
	f := New(2)
	bw := f.NewByteWin(blocks * fabrictest.Block)
	ww := f.NewWordWin(blocks)
	fabrictest.Seqlock(t, bw, bw, ww, ww, 0, 1, blocks, 20000)
}

// TestGuardedGetBatchAccounting: a guarded train is one train — a GET train
// when it carries a GET, an atomic train when it loads alone — plus every
// load and every GET in it; a local one counts no train.
func TestGuardedGetBatchAccounting(t *testing.T) {
	const block = 512
	f := New(2)
	bw := f.NewByteWin(4 * block)
	ww := f.NewWordWin(4)
	bw.Put(0, 1, block, bytes.Repeat([]byte{7}, block))
	ww.Store(0, 1, 1, 42)
	f.ResetCounters()

	ops := []GuardedGetOp{
		{Guard: 1, LoadBefore: true, LoadAfter: true, Off: block, Buf: make([]byte, block)},
		{Guard: 2, LoadBefore: true},
		{Off: 2 * block, Buf: make([]byte, 16), LoadAfter: true, Guard: 3},
	}
	bw.GuardedGetBatch(0, 1, ww, ops)
	if ops[0].Before != 42 || ops[0].After != 42 || !bytes.Equal(ops[0].Buf, bytes.Repeat([]byte{7}, block)) {
		t.Errorf("op 0: before %d, after %d, block %v…", ops[0].Before, ops[0].After, ops[0].Buf[:4])
	}
	s := f.CounterSnapshot(0)
	if s.RemoteAtoms != 4 || s.RemoteGets != 2 || s.BytesGot != block+16 || s.GetBatches != 1 || s.AtomicBatches != 0 {
		t.Errorf("guarded train: %+v, want 4 atomics and 2 GETs of %d bytes in one GET train", s, block+16)
	}

	f.ResetCounters()
	bw.GuardedGetBatch(0, 1, ww, []GuardedGetOp{{Guard: 1, LoadBefore: true}, {Guard: 2, LoadBefore: true}})
	if s := f.CounterSnapshot(0); s.RemoteAtoms != 2 || s.RemoteGets != 0 || s.AtomicBatches != 1 || s.GetBatches != 0 {
		t.Errorf("load-only guarded train: %+v, want 2 atomics in one atomic train", s)
	}

	f.ResetCounters()
	bw.GuardedGetBatch(1, 1, ww, ops)
	if s := f.CounterSnapshot(1); s.LocalAtomics != 4 || s.LocalGets != 2 || s.GetBatches != 0 || s.AtomicBatches != 0 || s.RemoteOps() != 0 {
		t.Errorf("local guarded train: %+v", s)
	}
}
