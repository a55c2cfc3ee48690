package tcp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/fabric/fabrictest"
)

// TestLoopbackGuardedGetSeqlock: over the wire too, a guarded train's loads
// bracket its copies — the remote handler loads, copies and loads again, op
// by op — so an op whose two loads show the same version with the write bit
// clear holds exactly that version's block while rank 1 rewrites it.
func TestLoopbackGuardedGetSeqlock(t *testing.T) {
	const blocks = 4
	ts, err := NewLoopbackCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	var bws [2]fabric.ByteWin
	var wws [2]fabric.WordWin
	for i, tr := range ts {
		bws[i], wws[i] = tr.NewByteWin(blocks*fabrictest.Block), tr.NewWordWin(blocks)
	}
	fabrictest.Seqlock(t, bws[1], bws[0], wws[1], wws[0], 0, 1, blocks, 2000)
}

// TestLoopbackGuardedGetAccounting: a remote guarded train is one request
// and one GET train (an atomic train when it loads alone), plus every load
// and GET in it, and it returns the words and bytes the simulator's would.
func TestLoopbackGuardedGetAccounting(t *testing.T) {
	ts, err := NewLoopbackCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	var bws [2]fabric.ByteWin
	var wws [2]fabric.WordWin
	for i, tr := range ts {
		bws[i], wws[i] = tr.NewByteWin(4*512), tr.NewWordWin(4)
	}
	block := bytes.Repeat([]byte{7}, 512)
	bws[1].Put(1, 1, 512, block)
	wws[1].Store(1, 1, 1, 42)
	wws[1].Store(1, 1, 3, 43)

	ops := []fabric.GuardedGetOp{
		{Guard: 1, LoadBefore: true, LoadAfter: true, Off: 512, Buf: make([]byte, 512)},
		{Guard: 2, LoadBefore: true},
		{Guard: 3, LoadAfter: true, Off: 520, Buf: make([]byte, 16)},
	}
	bws[0].GuardedGetBatch(0, 1, wws[0], ops)
	if ops[0].Before != 42 || ops[0].After != 42 || !bytes.Equal(ops[0].Buf, block) || ops[1].Before != 0 ||
		ops[2].After != 43 || !bytes.Equal(ops[2].Buf, block[:16]) {
		t.Errorf("guarded train over the wire returned %+v", ops)
	}
	s := ts[0].CounterSnapshot(0)
	if s.RemoteAtoms != 4 || s.RemoteGets != 2 || s.BytesGot != 512+16 || s.GetBatches != 1 || s.AtomicBatches != 0 {
		t.Errorf("guarded train: %+v, want 4 atomics and 2 GETs of %d bytes in one GET train", s, 512+16)
	}
	bws[0].GuardedGetBatch(0, 1, wws[0], ops[1:2])
	if s := ts[0].CounterSnapshot(0); s.AtomicBatches != 1 || s.GetBatches != 1 || s.RemoteAtoms != 5 {
		t.Errorf("a load-only guarded train: %+v, want one more atomic train and atomic", s)
	}
}

// TestTruncatedRequestsPanic: a request whose body ends before its ops do
// fails in the handler, the same way for the guarded train as for the other
// vectored ops.
func TestTruncatedRequestsPanic(t *testing.T) {
	ts, err := NewLoopbackCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := ts[0]
	defer tr.Close()
	bw, ww := tr.NewByteWin(4096), tr.NewWordWin(4)
	bid, wid := bw.(*byteWin).id, ww.(*wordWin).id
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	cases := []struct {
		name string
		op   byte
		req  []byte
	}{
		{"get batch", opGetBatch, append(u32(bid, 2), make([]byte, 16)...)},          // 1 of 2 ops
		{"load batch", opLoadBatch, append(u32(wid, 2), make([]byte, 8)...)},         // 1 of 2 words
		{"guarded get", opGuardedGet, append(u32(bid, wid, 2), make([]byte, 25)...)}, // 1 of 2 ops
		{"guarded get, cut op", opGuardedGet, append(u32(bid, wid, 1), make([]byte, 12)...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("a truncated %s request was served", c.name)
				}
			}()
			tr.execute(nil, 0, c.op, c.req)
		})
	}
}
