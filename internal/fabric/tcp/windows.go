package tcp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/gdi-go/gdi/internal/fabric"
)

// pageShift fixes the striping granularity of byte windows at 4 KiB pages,
// matching the simulator backend: bulk accesses are atomic per page, and
// higher layers own protocol-level consistency across pages.
const pageShift = 12

const (
	winKindByte = byte(1)
	winKindWord = byte(2)
)

// NewByteWin collectively allocates a byte window. This process materializes
// only its own rank's segment; the other segments live in their owners'
// processes and are reached by request.
func (t *Transport) NewByteWin(segSize int) fabric.ByteWin {
	if segSize <= 0 {
		panic(fmt.Sprintf("tcp: byte window segment size %d must be positive", segSize))
	}
	w := &byteWin{
		t:       t,
		segSize: segSize,
		seg:     make([]byte, segSize),
		stripes: make([]sync.RWMutex, (segSize>>pageShift)+1),
	}
	w.id = t.addWindow(w, winKindByte, uint64(segSize))
	return w
}

// NewWordWin collectively allocates a word window backed by sync/atomic
// operations, so the handler goroutines serving remote atomics and the local
// fast path agree on every word.
func (t *Transport) NewWordWin(nWords int) fabric.WordWin {
	if nWords <= 0 {
		panic(fmt.Sprintf("tcp: word window size %d must be positive", nWords))
	}
	w := &wordWin{t: t, words: nWords, seg: make([]uint64, nWords)}
	w.id = t.addWindow(w, winKindWord, uint64(nWords))
	return w
}

// NewInbox collectively allocates a slot inbox over a fresh byte window.
func (t *Transport) NewInbox(segBytes int) fabric.Inbox {
	return fabric.NewSlotInbox(t.n, t.NewByteWin(segBytes))
}

func (t *Transport) addWindow(w window, kind byte, size uint64) uint32 {
	t.winMu.Lock()
	defer t.winMu.Unlock()
	id := uint32(len(t.wins))
	t.wins = append(t.wins, w)
	t.digest = append(t.digest, kind)
	t.digest = binary.LittleEndian.AppendUint64(t.digest, size)
	t.winCond.Broadcast()
	return id
}

// byteWin is the TCP backend's byte window: the local segment with striped
// page locks, and a request path for every other segment.
type byteWin struct {
	t       *Transport
	id      uint32
	segSize int
	seg     []byte
	stripes []sync.RWMutex
}

var _ fabric.ByteWin = (*byteWin)(nil)

func (w *byteWin) digestEntry() (byte, uint64) { return winKindByte, uint64(w.segSize) }

func (w *byteWin) SegSize() int { return w.segSize }

func (w *byteWin) checkRange(off, n int) {
	if off < 0 || n < 0 || off+n > w.segSize {
		panic(fmt.Sprintf("tcp: byte window access [%d, %d) outside segment of %d bytes", off, off+n, w.segSize))
	}
}

func (w *byteWin) localPut(off int, data []byte) {
	for len(data) > 0 {
		page := off >> pageShift
		n := min((page+1)<<pageShift-off, len(data))
		mu := &w.stripes[page]
		mu.Lock()
		copy(w.seg[off:off+n], data[:n])
		mu.Unlock()
		off += n
		data = data[n:]
	}
}

func (w *byteWin) localGet(off int, buf []byte) {
	for len(buf) > 0 {
		page := off >> pageShift
		n := min((page+1)<<pageShift-off, len(buf))
		mu := &w.stripes[page]
		mu.RLock()
		copy(buf[:n], w.seg[off:off+n])
		mu.RUnlock()
		off += n
		buf = buf[n:]
	}
}

func (w *byteWin) Put(origin, target fabric.Rank, off int, data []byte) {
	w.checkRange(off, len(data))
	local := target == w.t.me
	w.t.counters.CountPut(local, len(data))
	if local {
		w.localPut(off, data)
		return
	}
	frame := newReq(opPut, 12+len(data))
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(off))
	w.t.request(target, append(frame, data...))
}

func (w *byteWin) Get(origin, target fabric.Rank, off int, buf []byte) {
	w.checkRange(off, len(buf))
	local := target == w.t.me
	w.t.counters.CountGet(local, len(buf))
	if local {
		w.localGet(off, buf)
		return
	}
	frame := newReq(opGet, 20)
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(off))
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(buf)))
	copy(buf, w.t.request(target, frame))
}

func (w *byteWin) GetBatch(origin, target fabric.Rank, ops []fabric.GetOp) {
	if len(ops) == 0 {
		return
	}
	local := target == w.t.me
	w.t.counters.CountGetBatch(local)
	total := 0
	for _, op := range ops {
		w.checkRange(op.Off, len(op.Buf))
		w.t.counters.CountGet(local, len(op.Buf))
		total += len(op.Buf)
	}
	if local {
		for _, op := range ops {
			w.localGet(op.Off, op.Buf)
		}
		return
	}
	frame := newReq(opGetBatch, 8+16*len(ops))
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(ops)))
	for _, op := range ops {
		frame = binary.LittleEndian.AppendUint64(frame, uint64(op.Off))
		frame = binary.LittleEndian.AppendUint64(frame, uint64(len(op.Buf)))
	}
	resp := w.t.request(target, frame)
	if len(resp) != total {
		panic(fmt.Sprintf("tcp: get train returned %d bytes, want %d", len(resp), total))
	}
	for _, op := range ops {
		resp = resp[copy(op.Buf, resp):]
	}
}

func (w *byteWin) PutBatch(origin, target fabric.Rank, ops []fabric.PutOp) {
	if len(ops) == 0 {
		return
	}
	local := target == w.t.me
	w.t.counters.CountPutBatch(local)
	size := 8
	for _, op := range ops {
		w.checkRange(op.Off, len(op.Data))
		w.t.counters.CountPut(local, len(op.Data))
		size += 12 + len(op.Data)
	}
	if local {
		for _, op := range ops {
			w.localPut(op.Off, op.Data)
		}
		return
	}
	frame := newReq(opPutBatch, size)
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(ops)))
	for _, op := range ops {
		frame = binary.LittleEndian.AppendUint64(frame, uint64(op.Off))
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(op.Data)))
		frame = append(frame, op.Data...)
	}
	w.t.request(target, frame)
}

// appendGet appends n bytes of the local segment at off to dst.
func (w *byteWin) appendGet(dst []byte, off, n int) []byte {
	w.checkRange(off, n)
	dst = slices.Grow(dst, n)
	w.localGet(off, dst[len(dst):len(dst)+n])
	return dst[:len(dst)+n]
}

// execute serves one remote byte-window request against the local segment
// and appends its result to dst.
func (w *byteWin) execute(dst []byte, op byte, req []byte) []byte {
	switch op {
	case opGet:
		return w.appendGet(dst, int(binary.LittleEndian.Uint64(req[0:])), int(binary.LittleEndian.Uint64(req[8:])))
	case opPut:
		off := int(binary.LittleEndian.Uint64(req[0:]))
		w.checkRange(off, len(req)-8)
		w.localPut(off, req[8:])
		return dst
	case opGetBatch:
		k := int(binary.LittleEndian.Uint32(req[0:]))
		req = req[4:]
		for i := 0; i < k; i++ {
			dst = w.appendGet(dst, int(binary.LittleEndian.Uint64(req[0:])), int(binary.LittleEndian.Uint64(req[8:])))
			req = req[16:]
		}
		return dst
	case opPutBatch:
		k := int(binary.LittleEndian.Uint32(req[0:]))
		req = req[4:]
		for i := 0; i < k; i++ {
			off := int(binary.LittleEndian.Uint64(req[0:]))
			n := int(binary.LittleEndian.Uint32(req[8:]))
			req = req[12:]
			w.checkRange(off, n)
			w.localPut(off, req[:n])
			req = req[n:]
		}
		return dst
	}
	panic(fmt.Sprintf("tcp: byte window cannot serve op %d", op))
}

// GuardedGetBatch sends the whole train as one opGuardedGet frame. Both the
// local fast path and the remote handler (executeGuarded) walk the ops front
// to back — load before, copy, load after — which is the ordering guarantee
// of fabric.ByteWin.GuardedGetBatch.
func (w *byteWin) GuardedGetBatch(origin, target fabric.Rank, guard fabric.WordWin, ops []fabric.GuardedGetOp) {
	if len(ops) == 0 {
		return
	}
	gw := guard.(*wordWin)
	local := target == w.t.me
	size := 0
	for i := range ops {
		op := &ops[i]
		if op.Loads() > 0 {
			gw.checkIdx(op.Guard)
		}
		w.checkRange(op.Off, len(op.Buf))
		size += 8*op.Loads() + len(op.Buf)
	}
	w.t.counters.CountGuardedBatch(local, ops)
	if local {
		for i := range ops {
			op := &ops[i]
			if op.LoadBefore {
				op.Before = atomic.LoadUint64(&gw.seg[op.Guard])
			}
			w.localGet(op.Off, op.Buf)
			if op.LoadAfter {
				op.After = atomic.LoadUint64(&gw.seg[op.Guard])
			}
		}
		return
	}
	frame := newReq(opGuardedGet, 12+25*len(ops))
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint32(frame, gw.id)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(ops)))
	for i := range ops {
		op := &ops[i]
		var flags byte
		if op.LoadBefore {
			flags |= guardBefore
		}
		if op.LoadAfter {
			flags |= guardAfter
		}
		frame = append(frame, flags)
		frame = binary.LittleEndian.AppendUint64(frame, uint64(op.Guard))
		frame = binary.LittleEndian.AppendUint64(frame, uint64(op.Off))
		frame = binary.LittleEndian.AppendUint64(frame, uint64(len(op.Buf)))
	}
	resp := w.t.request(target, frame)
	if len(resp) != size {
		panic(fmt.Sprintf("tcp: guarded get train returned %d bytes, want %d", len(resp), size))
	}
	for i := range ops {
		op := &ops[i]
		if op.LoadBefore {
			op.Before, resp = binary.LittleEndian.Uint64(resp), resp[8:]
		}
		resp = resp[copy(op.Buf, resp):]
		if op.LoadAfter {
			op.After, resp = binary.LittleEndian.Uint64(resp), resp[8:]
		}
	}
}

// executeGuarded serves one guarded GET train against the local segments of
// w and guard, op by op, and appends its result to dst. Each copy runs under
// its pages' read locks, between the op's guard loads.
func (w *byteWin) executeGuarded(dst []byte, guard *wordWin, req []byte) []byte {
	k := int(binary.LittleEndian.Uint32(req))
	req = req[4:]
	for i := 0; i < k; i++ {
		flags := req[0]
		idx := int(binary.LittleEndian.Uint64(req[1:]))
		off := int(binary.LittleEndian.Uint64(req[9:]))
		n := int(binary.LittleEndian.Uint64(req[17:]))
		req = req[25:]
		if flags&(guardBefore|guardAfter) != 0 {
			guard.checkIdx(idx)
		}
		if flags&guardBefore != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, atomic.LoadUint64(&guard.seg[idx]))
		}
		dst = w.appendGet(dst, off, n)
		if flags&guardAfter != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, atomic.LoadUint64(&guard.seg[idx]))
		}
	}
	return dst
}

// wordWin is the TCP backend's word window. Every access to the local
// segment — application fast path and handler goroutines alike — goes
// through sync/atomic, which is what makes remote atomics correct.
type wordWin struct {
	t     *Transport
	id    uint32
	words int
	seg   []uint64
}

var _ fabric.WordWin = (*wordWin)(nil)

func (w *wordWin) digestEntry() (byte, uint64) { return winKindWord, uint64(w.words) }

func (w *wordWin) Words() int { return w.words }

func (w *wordWin) checkIdx(idx int) {
	if idx < 0 || idx >= w.words {
		panic(fmt.Sprintf("tcp: word window index %d outside segment of %d words", idx, w.words))
	}
}

func (w *wordWin) localCAS(idx int, old, new uint64) (uint64, bool) {
	for {
		if atomic.CompareAndSwapUint64(&w.seg[idx], old, new) {
			return old, true
		}
		if cur := atomic.LoadUint64(&w.seg[idx]); cur != old {
			return cur, false
		}
	}
}

func (w *wordWin) Load(origin, target fabric.Rank, idx int) uint64 {
	w.checkIdx(idx)
	local := target == w.t.me
	w.t.counters.CountAtomic(local)
	if local {
		return atomic.LoadUint64(&w.seg[idx])
	}
	frame := newReq(opLoad, 12)
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(idx))
	return binary.LittleEndian.Uint64(w.t.request(target, frame))
}

func (w *wordWin) Store(origin, target fabric.Rank, idx int, val uint64) {
	w.checkIdx(idx)
	local := target == w.t.me
	w.t.counters.CountAtomic(local)
	if local {
		atomic.StoreUint64(&w.seg[idx], val)
		return
	}
	frame := newReq(opStore, 20)
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(idx))
	frame = binary.LittleEndian.AppendUint64(frame, val)
	w.t.request(target, frame)
}

func (w *wordWin) CAS(origin, target fabric.Rank, idx int, old, new uint64) (uint64, bool) {
	w.checkIdx(idx)
	local := target == w.t.me
	w.t.counters.CountAtomic(local)
	if local {
		return w.localCAS(idx, old, new)
	}
	frame := newReq(opCAS, 28)
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(idx))
	frame = binary.LittleEndian.AppendUint64(frame, old)
	frame = binary.LittleEndian.AppendUint64(frame, new)
	resp := w.t.request(target, frame)
	return binary.LittleEndian.Uint64(resp), resp[8] == 1
}

// LoadBatch sends the whole train as one opLoadBatch frame. Both the local
// fast path and the remote handler (execute) walk idxs front to back, one
// atomic load each, so the words come back read in idxs order — the ordering
// guarantee of fabric.WordWin.LoadBatch.
func (w *wordWin) LoadBatch(origin, target fabric.Rank, idxs []int) []uint64 {
	if len(idxs) == 0 {
		return nil
	}
	local := target == w.t.me
	w.t.counters.CountAtomicBatch(local)
	for _, idx := range idxs {
		w.checkIdx(idx)
	}
	w.t.counters.CountAtomics(local, len(idxs))
	out := make([]uint64, len(idxs))
	if local {
		for i, idx := range idxs {
			out[i] = atomic.LoadUint64(&w.seg[idx])
		}
		return out
	}
	frame := newReq(opLoadBatch, 8+8*len(idxs))
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(idxs)))
	for _, idx := range idxs {
		frame = binary.LittleEndian.AppendUint64(frame, uint64(idx))
	}
	resp := w.t.request(target, frame)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(resp[8*i:])
	}
	return out
}

func (w *wordWin) CASBatch(origin, target fabric.Rank, ops []fabric.CASOp) []fabric.CASResult {
	if len(ops) == 0 {
		return nil
	}
	local := target == w.t.me
	w.t.counters.CountAtomicBatch(local)
	for _, op := range ops {
		w.checkIdx(op.Idx)
	}
	w.t.counters.CountAtomics(local, len(ops))
	out := make([]fabric.CASResult, len(ops))
	if local {
		for i, op := range ops {
			out[i].Prev, out[i].Swapped = w.localCAS(op.Idx, op.Old, op.New)
		}
		return out
	}
	frame := newReq(opCASBatch, 8+24*len(ops))
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(ops)))
	for _, op := range ops {
		frame = binary.LittleEndian.AppendUint64(frame, uint64(op.Idx))
		frame = binary.LittleEndian.AppendUint64(frame, op.Old)
		frame = binary.LittleEndian.AppendUint64(frame, op.New)
	}
	resp := w.t.request(target, frame)
	for i := range out {
		out[i].Prev = binary.LittleEndian.Uint64(resp[9*i:])
		out[i].Swapped = resp[9*i+8] == 1
	}
	return out
}

func (w *wordWin) FetchAdd(origin, target fabric.Rank, idx int, delta uint64) uint64 {
	w.checkIdx(idx)
	local := target == w.t.me
	w.t.counters.CountAtomic(local)
	if local {
		return atomic.AddUint64(&w.seg[idx], delta) - delta
	}
	frame := newReq(opFetchAdd, 20)
	frame = binary.LittleEndian.AppendUint32(frame, w.id)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(idx))
	frame = binary.LittleEndian.AppendUint64(frame, delta)
	return binary.LittleEndian.Uint64(w.t.request(target, frame))
}

// execute serves one remote word-window request against the local segment
// and appends its result to dst.
func (w *wordWin) execute(dst []byte, op byte, req []byte) []byte {
	switch op {
	case opLoad:
		idx := int(binary.LittleEndian.Uint64(req))
		w.checkIdx(idx)
		return binary.LittleEndian.AppendUint64(dst, atomic.LoadUint64(&w.seg[idx]))
	case opStore:
		idx := int(binary.LittleEndian.Uint64(req[0:]))
		w.checkIdx(idx)
		atomic.StoreUint64(&w.seg[idx], binary.LittleEndian.Uint64(req[8:]))
		return dst
	case opCAS:
		idx := int(binary.LittleEndian.Uint64(req[0:]))
		w.checkIdx(idx)
		prev, swapped := w.localCAS(idx, binary.LittleEndian.Uint64(req[8:]), binary.LittleEndian.Uint64(req[16:]))
		dst = binary.LittleEndian.AppendUint64(dst, prev)
		return append(dst, boolByte(swapped))
	case opLoadBatch:
		// Applied in request order: callers rely on it (guard word last).
		k := int(binary.LittleEndian.Uint32(req))
		for i := 0; i < k; i++ {
			idx := int(binary.LittleEndian.Uint64(req[4+8*i:]))
			w.checkIdx(idx)
			dst = binary.LittleEndian.AppendUint64(dst, atomic.LoadUint64(&w.seg[idx]))
		}
		return dst
	case opCASBatch:
		k := int(binary.LittleEndian.Uint32(req))
		for i := 0; i < k; i++ {
			e := req[4+24*i:]
			idx := int(binary.LittleEndian.Uint64(e[0:]))
			w.checkIdx(idx)
			prev, swapped := w.localCAS(idx, binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:]))
			dst = binary.LittleEndian.AppendUint64(dst, prev)
			dst = append(dst, boolByte(swapped))
		}
		return dst
	case opFetchAdd:
		idx := int(binary.LittleEndian.Uint64(req[0:]))
		w.checkIdx(idx)
		delta := binary.LittleEndian.Uint64(req[8:])
		return binary.LittleEndian.AppendUint64(dst, atomic.AddUint64(&w.seg[idx], delta)-delta)
	}
	panic(fmt.Sprintf("tcp: word window cannot serve op %d", op))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
