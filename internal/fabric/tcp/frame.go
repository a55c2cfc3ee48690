package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire format: every frame is
//
//	u32 length | u8 type | body (length-1 bytes)
//
// with all integers little-endian. The length covers the type byte plus the
// body, so a zero-body frame has length 1.
//
// Frame types:
//
//	hello  body = u16 rank                — handshake, first frame of a conn
//	req    body = u64 id | u8 op | rest   — one-sided operation request
//	resp   body = u64 id | result         — response, matched by id
//	msg    body = payload                 — messenger delivery (FIFO per conn)
const (
	ftHello = byte(1)
	ftReq   = byte(2)
	ftResp  = byte(3)
	ftMsg   = byte(4)
)

// Operation codes carried by req frames. Request bodies are op-specific,
// fixed-width little-endian:
//
//	get        win u32 | off u64 | n u64                  → n bytes
//	put        win u32 | off u64 | data                   → empty
//	getBatch   win u32 | k u32 | k×(off u64, n u64)       → concatenated bytes
//	putBatch   win u32 | k u32 | k×(off u64, n u32, data) → empty
//	load       win u32 | idx u64                          → u64
//	store      win u32 | idx u64 | val u64                → empty
//	cas        win u32 | idx u64 | old u64 | new u64      → u64 prev | u8 swapped
//	loadBatch  win u32 | k u32 | k×idx u64                → k×u64
//	casBatch   win u32 | k u32 | k×(idx, old, new u64)    → k×(prev u64, swapped u8)
//	fetchAdd   win u32 | idx u64 | delta u64              → u64 prev
//	call       svc u8 | req bytes                         → resp bytes
//	counters   empty                                      → 14×u64 snapshot
//	reset      empty                                      → empty
//	guardedGet win u32 | guard u32 | k u32 |              → per op, in order:
//	           k×(flags u8, idx u64, off u64, n u64)        [before u64] | n bytes | [after u64]
//
// A guardedGet op's flags say which guard loads it asks for: bit 0 the load
// of word idx of window guard before its n bytes at off are copied, bit 1
// the load after them; the response carries exactly the loads asked for.
const (
	opGet = byte(iota + 1)
	opPut
	opGetBatch
	opPutBatch
	opLoad
	opStore
	opCAS
	opLoadBatch
	opCASBatch
	opFetchAdd
	opCall
	opCounters
	opReset
	opGuardedGet
)

// Flags of one guardedGet op.
const (
	guardBefore = byte(1)
	guardAfter  = byte(2)
)

// opName names an op code for PeerError diagnostics.
func opName(op byte) string {
	names := [...]string{
		opGet: "get", opPut: "put", opGetBatch: "get-batch", opPutBatch: "put-batch",
		opLoad: "load", opStore: "store", opCAS: "cas", opLoadBatch: "load-batch",
		opCASBatch: "cas-batch", opFetchAdd: "fetch-add", opCall: "call",
		opCounters: "counters", opReset: "reset", opGuardedGet: "guarded-get",
	}
	if int(op) < len(names) && names[op] != "" {
		return names[op]
	}
	return fmt.Sprintf("op%d", op)
}

// maxFrame bounds a frame's length field: a defense against a corrupt or
// hostile peer allocating unbounded memory. 1 GiB comfortably exceeds any
// train the engine issues (the largest are full-inbox PutBatch deliveries).
const maxFrame = 1 << 30

// A request frame is built in one buffer: newReq lays out its header with
// the op code, the caller appends the body, and Transport.request fills in
// the length and the request id. A response frame is built the same way by
// Transport.serve. Neither is copied again on its way to the connection.
const (
	reqHeader  = 4 + 1 + 8 + 1 // length, type, id, op
	respHeader = 4 + 1 + 8     // length, type, id
)

// newReq starts a request frame for op with room for a body of size bytes.
func newReq(op byte, size int) []byte {
	frame := make([]byte, reqHeader, reqHeader+size)
	frame[4], frame[reqHeader-1] = ftReq, op
	return frame
}

// sealFrame writes the length field of a frame built in place.
func sealFrame(frame []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
}

// appendFrame encodes one frame (header, type, body) into dst and returns
// the extended slice.
func appendFrame(dst []byte, ft byte, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(body)))
	dst = append(dst, ft)
	return append(dst, body...)
}

// readFrame reads exactly one frame from r. It tolerates partial reads (the
// header and body are filled with io.ReadFull) and rejects malformed length
// fields without allocating for them. A connection's reader passes a
// bufio.Reader, so a frame that has fully arrived costs one read(2), not one
// for the header and one for the body.
func readFrame(r io.Reader) (ft byte, body []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	l := binary.LittleEndian.Uint32(hdr[:4])
	if l < 1 {
		return 0, nil, fmt.Errorf("tcp: frame length %d < 1", l)
	}
	if l > maxFrame {
		return 0, nil, fmt.Errorf("tcp: frame length %d exceeds the %d-byte bound", l, maxFrame)
	}
	ft = hdr[4]
	if ft < ftHello || ft > ftMsg {
		return 0, nil, fmt.Errorf("tcp: unknown frame type %d", ft)
	}
	body = make([]byte, l-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return ft, body, nil
}
