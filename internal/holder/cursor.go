package holder

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/lpg"
)

// EdgeCursor is the one decoder of the edge region: a pull iterator over a
// View's records in record order, parsing the stream in place.
//
//	c := w.Edges()
//	for c.Next() {
//		use(c.Rec)
//	}
//	if err := w.Err(); err != nil { ... }
//
// It steps a run at a time. NextRun decodes a run's header, label and first
// neighbor once; StepRun then decodes the run's following records into a
// caller's buffer in one loop, which decodes a one-byte delta — what the
// bulk loader's sorted runs mostly hold — in line. Step is StepRun for one
// record, and Next is Step, then NextRun at a run's end. A caller that wants
// whole runs loops
//
//	var nbrs [64]fabric.DPtr
//	for c.NextRun() {
//		use(c.Rec) // the run's first record: its Dir, Heavy and Label are the run's
//		for n := c.StepRun(nbrs[:]); n > 0; n = c.StepRun(nbrs[:]) {
//			useNeighbors(nbrs[:n])
//		}
//	}
//
// A cursor may continue behind the region into a tail of decoded records
// (StoredEdges.Edges): a writer's records appended behind a stored region.
// Each maximal stretch of tail records that runOf groups is one run, and the
// steps copy its neighbors out of the tail.
//
// A light run's neighbors ascend, so StepUpTo can stop a run at a bound:
// it yields the neighbors at most top and keeps the first one above it as
// the run's head. RestOfRun hands the rest of such a run to a cursor of its
// own, which a caller resumes with a higher bound, while this one moves on
// to the next run.
//
// Every step decodes only the records it yields, and NextRun passes over
// the records of a run no step asked for without decoding them, so a caller
// that stops early has decoded nothing past the last record it asked for.
// A cursor that meets corruption stops there and records it for Err, and on
// its View; a cursor started on a view whose Err is already set yields
// nothing. The cursor aliases the view, its stream and its tail, and is
// valid as long as they are. Declare it before the loop, as above: a cursor
// declared in a for clause is a per-iteration variable, which the compiler
// copies on every iteration.
type EdgeCursor struct {
	// Rec is the record the last step that yielded one decoded: after a
	// StepRun, the last record it stored; after a StepUpTo that stopped
	// over its bound, the record it stopped at.
	Rec EdgeRec

	w      *View     // the view corruption is recorded on; nil over a StoredEdges
	buf    []byte    // the edge region through the end of the stream
	off    int       // bytes of buf decoded so far
	run    int       // records of the current run still to come
	left   int       // records of the region in runs not yet started
	tail   []EdgeRec // the records behind the region not yet yielded
	inTail bool      // the current run is the tail's
	err    error
}

// Edges returns a cursor positioned before the view's first edge record.
func (w *View) Edges() EdgeCursor {
	c := EdgeCursor{w: w, err: w.err}
	if w.err == nil {
		c.buf, c.left = w.buf[w.edgesOff:], w.numEdges
	}
	return c
}

// Edges returns a cursor over s's records and then tail's: the records of a
// vertex whose writer appends tail behind its stored region. The region was
// validated when it was located (View.StoredEdges), so the walk meets no
// corruption.
func (s *StoredEdges) Edges(tail []EdgeRec) EdgeCursor {
	return EdgeCursor{buf: s.region, left: s.count, tail: tail}
}

// Err returns the corruption the walk stopped at, or the one its view
// reported when the walk started; nil for a walk that met none.
func (c *EdgeCursor) Err() error { return c.err }

// Next advances to the next record and reports whether there was one: false
// at the end of the region and at the first corruption (then View.Err).
func (c *EdgeCursor) Next() bool {
	return c.Step() || c.NextRun()
}

// Step advances to the next record of the current run and reports whether
// there was one: false at the end of the run, with Rec left as it was, and
// at corruption.
func (c *EdgeCursor) Step() bool {
	var one [1]fabric.DPtr
	return c.StepRun(one[:]) == 1
}

// StepRun advances over the next records of the current run, up to
// len(nbrs) of them, stores their neighbors in nbrs and returns how many it
// stored: 0 at the end of the run and, once the records ahead of it are
// stored, at corruption. The records' other fields are the run's, in Rec.
func (c *EdgeCursor) StepRun(nbrs []fabric.DPtr) int {
	n, _ := c.StepUpTo(nbrs, math.MaxUint64)
	return n
}

// StepUpTo is StepRun up to a bound: it stores the neighbors of the run's
// next records while they are at most top. At the first record whose
// neighbor is above top it stops, having decoded that record, and reports
// over: the record is then Rec, not stored, and the run's next step goes on
// behind it, so its caller keeps it as the run's head. In a light run,
// whose neighbors ascend, every record not yet yielded then lies above top.
// top math.MaxUint64 bounds nothing.
func (c *EdgeCursor) StepUpTo(nbrs []fabric.DPtr, top fabric.DPtr) (n int, over bool) {
	n = min(len(nbrs), c.run)
	if c.inTail {
		for i, r := range c.tail[:n] {
			if r.Neighbor > top {
				c.Rec.Neighbor, c.tail, c.run = r.Neighbor, c.tail[i+1:], c.run-i-1
				return i, true
			}
			nbrs[i] = r.Neighbor
		}
		if n > 0 {
			c.Rec.Neighbor, c.tail, c.run = c.tail[n-1].Neighbor, c.tail[n:], c.run-n
		}
		return n, false
	}
	buf, off, nb := c.buf, c.off, c.Rec.Neighbor
	for i := range n {
		if off < len(buf) && buf[off] < 0x80 {
			b := uint64(buf[off])
			nb += fabric.DPtr(b>>1 ^ -(b & 1)) // the zig-zag decode of a one-byte varint
			off++
		} else {
			delta, k := varint(buf[off:])
			if k <= 0 {
				c.off, c.Rec.Neighbor = off, nb
				c.fail(fmt.Errorf("holder: malformed delta at offset %d", off))
				return i, false
			}
			off += k
			nb = fabric.DPtr(int64(nb) + delta)
		}
		if nb > top {
			c.off, c.Rec.Neighbor, c.run = off, nb, c.run-i-1
			return i, true
		}
		nbrs[i] = nb
	}
	c.off, c.Rec.Neighbor, c.run = off, nb, c.run-n
	return n, false
}

// RunLeft returns how many records of the current run lie behind Rec.
func (c *EdgeCursor) RunLeft() int { return c.run }

// LastRun reports whether the current run is the walk's last: no run of the
// region and no tail record follows it. A caller that hands its rest to
// RestOfRun can stop there, and leave its bytes unread.
func (c *EdgeCursor) LastRun() bool {
	behind := c.tail
	if c.inTail {
		behind = behind[c.run:]
	}
	return c.left == 0 && len(behind) == 0
}

// RestOfRun returns a cursor over what is left of the current run: its
// Rec is c's, and its steps yield the run's records behind Rec, after which
// it walks no further run. It shares c's stream and tail, but records the
// corruption it meets on itself alone, not on c's View, so a caller can
// resume it after resetting that View on another stream. c goes on as it
// was: its next NextRun passes over the run.
func (c *EdgeCursor) RestOfRun() EdgeCursor {
	r := *c
	r.w, r.left, r.tail = nil, 0, nil
	if c.inTail {
		r.tail = c.tail[:c.run]
	}
	return r
}

// NextRun advances to the first record of the next run and reports whether
// there was one: false at the end of the region and its tail, and at
// corruption. Records of the current run not yet stepped over are passed
// over first (skipRun).
func (c *EdgeCursor) NextRun() bool {
	if c.skipRun(); c.err != nil {
		return false
	}
	if c.left == 0 {
		if len(c.tail) == 0 {
			return false
		}
		c.Rec, c.run, c.inTail = c.tail[0], runOf(c.tail[0], c.tail)-1, true
		c.tail = c.tail[1:]
		return true
	}
	hdr, n := uvarint(c.buf[c.off:])
	if n <= 0 {
		return c.fail(fmt.Errorf("holder: malformed run header at offset %d", c.off))
	}
	c.off += n
	count := hdr >> 3
	if count == 0 || count > uint64(c.left) {
		return c.fail(fmt.Errorf("holder: run of %d records, %d remaining", count, c.left))
	}
	dir := Direction(hdr & 0x3)
	if dir > DirUndirected {
		return c.fail(fmt.Errorf("holder: run with direction %d", dir))
	}
	label, n := uvarint(c.buf[c.off:])
	if n <= 0 || label > math.MaxUint32 {
		return c.fail(fmt.Errorf("holder: malformed run label at offset %d", c.off))
	}
	c.off += n
	first, n := uvarint(c.buf[c.off:])
	if n <= 0 {
		return c.fail(fmt.Errorf("holder: malformed neighbor at offset %d", c.off))
	}
	c.off += n
	c.Rec = EdgeRec{Neighbor: fabric.DPtr(first), Dir: dir, Heavy: hdr&(1<<2) != 0, Label: lpg.LabelID(label)}
	c.run = int(count) - 1
	c.left -= int(count)
	return true
}

// skipRun passes over the records of the current run still to come
// without decoding them: it finds where each delta ends, as a decode would,
// and meets the same corruption at the same offset. It takes eight bytes at
// a time while their deltas are one or two bytes long — no such delta is
// malformed — through the last that ends among them, and every other delta
// on its own.
func (c *EdgeCursor) skipRun() {
	if c.inTail {
		c.tail, c.run = c.tail[c.run:], 0
		return
	}
	const tops = 0x8080808080808080 // each byte's continuation bit
	buf, off := c.buf, c.off
	for c.run > 0 {
		if len(buf)-off >= 8 {
			x := binary.LittleEndian.Uint64(buf[off:])
			ends := ^x & tops
			span := 64 - bits.LeadingZeros64(ends) // the bits through the last byte that ends a delta
			cont := x & tops & (1<<span - 1)
			if n := bits.OnesCount64(ends); n > 0 && n <= c.run && cont&(cont<<8) == 0 {
				off, c.run = off+span/8, c.run-n
				continue
			}
		}
		if off < len(buf) && buf[off] < 0x80 {
			off++
		} else {
			_, k := uvarint(buf[off:])
			if k <= 0 {
				c.off = off
				c.fail(fmt.Errorf("holder: malformed delta at offset %d", off))
				return
			}
			off += k
		}
		c.run--
	}
	c.off = off
}

// fail records err, on the view too, and ends the walk.
func (c *EdgeCursor) fail(err error) bool {
	if c.err = err; c.w != nil {
		c.w.err = err
	}
	c.run, c.left, c.tail = 0, 0, nil
	return false
}

// uvarint is binary.Uvarint — same value, same n, on any input — with a
// branch-free decode of every encoding that ends within the next 8 bytes:
// the terminating byte is the lowest one with its top bit clear, and the
// 7-bit groups ahead of it fold together in three mask-and-shift steps.
// Longer encodings (values of 2^56 and up), malformed ones and the last 7
// bytes of buf take binary.Uvarint.
func uvarint(buf []byte) (uint64, int) {
	if len(buf) < 8 {
		return binary.Uvarint(buf)
	}
	x := binary.LittleEndian.Uint64(buf)
	stops := ^x & 0x8080808080808080
	if stops == 0 {
		return binary.Uvarint(buf)
	}
	x &= (stops&-stops)<<1 - 1 // the bytes through the first terminator
	x &= 0x7f7f7f7f7f7f7f7f
	x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
	x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
	x = x&0x000000000fffffff | x&0x0fffffff00000000>>4
	return x, bits.TrailingZeros64(stops)>>3 + 1
}

// varint is binary.Varint over uvarint: the zig-zag decode of its result.
func varint(buf []byte) (int64, int) {
	ux, n := uvarint(buf)
	return int64(ux>>1) ^ -int64(ux&1), n
}
