package lpg

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The varint entry wire format of the v2 holder codec. A v2 entry is:
//
//	uvarint id    — IDLabel or a property-type integer ID
//	uvarint size  — payload size in bytes
//	payload       — size bytes, unpadded
//
// Label entries carry the LabelID itself as a uvarint payload, so the
// common small-ID label costs 3 bytes instead of the fixed format's 12.
// There is no terminator and no empty-slot padding: the region length
// recorded in the holder header is authoritative, which is what lets the
// decoder reject any truncation instead of walking past the region.
//
// Unlike the fixed format's DecodeEntries, every v2 decode path returns an
// error on malformed input rather than panicking — these bytes cross the
// fabric and are fuzzed as arbitrary input.

// AppendEntryVar appends one v2 entry with the given ID and payload.
func AppendEntryVar(buf []byte, id uint32, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// AppendLabelEntryVar appends a v2 label entry: id IDLabel, uvarint payload.
func AppendLabelEntryVar(buf []byte, l LabelID) []byte {
	var payload [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(payload[:], uint64(l))
	return AppendEntryVar(buf, IDLabel, payload[:n])
}

// AppendPropertyEntryVar appends a v2 property entry.
func AppendPropertyEntryVar(buf []byte, pt PTypeID, value []byte) []byte {
	if uint32(pt) < FirstDynamicID && pt != PTypeDegree && pt != PTypeAppID {
		panic(fmt.Sprintf("lpg: property entry with reserved ID %d", pt))
	}
	return AppendEntryVar(buf, uint32(pt), value)
}

// EntriesSizeVar returns the encoded v2 size of the given labels and
// properties without building the region — the holder layer's block-count
// fixed point calls it once per candidate block count.
func EntriesSizeVar(labels []LabelID, props []Property) int {
	n := 0
	for _, l := range labels {
		lv := UvarintLen(uint64(l))
		n += UvarintLen(uint64(IDLabel)) + UvarintLen(uint64(lv)) + lv
	}
	for _, p := range props {
		n += UvarintLen(uint64(p.PType)) + UvarintLen(uint64(len(p.Value))) + len(p.Value)
	}
	return n
}

// EncodeEntriesVar serializes labels and properties into a fresh v2 entry
// region, preserving insertion order within each kind.
func EncodeEntriesVar(labels []LabelID, props []Property) []byte {
	buf := make([]byte, 0, EntriesSizeVar(labels, props))
	for _, l := range labels {
		buf = AppendLabelEntryVar(buf, l)
	}
	for _, p := range props {
		buf = AppendPropertyEntryVar(buf, p.PType, p.Value)
	}
	return buf
}

// EntryIter walks an encoded label/property entry region in place — the
// fixed format of entry.go or, with varint set, the v2 format above —
// yielding each entry's ID and payload (aliasing the region) without
// materializing anything. It never panics: malformed or truncated input ends
// the walk and is reported by Err. The zero value walks nothing.
type EntryIter struct {
	buf    []byte
	off    int
	varint bool
	err    error
}

// IterEntries starts a walk over region in the given format.
func IterEntries(region []byte, varint bool) EntryIter {
	return EntryIter{buf: region, varint: varint}
}

// Next returns the next entry, or ok=false at the end of the region (the
// IDEnd terminator or the end of the buffer in the fixed format, the end of
// the region in the varint one) and on malformed input. Empty slots of the
// fixed format are skipped; the varint format has no reserved IDs, so
// meeting one there is an error.
func (it *EntryIter) Next() (id uint32, payload []byte, ok bool) {
	if it.err != nil {
		return 0, nil, false
	}
	if it.varint {
		return it.nextVar()
	}
	buf := it.buf
	for it.off+entryHeaderSize <= len(buf) {
		off := it.off
		id = binary.LittleEndian.Uint32(buf[off:])
		size := int(binary.LittleEndian.Uint32(buf[off+4:]))
		if id == IDEnd {
			it.off = len(buf)
			return 0, nil, false
		}
		end := off + entryHeaderSize + pad4(size)
		if size < 0 || end > len(buf) || end < off {
			it.err = fmt.Errorf("lpg: truncated entry at offset %d (size %d, buffer %d)", off, size, len(buf))
			return 0, nil, false
		}
		it.off = end
		if id != IDEmpty {
			return id, buf[off+entryHeaderSize : off+entryHeaderSize+size], true
		}
	}
	return 0, nil, false
}

func (it *EntryIter) nextVar() (uint32, []byte, bool) {
	buf, off := it.buf, it.off
	if off >= len(buf) {
		return 0, nil, false
	}
	id, n := binary.Uvarint(buf[off:])
	if n <= 0 || id > math.MaxUint32 {
		it.err = fmt.Errorf("lpg: malformed v2 entry ID at offset %d", off)
		return 0, nil, false
	}
	if id == uint64(IDEmpty) || id == uint64(IDEnd) {
		it.err = fmt.Errorf("lpg: reserved entry ID %d in v2 region", id)
		return 0, nil, false
	}
	off += n
	size, n := binary.Uvarint(buf[off:])
	if n <= 0 || size > uint64(len(buf)-off-n) {
		it.err = fmt.Errorf("lpg: truncated v2 entry at offset %d", off)
		return 0, nil, false
	}
	off += n
	it.off = off + int(size)
	return uint32(id), buf[off:it.off], true
}

// Err reports the malformation that ended the walk, if any.
func (it *EntryIter) Err() error { return it.err }

// EntryLabel decodes the label a label entry's payload carries: four
// little-endian bytes in the fixed format, one exact uvarint in the varint
// one. ok is false for a malformed payload.
func EntryLabel(payload []byte, varint bool) (l LabelID, ok bool) {
	if !varint {
		if len(payload) != 4 {
			return 0, false
		}
		return LabelID(binary.LittleEndian.Uint32(payload)), true
	}
	v, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) || v > math.MaxUint32 {
		return 0, false
	}
	return LabelID(v), true
}

// splitEntries decodes an entry region of either format into label IDs and
// properties, preserving order within each kind. Property values alias buf.
func splitEntries(buf []byte, varint bool) (labels []LabelID, props []Property, err error) {
	it := IterEntries(buf, varint)
	for {
		id, payload, ok := it.Next()
		if !ok {
			break
		}
		if id != IDLabel {
			props = append(props, Property{PType: PTypeID(id), Value: payload})
			continue
		}
		l, ok := EntryLabel(payload, varint)
		if !ok {
			return nil, nil, fmt.Errorf("lpg: malformed label entry payload of %d bytes", len(payload))
		}
		labels = append(labels, l)
	}
	if err := it.Err(); err != nil {
		return nil, nil, err
	}
	return labels, props, nil
}

// SplitEntriesVar decodes a v2 entry region back into label IDs and
// properties, preserving order within each kind. Property values are copied
// out of buf so callers may reuse the stream buffer.
func SplitEntriesVar(buf []byte) (labels []LabelID, props []Property, err error) {
	labels, props, err = splitEntries(buf, true)
	for i := range props {
		props[i].Value = append([]byte(nil), props[i].Value...)
	}
	return labels, props, err
}

// UvarintLen returns the encoded size of v as a uvarint.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintLen returns the encoded size of v as a zig-zag varint.
func VarintLen(v int64) int {
	return UvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// SplitEntriesSafe is the error-returning form of SplitEntries, used by the
// holder decode paths so that corrupt fixed-format streams (which also arrive
// as arbitrary fuzzed bytes) are rejected instead of panicking. Property
// values alias buf.
func SplitEntriesSafe(buf []byte) (labels []LabelID, props []Property, err error) {
	return splitEntries(buf, false)
}
