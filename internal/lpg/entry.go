package lpg

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The label/property entry wire format of §5.4.3, in its varint form. An
// entry is:
//
//	uvarint id    — IDLabel or a property-type integer ID
//	uvarint size  — payload size in bytes
//	payload       — size bytes, unpadded
//
// Label entries carry the LabelID itself as a uvarint payload, so the
// common small-ID label costs 3 bytes. There is no terminator and no
// empty-slot padding: the region length recorded in the holder header is
// authoritative, which is what lets the decoder reject any truncation
// instead of walking past the region. (The paper's fixed-width entries — u32
// id, u32 size, 4-byte-padded payload, IDEnd terminator — spend 12 bytes on
// a label and up to 3 bytes of padding per property.)
//
// Every decode path returns an error on malformed input rather than
// panicking — these bytes cross the fabric and are fuzzed as arbitrary input.

// AppendEntry appends one entry with the given ID and payload.
func AppendEntry(buf []byte, id uint32, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// AppendLabelEntry appends a label entry: id IDLabel, uvarint payload.
func AppendLabelEntry(buf []byte, l LabelID) []byte {
	var payload [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(payload[:], uint64(l))
	return AppendEntry(buf, IDLabel, payload[:n])
}

// AppendPropertyEntry appends a property entry.
func AppendPropertyEntry(buf []byte, pt PTypeID, value []byte) []byte {
	if uint32(pt) < FirstDynamicID && pt != PTypeDegree && pt != PTypeAppID {
		panic(fmt.Sprintf("lpg: property entry with reserved ID %d", pt))
	}
	return AppendEntry(buf, uint32(pt), value)
}

// EntriesSize returns the encoded size of the given labels and properties
// without building the region — the holder layer's block-count fixed point
// calls it once per candidate block count.
func EntriesSize(labels []LabelID, props []Property) int {
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

// EncodeEntries serializes labels and properties into a fresh entry region,
// preserving insertion order within each kind.
func EncodeEntries(labels []LabelID, props []Property) []byte {
	buf := make([]byte, 0, EntriesSize(labels, props))
	for _, l := range labels {
		buf = AppendLabelEntry(buf, l)
	}
	for _, p := range props {
		buf = AppendPropertyEntry(buf, p.PType, p.Value)
	}
	return buf
}

// Property is one (property type, encoded value) pair.
type Property struct {
	PType PTypeID
	Value []byte
}

// EntryIter walks an encoded label/property entry region in place, yielding
// each entry's ID and payload (aliasing the region) without materializing
// anything. It never panics: malformed or truncated input ends the walk and
// is reported by Err. The zero value walks nothing.
type EntryIter struct {
	buf []byte
	off int
	err error
}

// IterEntries starts a walk over region.
func IterEntries(region []byte) EntryIter { return EntryIter{buf: region} }

// Next returns the next entry, or ok=false at the end of the region and on
// malformed input. The format has no use for the reserved IDs IDEmpty and
// IDEnd, so meeting one is an error.
func (it *EntryIter) Next() (id uint32, payload []byte, ok bool) {
	buf, off := it.buf, it.off
	if it.err != nil || off >= len(buf) {
		return 0, nil, false
	}
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 || v > math.MaxUint32 {
		it.err = fmt.Errorf("lpg: malformed entry ID at offset %d", off)
		return 0, nil, false
	}
	if v == uint64(IDEmpty) || v == uint64(IDEnd) {
		it.err = fmt.Errorf("lpg: reserved entry ID %d", v)
		return 0, nil, false
	}
	off += n
	size, n := binary.Uvarint(buf[off:])
	if n <= 0 || size > uint64(len(buf)-off-n) {
		it.err = fmt.Errorf("lpg: truncated entry at offset %d", off)
		return 0, nil, false
	}
	off += n
	it.off = off + int(size)
	return uint32(v), buf[off:it.off], true
}

// Err reports the malformation that ended the walk, if any.
func (it *EntryIter) Err() error { return it.err }

// EntryLabel decodes the label a label entry's payload carries: one exact
// uvarint. ok is false for a malformed payload.
func EntryLabel(payload []byte) (l LabelID, ok bool) {
	v, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) || v > math.MaxUint32 {
		return 0, false
	}
	return LabelID(v), true
}

// CheckEntries validates an entry region: every entry well formed, and
// every label entry's payload one exact uvarint. A region it accepts is one
// the other walkers of this file read without meeting an error.
func CheckEntries(region []byte) error {
	it := IterEntries(region)
	for id, payload, ok := it.Next(); ok; id, payload, ok = it.Next() {
		if id != IDLabel {
			continue
		}
		if _, ok := EntryLabel(payload); !ok {
			return fmt.Errorf("lpg: malformed label entry payload of %d bytes", len(payload))
		}
	}
	return it.Err()
}

// AppendLabels appends the labels of a checked region to dst, in order.
func AppendLabels(dst []LabelID, region []byte) []LabelID {
	it := IterEntries(region)
	for id, payload, ok := it.Next(); ok; id, payload, ok = it.Next() {
		if id == IDLabel {
			l, _ := EntryLabel(payload)
			dst = append(dst, l)
		}
	}
	return dst
}

// The region edits below splice one checked region in place, growing it
// through append when an entry does not fit, and keep the order of every
// entry they do not touch: a region EncodeEntries wrote (labels, then
// properties) stays in that form.

// InsertLabel inserts a label entry for l after the region's last label
// entry, at the front when it has none.
func InsertLabel(region []byte, l LabelID) []byte {
	at := 0
	it := IterEntries(region)
	for id, _, ok := it.Next(); ok; id, _, ok = it.Next() {
		if id == IDLabel {
			at = it.off
		}
	}
	var entry [2 + binary.MaxVarintLen32]byte
	return slices.Insert(region, at, AppendLabelEntry(entry[:0], l)...)
}

// RemoveLabel drops the first label entry for l, if any.
func RemoveLabel(region []byte, l LabelID) []byte {
	it := IterEntries(region)
	for start := 0; ; start = it.off {
		id, payload, ok := it.Next()
		if !ok {
			return region
		}
		if id != IDLabel {
			continue
		}
		if got, _ := EntryLabel(payload); got == l {
			return slices.Delete(region, start, it.off)
		}
	}
}

// SetProperty replaces the payload of the first entry of pt with value, or
// appends an entry when there is none.
func SetProperty(region []byte, pt PTypeID, value []byte) []byte {
	it := IterEntries(region)
	for start := 0; ; start = it.off {
		id, _, ok := it.Next()
		if !ok {
			return AppendPropertyEntry(region, pt, value)
		}
		if id == uint32(pt) {
			var entry [2 * binary.MaxVarintLen64]byte
			head := binary.AppendUvarint(binary.AppendUvarint(entry[:0], uint64(id)), uint64(len(value)))
			region = slices.Replace(region, start, it.off, head...)
			return slices.Insert(region, start+len(head), value...)
		}
	}
}

// RemoveProperties drops every entry of pt.
func RemoveProperties(region []byte, pt PTypeID) []byte {
	kept := 0
	it := IterEntries(region)
	for start := 0; ; start = it.off {
		id, _, ok := it.Next()
		if !ok {
			return region[:kept]
		}
		if id != uint32(pt) {
			kept += copy(region[kept:], region[start:it.off])
		}
	}
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
