package lpg

import (
	"bytes"
	"testing"
)

// entriesFromBytes deterministically derives a label set and property list
// from raw fuzz input. Property-type IDs are kept in the dynamic range
// (reserved IDs below FirstDynamicID are rejected by AppendPropertyEntry by
// contract) and value sizes are drawn so that empty, short, and multi-word
// payloads all occur.
func entriesFromBytes(data []byte) (labels []LabelID, props []Property) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nLabels := int(next() % 8)
	for i := 0; i < nLabels; i++ {
		labels = append(labels, LabelID(uint32(next())<<8|uint32(next())))
	}
	nProps := int(next() % 8)
	for i := 0; i < nProps; i++ {
		pt := PTypeID(FirstDynamicID + uint32(next())%1024)
		size := int(next() % 67) // covers 0, 4-aligned, and padded sizes
		val := make([]byte, size)
		for j := range val {
			val[j] = next()
		}
		props = append(props, Property{PType: pt, Value: val})
	}
	return labels, props
}

// FuzzEntryRoundTrip drives the §5.4.3 entry wire format end to end:
// whatever label/property combination the fuzzer derives must encode into a
// region of exactly EntriesSize bytes, decode back into the identical labels
// and properties, and re-encode byte-identically (the codec is canonical).
// The raw input itself, read as an entry region, must decode or fail with an
// error — never panic.
func FuzzEntryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 16})
	f.Add([]byte{0, 2, 1, 5, 4, 9, 8, 7, 6, 2, 0, 0})
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 3, 255, 66, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		splitEntries(data)

		labels, props := entriesFromBytes(data)
		buf := EncodeEntries(labels, props)
		if len(buf) != EntriesSize(labels, props) {
			t.Fatalf("encoded %d bytes, EntriesSize said %d", len(buf), EntriesSize(labels, props))
		}
		gotLabels, gotProps, err := splitEntries(buf)
		if err != nil {
			t.Fatalf("decode of a fresh region: %v", err)
		}
		if len(gotLabels) != len(labels) {
			t.Fatalf("decoded %d labels, encoded %d", len(gotLabels), len(labels))
		}
		for i := range labels {
			if gotLabels[i] != labels[i] {
				t.Fatalf("label %d: got %d, want %d", i, gotLabels[i], labels[i])
			}
		}
		if len(gotProps) != len(props) {
			t.Fatalf("decoded %d properties, encoded %d", len(gotProps), len(props))
		}
		for i := range props {
			if gotProps[i].PType != props[i].PType {
				t.Fatalf("property %d: ptype %d, want %d", i, gotProps[i].PType, props[i].PType)
			}
			if !bytes.Equal(gotProps[i].Value, props[i].Value) {
				t.Fatalf("property %d: value %v, want %v", i, gotProps[i].Value, props[i].Value)
			}
		}
		if again := EncodeEntries(gotLabels, gotProps); !bytes.Equal(again, buf) {
			t.Fatalf("re-encode not canonical:\n got %v\nwant %v", again, buf)
		}

		// The region length is authoritative: cutting the last byte off a
		// non-empty region must be an error, not a shorter answer.
		if len(buf) > 0 {
			if _, _, err := splitEntries(buf[:len(buf)-1]); err == nil {
				t.Fatal("a region one byte short decoded without error")
			}
		}
	})
}

// FuzzRegionEdits checks the in-place region edits against their decoded
// form: a region EncodeEntries wrote, edited by a script of InsertLabel,
// RemoveLabel, AppendPropertyEntry, SetProperty and RemoveProperties, must be
// byte for byte the region EncodeEntries writes for the same script applied
// to the decoded labels and properties — labels appended, the first match
// removed, properties appended, the first of a type replaced (or appended),
// every one of a type removed.
func FuzzRegionEdits(f *testing.F) {
	f.Add([]byte{2, 0, 16, 0, 17, 2, 0, 5, 1, 2, 3, 4, 5, 0, 0}, []byte{0, 18, 1, 16, 2, 7, 3, 0, 3, 4, 4, 0})
	f.Add([]byte{}, []byte{3, 9, 2, 0, 0, 16, 1, 16, 4, 0})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		labels, props := entriesFromBytes(data)
		region := EncodeEntries(labels, props)
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		for ops := 0; len(script) > 0 && ops < 32; ops++ {
			op, arg := next()%5, next()
			l := LabelID(FirstDynamicID + uint32(arg%4))
			pt := PTypeID(FirstDynamicID + uint32(arg)%1024)
			value := bytes.Repeat([]byte{arg}, int(next()%20))
			switch op {
			case 0:
				labels = append(labels, l)
				region = InsertLabel(region, l)
			case 1:
				for i, x := range labels {
					if x == l {
						labels = append(labels[:i], labels[i+1:]...)
						break
					}
				}
				region = RemoveLabel(region, l)
			case 2:
				props = append(props, Property{PType: pt, Value: value})
				region = AppendPropertyEntry(region, pt, value)
			case 3:
				set := false
				for i := range props {
					if props[i].PType == pt {
						props[i].Value, set = value, true
						break
					}
				}
				if !set {
					props = append(props, Property{PType: pt, Value: value})
				}
				region = SetProperty(region, pt, value)
			case 4:
				kept := props[:0]
				for _, p := range props {
					if p.PType != pt {
						kept = append(kept, p)
					}
				}
				props = kept
				region = RemoveProperties(region, pt)
			}
			if want := EncodeEntries(labels, props); !bytes.Equal(region, want) {
				t.Fatalf("after op %d(%d): region\n%v\nwant\n%v", op, arg, region, want)
			}
		}
		if err := CheckEntries(region); err != nil {
			t.Fatal(err)
		}
	})
}
