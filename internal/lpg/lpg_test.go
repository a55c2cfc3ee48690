package lpg

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrips(t *testing.T) {
	if got := DecodeUint64(EncodeUint64(math.MaxUint64)); got != math.MaxUint64 {
		t.Fatalf("uint64 round trip = %d", got)
	}
	if got := DecodeInt64(EncodeInt64(-42)); got != -42 {
		t.Fatalf("int64 round trip = %d", got)
	}
	if got := DecodeFloat64(EncodeFloat64(3.25)); got != 3.25 {
		t.Fatalf("float64 round trip = %v", got)
	}
	if !DecodeBool(EncodeBool(true)) || DecodeBool(EncodeBool(false)) {
		t.Fatal("bool round trip failed")
	}
	if got := DecodeString(EncodeString("héllo")); got != "héllo" {
		t.Fatalf("string round trip = %q", got)
	}
}

func TestQuickScalarRoundTrips(t *testing.T) {
	if err := quick.Check(func(v uint64) bool { return DecodeUint64(EncodeUint64(v)) == v }, nil); err != nil {
		t.Error("uint64:", err)
	}
	if err := quick.Check(func(v int64) bool { return DecodeInt64(EncodeInt64(v)) == v }, nil); err != nil {
		t.Error("int64:", err)
	}
	if err := quick.Check(func(v float64) bool {
		got := DecodeFloat64(EncodeFloat64(v))
		return got == v || (math.IsNaN(got) && math.IsNaN(v))
	}, nil); err != nil {
		t.Error("float64:", err)
	}
	if err := quick.Check(func(s string) bool { return DecodeString(EncodeString(s)) == s }, nil); err != nil {
		t.Error("string:", err)
	}
}

func TestFloat64VectorRoundTrip(t *testing.T) {
	vs := []float64{0, 1.5, -2.25, math.Inf(1)}
	got := DecodeFloat64Vector(EncodeFloat64Vector(vs))
	if !reflect.DeepEqual(got, vs) {
		t.Fatalf("vector round trip = %v, want %v", got, vs)
	}
	if out := DecodeFloat64Vector(EncodeFloat64Vector(nil)); len(out) != 0 {
		t.Fatalf("empty vector round trip = %v", out)
	}
}

func TestDecodeBadSizesPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"uint64": func() { DecodeUint64(make([]byte, 7)) },
		"bool":   func() { DecodeBool(nil) },
		"vector": func() { DecodeFloat64Vector(make([]byte, 9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on bad size", name)
				}
			}()
			fn()
		}()
	}
}

func TestEntryEncodeDecode(t *testing.T) {
	labels := []LabelID{100, 200}
	props := []Property{
		{PType: PTypeDegree, Value: EncodeUint64(5)},
		{PType: PTypeID(20), Value: EncodeString("alice")},
		{PType: PTypeID(21), Value: nil}, // empty payload is legal
	}
	buf := EncodeEntries(labels, props)
	gotLabels, gotProps, err := splitEntries(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotLabels, labels) {
		t.Fatalf("labels = %v, want %v", gotLabels, labels)
	}
	if len(gotProps) != len(props) {
		t.Fatalf("props = %d entries, want %d", len(gotProps), len(props))
	}
	for i := range props {
		if gotProps[i].PType != props[i].PType || !bytes.Equal(gotProps[i].Value, props[i].Value) {
			t.Fatalf("prop %d = %+v, want %+v", i, gotProps[i], props[i])
		}
	}
}

func TestEntriesEmpty(t *testing.T) {
	buf := EncodeEntries(nil, nil)
	if len(buf) != 0 {
		t.Fatalf("empty region = %d bytes, want 0", len(buf))
	}
	labels, props, err := splitEntries(buf)
	if err != nil || labels != nil || props != nil {
		t.Fatalf("empty region decoded to %v, %v, %v", labels, props, err)
	}
}

// TestDecodeWithoutTerminatorStopsAtEnd: the format has no terminator entry,
// so the region length the holder header records is what ends a walk — the
// bytes that follow the region in its block are never read as entries.
func TestDecodeWithoutTerminatorStopsAtEnd(t *testing.T) {
	buf := AppendLabelEntry(nil, 3)
	region := len(buf)
	buf = append(buf, 0xff, 0xff) // what follows the region: no entry at all
	labels, props, err := splitEntries(buf[:region])
	if err != nil || len(labels) != 1 || labels[0] != 3 || props != nil {
		t.Fatalf("region decoded to %v, %v, %v; want the one label", labels, props, err)
	}
	it := IterEntries(buf[:region])
	it.Next()
	if _, _, ok := it.Next(); ok || it.Err() != nil {
		t.Fatalf("walk past the last entry: ok %v, err %v; want a clean end", ok, it.Err())
	}
	if _, _, err := splitEntries(buf); err == nil {
		t.Fatal("the bytes past the region decoded as an entry")
	}
}

func TestReservedEntryIDsRejected(t *testing.T) {
	for _, id := range []uint32{IDEmpty, IDEnd} {
		buf := AppendLabelEntry(nil, 7)
		buf = AppendEntry(buf, id, make([]byte, 4))
		if _, _, err := splitEntries(buf); err == nil {
			t.Fatalf("entry with reserved ID %d accepted", id)
		}
	}
}

func TestQuickEntryRoundTrip(t *testing.T) {
	prop := func(labelSeeds []uint32, payloads [][]byte) bool {
		var labels []LabelID
		for _, s := range labelSeeds {
			labels = append(labels, LabelID(s%1000+FirstDynamicID))
		}
		var props []Property
		for i, p := range payloads {
			props = append(props, Property{PType: PTypeID(FirstDynamicID + uint32(i)), Value: p})
		}
		buf := EncodeEntries(labels, props)
		gl, gp, err := splitEntries(buf)
		if err != nil || len(gl) != len(labels) || len(gp) != len(props) {
			return false
		}
		for i := range labels {
			if gl[i] != labels[i] {
				return false
			}
		}
		for i := range props {
			if gp[i].PType != props[i].PType || !bytes.Equal(gp[i].Value, props[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedEntryRejected(t *testing.T) {
	buf := AppendPropertyEntry(nil, 30, make([]byte, 40))
	if _, _, err := splitEntries(buf[:12]); err == nil { // the size promises 40 bytes, 10 follow
		t.Fatal("truncated entry region accepted")
	}
	bad := AppendEntry(nil, IDLabel, []byte{0x80}) // a label payload that is no uvarint
	if _, _, err := splitEntries(bad); err == nil {
		t.Fatal("malformed label payload accepted")
	}
}

func TestEntrySizeAccounting(t *testing.T) {
	if n := len(AppendLabelEntry(nil, 16)); n != 3 {
		t.Fatalf("small label entry = %d bytes, want 3", n)
	}
	labels := []LabelID{1, 300}
	props := []Property{{PType: 30, Value: make([]byte, 5)}, {PType: 200, Value: make([]byte, 130)}}
	if got, want := len(EncodeEntries(labels, props)), EntriesSize(labels, props); got != want {
		t.Fatalf("encoded size %d, EntriesSize %d", got, want)
	}
}

func TestReservedPTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reserved ptype ID did not panic")
		}
	}()
	AppendPropertyEntry(nil, PTypeID(IDLabel), nil)
}

func TestDatatypeStrings(t *testing.T) {
	for dt, want := range map[Datatype]string{
		TypeBytes: "bytes", TypeUint64: "uint64", TypeInt64: "int64",
		TypeFloat64: "float64", TypeBool: "bool", TypeString: "string",
		TypeDate: "date", TypeFloat64Vector: "[]float64", Datatype(99): "Datatype(99)",
	} {
		if dt.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(dt), dt.String(), want)
		}
	}
}

// splitEntries decodes an entry region into label IDs and properties, each
// kind in order, with the property values copied out of buf: the decoded
// form the region edits are checked against.
func splitEntries(buf []byte) (labels []LabelID, props []Property, err error) {
	if err := CheckEntries(buf); err != nil {
		return nil, nil, err
	}
	it := IterEntries(buf)
	for id, payload, ok := it.Next(); ok; id, payload, ok = it.Next() {
		if id == IDLabel {
			l, _ := EntryLabel(payload)
			labels = append(labels, l)
		} else {
			props = append(props, Property{PType: PTypeID(id), Value: append([]byte(nil), payload...)})
		}
	}
	return labels, props, nil
}
