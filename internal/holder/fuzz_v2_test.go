package holder

import (
	"testing"

	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// vertexFromBytes derives a full fuzz vertex — edge records plus labels and
// properties — from raw input, reusing recordsFromBytes for the edge list.
func vertexFromBytes(data []byte) *Vertex {
	var appID uint64
	for i, b := range data {
		appID |= uint64(b) << (8 * (i % 8))
	}
	v := &Vertex{AppID: appID, Edges: recordsFromBytes(data)}
	for i := 0; i+1 < len(data) && i < 10; i += 2 {
		if data[i]%2 == 0 {
			v.Labels = append(v.Labels, lpg.LabelID(uint32(data[i])<<8|uint32(data[i+1])))
		} else {
			v.Props = append(v.Props, lpg.Property{
				PType: lpg.PTypeID(lpg.FirstDynamicID + uint32(data[i])),
				Value: data[i+1 : min(len(data), i+1+int(data[i+1])%9)],
			})
		}
	}
	if len(data) > 2 {
		for i := 0; i < int(data[0]%3); i++ {
			v.Homes = append(v.Homes, rma.MakeDPtr(rma.Rank(data[1])+rma.Rank(i), uint64(data[2])))
		}
	}
	return v
}

// FuzzVarintEdgeRun exercises the v2 delta+varint edge-run codec at both
// ends: arbitrary bytes through the run decoder must error — never panic —
// and records derived from the input must survive encode→decode bit-exactly,
// with the measured size matching the encoder's output.
func FuzzVarintEdgeRun(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{9, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint16(3))
	f.Add([]byte{0x0b, 0x10, 0x64, 0x06, 0x04}, uint16(2)) // one well-formed run header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		// Raw bytes into the decoder with a fuzzed record count: must never
		// panic, and on success must have consumed no more than the buffer.
		count := int(n) % 1024
		var raw []EdgeRec
		consumed, err := forEachEdgeV2(data, count, func(rec EdgeRec) bool {
			raw = append(raw, rec)
			return true
		})
		if err == nil {
			if consumed > len(data) {
				t.Fatalf("consumed %d of %d bytes", consumed, len(data))
			}
			if len(raw) != count {
				t.Fatalf("decoded %d records, asked for %d", len(raw), count)
			}
		}

		// Derived records: encode, check the size accounting, decode back.
		recs := recordsFromBytes(data)
		enc := appendEdgesV2(nil, recs)
		if len(enc) != edgesSizeV2(recs) {
			t.Fatalf("encoded %d bytes, edgesSizeV2 said %d", len(enc), edgesSizeV2(recs))
		}
		var got []EdgeRec
		consumed, err = forEachEdgeV2(enc, len(recs), func(rec EdgeRec) bool {
			got = append(got, rec)
			return true
		})
		if err != nil {
			t.Fatalf("decode of freshly encoded runs: %v", err)
		}
		if consumed != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", consumed, len(enc))
		}
		sameRecords(t, got, recs)

		// An early stop returns at once: one callback, and the bytes of the
		// records behind it stay undecoded.
		if len(recs) > 1 {
			calls := 0
			stopped, err := forEachEdgeV2(enc, len(recs), func(EdgeRec) bool { calls++; return false })
			if err != nil || calls != 1 || stopped >= len(enc) {
				t.Fatalf("early-stop walk: %d callbacks, consumed %d of %d bytes (err %v)", calls, stopped, len(enc), err)
			}
		}
	})
}

// FuzzHolderV2RoundTrip drives the whole v2 vertex-holder codec: v2
// encode→decode identity (including the View iterators and the entry-prefix
// view), v1→v2→v1 content equality for mixed-codec stores, and arbitrary
// bytes through DecodeVertex and the View, which must reject corruption with
// an error — at Reset, or through Err on the edge walk — never a panic.
func FuzzHolderV2RoundTrip(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{9, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, byte(1))
	f.Add([]byte{39, 7, 255, 254, 253, 252, 251, 250, 2, 1, 0, 77}, byte(2))
	f.Add([]byte{16, 0, 1, 0, 0, 0, 1, 0, 1, 16, 0, 1, 0, 0, 0, 1, 2, 32}, byte(3))
	f.Fuzz(func(t *testing.T, data []byte, sizeSel byte) {
		// Arbitrary bytes are a holder stream from a hostile rank: both
		// decode entry points must fail cleanly.
		if v, err := DecodeVertex(data); err == nil && v == nil {
			t.Fatal("DecodeVertex returned nil, nil")
		}
		var w View
		if w.Reset(data) == nil {
			// Reset vouches for the entry bounds only: the entry region must
			// be sliceable and an edge walk over whatever follows must end in
			// records or Err, not a panic.
			_ = w.Entries()
			w.ForEachEdge(func(EdgeRec) bool { return true })
			w.HasHome(0)
		}
		if len(data) >= HeaderSize {
			if pre := EntryBlocks(data, 64); pre < 1 || (NumBlocks(data) >= 1 && pre > NumBlocks(data)) {
				t.Fatalf("EntryBlocks = %d for a header claiming %d blocks", pre, NumBlocks(data))
			}
		}

		blockSize := []int{64, 72, 128, 512}[int(sizeSel)%4]
		v := vertexFromBytes(data)

		stream := EncodeVertexCodec(v, blockSize, CodecV2)
		nb := VertexBlocksCodec(v, blockSize, CodecV2)
		if len(stream) != nb*blockSize {
			t.Fatalf("stream of %d bytes for %d blocks of %d", len(stream), nb, blockSize)
		}
		if NumBlocks(stream) != nb {
			t.Fatalf("header says %d blocks, layout computed %d", NumBlocks(stream), nb)
		}
		if Inline(stream) != (nb == 1) {
			t.Fatalf("inline flag %v with %d blocks", Inline(stream), nb)
		}
		got, err := DecodeVertex(stream)
		if err != nil {
			t.Fatalf("v2 decode: %v (%d records, block size %d)", err, len(v.Edges), blockSize)
		}
		if got.Codec != CodecV2 {
			t.Fatalf("decoded codec %v", got.Codec)
		}
		sameVertexContent(t, got, v)

		// The zero-copy view must agree with the materializing decoder.
		if err := w.Reset(stream); err != nil {
			t.Fatalf("view reset on fresh v2 stream: %v", err)
		}
		if w.NumEdges() != len(v.Edges) || w.AppID() != v.AppID {
			t.Fatalf("view header %d/%d, want %d/%d", w.NumEdges(), w.AppID(), len(v.Edges), v.AppID)
		}
		sameRecords(t, w.AppendEdges(nil), v.Edges)
		if err := w.Err(); err != nil {
			t.Fatalf("edge walk over a fresh v2 stream: %v", err)
		}
		// The entries sit ahead of the edge runs: the prefix EntryBlocks
		// names is all a label/property reader needs.
		if err := w.Reset(stream[:EntryBlocks(stream, blockSize)*blockSize]); err != nil {
			t.Fatalf("view reset on the entry prefix: %v", err)
		}
		labels, props, err := lpg.SplitEntriesVar(w.Entries())
		if err != nil {
			t.Fatalf("entry region of a fresh v2 stream: %v", err)
		}
		sameVertexContent(t, &Vertex{AppID: v.AppID, Homes: v.Homes, Edges: v.Edges, Labels: labels, Props: props}, v)

		// v1 → v2 → v1: content equality across both conversions, the
		// invariant migration and promotion rely on when they re-encode a
		// holder under a different engine codec.
		s1 := EncodeVertexCodec(v, blockSize, CodecV1)
		d1, err := DecodeVertex(s1)
		if err != nil {
			t.Fatalf("v1 decode: %v", err)
		}
		s2 := EncodeVertexCodec(d1, blockSize, CodecV2)
		d2, err := DecodeVertex(s2)
		if err != nil {
			t.Fatalf("v1→v2 decode: %v", err)
		}
		s3 := EncodeVertexCodec(d2, blockSize, CodecV1)
		d3, err := DecodeVertex(s3)
		if err != nil {
			t.Fatalf("v2→v1 decode: %v", err)
		}
		sameVertexContent(t, d3, d1)
	})
}
