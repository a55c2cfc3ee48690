package holder

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// recordsFromBytes deterministically derives edge records from raw fuzz
// input: arbitrary neighbor DPtrs (rank and offset), all three directions,
// heavy flags, and labels.
func recordsFromBytes(data []byte) []EdgeRec {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := int(next()%40) + int(next()%8)
	recs := make([]EdgeRec, 0, n)
	for i := 0; i < n; i++ {
		rank := rma.Rank(uint16(next())<<8 | uint16(next()))
		off := uint64(next())<<16 | uint64(next())<<8 | uint64(next())
		recs = append(recs, EdgeRec{
			Neighbor: rma.MakeDPtr(rank, off),
			Dir:      Direction(next() % 3),
			Heavy:    next()%2 == 1,
			Label:    lpg.LabelID(uint32(next())<<8 | uint32(next())),
		})
	}
	return recs
}

func sameRecords(t *testing.T, got, want []EdgeRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d edge records, encoded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// vertexFromBytes derives a full fuzz vertex — edge records plus labels and
// properties — from raw input, reusing recordsFromBytes for the edge list.
func vertexFromBytes(data []byte) *Vertex {
	var appID uint64
	for i, b := range data {
		appID |= uint64(b) << (8 * (i % 8))
	}
	v := &Vertex{AppID: appID, Edges: recordsFromBytes(data)}
	var labels []lpg.LabelID
	var props []lpg.Property
	for i := 0; i+1 < len(data) && i < 10; i += 2 {
		if data[i]%2 == 0 {
			labels = append(labels, lpg.LabelID(uint32(data[i])<<8|uint32(data[i+1])))
		} else {
			props = append(props, lpg.Property{
				PType: lpg.PTypeID(lpg.FirstDynamicID + uint32(data[i])),
				Value: data[i+1 : min(len(data), i+1+int(data[i+1])%9)],
			})
		}
	}
	v.Entries = lpg.EncodeEntries(labels, props)
	if len(data) > 2 {
		for i := 0; i < int(data[0]%3); i++ {
			v.Homes = append(v.Homes, rma.MakeDPtr(rma.Rank(data[1])+rma.Rank(i), uint64(data[2])))
		}
	}
	return v
}

// FuzzVarintEdgeRun exercises the delta+varint edge-run codec at both
// ends. Arbitrary bytes through the EdgeCursor must error — never panic — and
// agree with the forEachEdgeRun oracle: the same records, an error or not
// alike, the same bytes decoded, walked in full, a run at a time and stopped
// early; and each run stopped at a bound (StepUpTo) and resumed must agree
// with the filtered run walk (sameBoundWalk), the bound one of the region's
// own neighbors, less one or not. Records derived from the input must
// survive encode→decode bit-exactly, with the measured size matching the
// encoder's output, and every light run they encode to must ascend.
func FuzzVarintEdgeRun(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{9, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint16(3))
	f.Add([]byte{0x0b, 0x10, 0x64, 0x06, 0x04}, uint16(2)) // one well-formed run header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		// Raw bytes with a fuzzed record count, and a fuzzed early stop
		// from the count's spare bits.
		count, stop := int(n)%1024, int(n>>10)+1
		sameWalk(t, data, count, 0)
		sameWalk(t, data, count, stop)
		boundWalks := func(region []byte, count int) {
			t.Helper()
			recs, _, _ := runWalk(regionView(region, count), 64)
			top := fabric.DPtr(math.MaxUint64)
			if len(recs) > 0 {
				top = recs[stop%len(recs)].Neighbor - fabric.DPtr(stop&1)
			}
			for _, chunk := range []int{1, 3, 64} {
				sameBoundWalk(t, region, count, top, chunk)
			}
		}
		boundWalks(data, count)

		// Derived records: encode, check the size accounting, decode back.
		recs := recordsFromBytes(data)
		enc := appendEdgeRuns(nil, recs)
		if len(enc) != edgeRunsSize(recs) {
			t.Fatalf("encoded %d bytes, edgeRunsSize said %d", len(enc), edgeRunsSize(recs))
		}
		w := regionView(enc, len(recs))
		got, consumed := cursorWalk(w, 0)
		if err := w.Err(); err != nil {
			t.Fatalf("decode of freshly encoded runs: %v", err)
		}
		if consumed != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", consumed, len(enc))
		}
		sameRecords(t, got, recs)
		sameWalk(t, enc, len(recs), stop)
		checkRunsAscend(t, enc, len(recs))
		boundWalks(enc, len(recs))

		// An early stop ends the walk: the bytes of the records behind the
		// first stay undecoded.
		if len(recs) > 1 {
			if got, stopped := cursorWalk(regionView(enc, len(recs)), 1); len(got) != 1 || stopped >= len(enc) {
				t.Fatalf("early-stop walk: %d records, consumed %d of %d bytes", len(got), stopped, len(enc))
			}
		}
	})
}

// FuzzUvarint: the branch-free varint readers are binary.Uvarint and
// binary.Varint — the same value and the same n, 0 for a buffer too short
// and negative for an overflow — on arbitrary bytes, at every offset.
func FuzzUvarint(f *testing.F) {
	for _, seed := range [][]byte{
		{}, {0}, {0x7f}, {0x80}, {0x80, 0x01},
		binary.AppendUvarint(nil, 1<<56-1),
		binary.AppendUvarint(nil, 1<<56),
		binary.AppendUvarint(nil, math.MaxUint64),
		append(binary.AppendUvarint(nil, 300), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0x00},       // a non-minimal zero
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // overflows in byte 10
		bytes.Repeat([]byte{0xff}, 11),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i := range len(data) + 1 {
			b := data[i:]
			u, n := uvarint(b)
			wantU, wantN := binary.Uvarint(b)
			if u != wantU || n != wantN {
				t.Fatalf("uvarint(% x) = %d, %d; binary.Uvarint = %d, %d", b, u, n, wantU, wantN)
			}
			s, n := varint(b)
			wantS, wantN := binary.Varint(b)
			if s != wantS || n != wantN {
				t.Fatalf("varint(% x) = %d, %d; binary.Varint = %d, %d", b, s, n, wantS, wantN)
			}
		}
	})
}

// FuzzHolderV2RoundTrip drives the Logical Layout (§5.4) end to end for
// vertex holders: encode→decode identity (including the View iterators and
// the entry-prefix view) at block sizes small enough for multi-block chains,
// the block-table streaming invariant on a synthetic chain linked through
// the table, an append-and-re-encode pass like the bulk-load merge path, and
// arbitrary bytes through DecodeVertex and the View, which must reject
// corruption with an error — at Reset, or through Err on the edge walk —
// never a panic. Every edge region, fresh or arbitrary, is also walked a
// run at a time and checked against the forEachEdgeRun oracle.
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
			sameWalk(t, data[w.edgesOff:], w.numEdges, 0)
		}
		if len(data) >= HeaderSize {
			if pre := EntryBlocks(data, 64); pre < 1 || (NumBlocks(data) >= 1 && pre > NumBlocks(data)) {
				t.Fatalf("EntryBlocks = %d for a header claiming %d blocks", pre, NumBlocks(data))
			}
		}

		blockSize := []int{64, 72, 128, 512}[int(sizeSel)%4]
		v := vertexFromBytes(data)

		stream := EncodeVertex(v, blockSize)
		nb := VertexBlocks(v, blockSize)
		if len(stream) != nb*blockSize {
			t.Fatalf("stream of %d bytes for %d blocks of %d", len(stream), nb, blockSize)
		}
		if NumBlocks(stream) != nb {
			t.Fatalf("header says %d blocks, layout computed %d", NumBlocks(stream), nb)
		}
		if Inline(stream) != (nb == 1) {
			t.Fatalf("inline flag %v with %d blocks", Inline(stream), nb)
		}
		if IsEdgeHolder(stream) {
			t.Fatal("vertex holder flagged as edge holder")
		}
		// The streaming invariant: table entry i must be fully contained in
		// the first i+1 blocks, so a reader never needs a block before the
		// entry addressing it. Link a synthetic continuation chain through
		// the table and read it back, exactly as the fetch rounds do.
		for i := 0; i < nb-1; i++ {
			if TableEntryOffset(i)+8 > (i+1)*blockSize {
				t.Fatalf("table entry %d at offset %d spills past block %d (block size %d)",
					i, TableEntryOffset(i), i, blockSize)
			}
			SetTableEntry(stream, i, rma.MakeDPtr(rma.Rank(i%7), uint64(i+1)))
		}
		for i := 0; i < nb-1; i++ {
			if got := TableEntry(stream, i); got != rma.MakeDPtr(rma.Rank(i%7), uint64(i+1)) {
				t.Fatalf("table entry %d: got %v", i, got)
			}
		}
		got, err := DecodeVertex(stream)
		if err != nil {
			t.Fatalf("decode: %v (%d records, block size %d)", err, len(v.Edges), blockSize)
		}
		sameVertexContent(t, got, v)

		// The zero-copy view must agree with the materializing decoder.
		if err := w.Reset(stream); err != nil {
			t.Fatalf("view reset on a fresh stream: %v", err)
		}
		if w.EdgeCap() != len(v.Edges) || w.AppID() != v.AppID {
			t.Fatalf("view header %d/%d, want %d/%d", w.EdgeCap(), w.AppID(), len(v.Edges), v.AppID)
		}
		sameRecords(t, w.AppendEdges(nil), v.Edges)
		if err := w.Err(); err != nil {
			t.Fatalf("edge walk over a fresh stream: %v", err)
		}
		sameWalk(t, stream[w.edgesOff:], w.numEdges, 0)
		checkRunsAscend(t, stream[w.edgesOff:], w.numEdges)
		// The entries sit ahead of the edge runs: the prefix EntryBlocks
		// names is all a label/property reader needs.
		if err := w.Reset(stream[:EntryBlocks(stream, blockSize)*blockSize]); err != nil {
			t.Fatalf("view reset on the entry prefix: %v", err)
		}
		sameEntries(t, w.Entries(), v)

		// Append-and-re-encode: grow the decoded holder by its own records
		// (the bulk-load merge path) and round-trip again through a chain
		// that is at least as long.
		got.Edges = append(got.Edges, v.Edges...)
		stream2 := EncodeVertex(got, blockSize)
		if VertexBlocks(got, blockSize)*blockSize != len(stream2) || len(stream2) < len(stream) {
			t.Fatalf("re-encoded stream of %d bytes, first encoding %d", len(stream2), len(stream))
		}
		again, err := DecodeVertex(stream2)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		sameRecords(t, again.Edges, got.Edges)

		// Append behind the stored region, as a transactional CreateEdge
		// does, after a light record: records of its run's kind that first
		// ascend from it, then descend. The descent must start a new run.
		base, tail := *v, *v
		run := EdgeRec{Neighbor: rma.MakeDPtr(1, 9), Dir: DirOut, Label: 7}
		base.Edges = append(slices.Clone(v.Edges), run)
		tail.Edges = []EdgeRec{run, run, run}
		tail.Edges[0].Neighbor++
		tail.Edges[1].Neighbor -= 6
		tail.Edges[2].Neighbor = rma.MakeDPtr(2, 0)
		if err := w.Reset(EncodeVertex(&base, blockSize)); err != nil {
			t.Fatal(err)
		}
		s, err := w.StoredEdges()
		if err != nil {
			t.Fatal(err)
		}
		appended := EncodeVertexAfter(&tail, &s, blockSize)
		if err := w.Reset(appended); err != nil {
			t.Fatal(err)
		}
		sameRecords(t, w.AppendEdges(nil), append(base.Edges, tail.Edges...))
		checkRunsAscend(t, appended[w.edgesOff:], w.numEdges)
	})
}

// FuzzEdgeHolderRoundTrip covers the heavy-edge holder codec with fuzzed
// endpoints, direction, and rich data, at a block size small enough that the
// entry region spills into continuation blocks; the raw tail, read as a
// holder stream, must decode or fail with an error — never panic.
func FuzzEdgeHolderRoundTrip(f *testing.F) {
	f.Add(uint64(5), uint64(9), byte(0), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint64(1<<63), uint64(0), byte(2), []byte{})
	f.Fuzz(func(t *testing.T, origin, target uint64, dir byte, tail []byte) {
		e := &Edge{
			Origin: rma.DPtr(origin),
			Target: rma.DPtr(target),
			Dir:    Direction(dir % 3),
		}
		for i := 0; i+1 < len(tail) && i < 12; i += 2 {
			if tail[i]%2 == 0 {
				e.Labels = append(e.Labels, lpg.LabelID(tail[i+1]))
			} else {
				e.Props = append(e.Props, lpg.Property{
					PType: lpg.PTypeID(lpg.FirstDynamicID + uint32(tail[i])),
					Value: tail[i+1 : min(len(tail), i+1+int(tail[i+1])%9)],
				})
			}
		}
		DecodeEdge(tail)
		buf := EncodeEdge(e, 64)
		if len(buf) != EdgeBlocks(e, 64)*64 || NumBlocks(buf) != EdgeBlocks(e, 64) {
			t.Fatalf("stream of %d bytes, header %d blocks, layout %d", len(buf), NumBlocks(buf), EdgeBlocks(e, 64))
		}
		if !IsEdgeHolder(buf) || Inline(buf) != (NumBlocks(buf) == 1) {
			t.Fatalf("flags: edge holder %v, inline %v with %d blocks", IsEdgeHolder(buf), Inline(buf), NumBlocks(buf))
		}
		got, err := DecodeEdge(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Origin != e.Origin || got.Target != e.Target || got.Dir != e.Dir {
			t.Fatalf("endpoints/dir: got %+v, want %+v", got, e)
		}
		if len(got.Labels) != len(e.Labels) || len(got.Props) != len(e.Props) {
			t.Fatalf("rich data: got %d/%d, want %d/%d", len(got.Labels), len(got.Props), len(e.Labels), len(e.Props))
		}
		for i := range e.Props {
			if got.Props[i].PType != e.Props[i].PType || !bytes.Equal(got.Props[i].Value, e.Props[i].Value) {
				t.Fatalf("prop %d: got %+v, want %+v", i, got.Props[i], e.Props[i])
			}
		}
	})
}

// checkTailCursor holds a cursor over s and then tail to want, s's records
// followed by tail's: record by record through Next, and a run at a time
// through NextRun and StepRun into buffers of 1, 3 and 64 neighbors, where
// a tail run must end exactly where the tail's run key changes, Rec must
// carry the last neighbor each StepRun stored, and LastRun must hold of the
// last run alone.
func checkTailCursor(t *testing.T, s *StoredEdges, tail, want []EdgeRec) {
	t.Helper()
	var got []EdgeRec
	c := s.Edges(tail)
	for c.Next() {
		got = append(got, c.Rec)
	}
	if c.Err() != nil {
		t.Fatalf("a cursor over a located region and a tail: %v", c.Err())
	}
	sameRecords(t, got, want)
	for _, chunk := range []int{1, 3, 64} {
		nbrs := make([]fabric.DPtr, chunk)
		got = got[:0]
		c := s.Edges(tail)
		for c.NextRun() {
			if i := len(got); i > s.Len() && runOf(want[i-1], want[i:i+1]) == 1 {
				t.Fatalf("chunk %d: a tail run starts at record %d, which continues the one before", chunk, i)
			}
			got = append(got, c.Rec)
			for n := c.StepRun(nbrs); n > 0; n = c.StepRun(nbrs) {
				if c.Rec.Neighbor != nbrs[n-1] {
					t.Fatalf("chunk %d: Rec's neighbor %v after a StepRun that stored %v last", chunk, c.Rec.Neighbor, nbrs[n-1])
				}
				for _, nb := range nbrs[:n] {
					rec := c.Rec
					rec.Neighbor = nb
					got = append(got, rec)
				}
			}
			if c.LastRun() != (len(got) == len(want)) {
				t.Fatalf("chunk %d: LastRun %v after %d of %d records", chunk, c.LastRun(), len(got), len(want))
			}
		}
		sameRecords(t, got, want)
	}
}

// FuzzEncodeVertexAfter checks the writer that appends behind a stored edge
// region against EncodeVertex, and the cursor that walks the region and
// then the appended records (checkTailCursor). A fuzz vertex's records are
// split at a fuzzed point; the first part is stored by EncodeVertex, and the
// rest appended by EncodeVertexAfter over the stored stream's StoredEdges
// must give EncodeVertex's stream of the whole, at the block count
// VertexBlocksAfter promised. Tail records copy their predecessor's run key
// where the fuzzed mask says so, so appends continue the stored last run,
// across the run header's one-byte count boundary too. The zero
// StoredEdges, an empty region, must encode byte for byte as nil does, and
// every light run of the stream must ascend: an appended record below its
// predecessor starts a new run. Arbitrary bytes as a stored region either fail StoredEdges or take the
// tail behind exactly their own records.
func FuzzEncodeVertexAfter(f *testing.F) {
	f.Add([]byte{9, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(4), uint64(0))
	f.Add([]byte{39, 7, 1, 1, 0, 0, 9, 1, 0, 0, 0, 1, 1, 0, 0, 10, 1, 0, 0, 0}, uint8(1), ^uint64(0))
	f.Add([]byte{0x0b, 0x10, 0x64, 0x06, 0x04}, uint8(0), uint64(5))
	// Every record in the tail, in runs of up to 40, then a tail behind a
	// stored region of several runs.
	f.Add([]byte{39, 7, 2, 1, 0, 0, 9, 1, 0, 0, 0, 1, 1, 0, 0, 10, 1, 0, 0, 0, 5, 6, 7}, uint8(0), ^uint64(7))
	f.Add([]byte{31, 0, 1, 0, 0, 0, 1, 0, 1, 16, 0, 1, 0, 0, 0, 1, 2, 32, 1, 2}, uint8(6), uint64(0x0f0f0f0f0f0f0f0f))
	f.Fuzz(func(t *testing.T, data []byte, split uint8, same uint64) {
		v := vertexFromBytes(data)
		k := int(split) % (len(v.Edges) + 1)
		for i := max(k, 1); i < len(v.Edges); i++ {
			if same>>(i%64)&1 == 1 {
				p := v.Edges[i-1]
				v.Edges[i].Dir, v.Edges[i].Heavy, v.Edges[i].Label = p.Dir, p.Heavy, p.Label
			}
		}
		head, tail := *v, *v
		head.Edges, tail.Edges = v.Edges[:k], v.Edges[k:]
		for _, bs := range []int{64, 512} {
			var w View
			if err := w.Reset(EncodeVertex(&head, bs)); err != nil {
				t.Fatal(err)
			}
			s, err := w.StoredEdges()
			if err != nil {
				t.Fatalf("a stored region EncodeVertex wrote: %v", err)
			}
			got := EncodeVertexAfter(&tail, &s, bs)
			if n := VertexBlocksAfter(&tail, &s, bs); n*bs != len(got) {
				t.Fatalf("bs %d: VertexBlocksAfter = %d, stream of %d bytes", bs, n, len(got))
			}
			if want := EncodeVertex(v, bs); !bytes.Equal(got, want) {
				t.Fatalf("bs %d, %d stored + %d appended records:\n got %v\nwant %v", bs, k, len(v.Edges)-k, got, want)
			}
			if empty := EncodeVertexAfter(v, &StoredEdges{}, bs); !bytes.Equal(empty, EncodeVertex(v, bs)) || VertexBlocksAfter(v, &StoredEdges{}, bs) != VertexBlocks(v, bs) {
				t.Fatalf("bs %d: an empty StoredEdges encodes\n%v\nnil\n%v", bs, empty, EncodeVertex(v, bs))
			}
			checkTailCursor(t, &s, tail.Edges, v.Edges)
			if err := w.Reset(got); err != nil {
				t.Fatal(err)
			}
			checkRunsAscend(t, got[w.edgesOff:], w.numEdges)
		}

		count := int(split)
		s, err := regionView(data, count).StoredEdges()
		if err != nil {
			return
		}
		stored, _ := cursorWalk(regionView(data, count), 0)
		dec, err := DecodeVertex(EncodeVertexAfter(&tail, &s, 512))
		if err != nil {
			t.Fatalf("the stream over an arbitrary stored region: %v", err)
		}
		sameRecords(t, dec.Edges, append(stored, tail.Edges...))
		checkTailCursor(t, &s, tail.Edges, dec.Edges)
	})
}
