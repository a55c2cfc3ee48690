package holder

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// sameVertexContent asserts two decoded vertices carry identical logical
// content (everything the codec encodes except the wire format itself).
func sameVertexContent(t *testing.T, got, want *Vertex) {
	t.Helper()
	if got.AppID != want.AppID {
		t.Fatalf("appID %d, want %d", got.AppID, want.AppID)
	}
	if got.IsReplica != want.IsReplica {
		t.Fatalf("isReplica %v, want %v", got.IsReplica, want.IsReplica)
	}
	if len(got.Homes) != len(want.Homes) {
		t.Fatalf("%d homes, want %d", len(got.Homes), len(want.Homes))
	}
	for i := range want.Homes {
		if got.Homes[i] != want.Homes[i] {
			t.Fatalf("home %d: %v, want %v", i, got.Homes[i], want.Homes[i])
		}
	}
	if len(got.Replicas) != len(want.Replicas) {
		t.Fatalf("%d replica groups, want %d", len(got.Replicas), len(want.Replicas))
	}
	for g := range want.Replicas {
		for i := range want.Replicas[g] {
			if got.Replicas[g][i] != want.Replicas[g][i] {
				t.Fatalf("replica group %d block %d: %v, want %v", g, i, got.Replicas[g][i], want.Replicas[g][i])
			}
		}
	}
	sameRecords(t, got.Edges, want.Edges)
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("%d labels, want %d", len(got.Labels), len(want.Labels))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d: %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
	if len(got.Props) != len(want.Props) {
		t.Fatalf("%d props, want %d", len(got.Props), len(want.Props))
	}
	for i := range want.Props {
		if got.Props[i].PType != want.Props[i].PType || !bytes.Equal(got.Props[i].Value, want.Props[i].Value) {
			t.Fatalf("prop %d: %+v, want %+v", i, got.Props[i], want.Props[i])
		}
	}
}

func testVertex() *Vertex {
	// Same-rank neighbor runs (the delta-friendly common case), a direction
	// change, a heavy record, and a label change — four runs in total.
	return &Vertex{
		AppID: 0xfeedbeefcafe,
		Homes: []rma.DPtr{rma.MakeDPtr(2, 77)},
		Edges: []EdgeRec{
			{Neighbor: rma.MakeDPtr(1, 100), Dir: DirOut, Label: 16},
			{Neighbor: rma.MakeDPtr(1, 103), Dir: DirOut, Label: 16},
			{Neighbor: rma.MakeDPtr(1, 101), Dir: DirOut, Label: 16},
			{Neighbor: rma.MakeDPtr(3, 9000), Dir: DirIn, Label: 16},
			{Neighbor: rma.MakeDPtr(0, 5), Dir: DirOut, Heavy: true},
			{Neighbor: rma.MakeDPtr(1, 104), Dir: DirOut, Label: 17},
		},
		Labels: []lpg.LabelID{16, 300},
		Props: []lpg.Property{
			{PType: lpg.PTypeAppID, Value: lpg.EncodeUint64(0xfeedbeefcafe)},
			{PType: 40, Value: []byte("hello")},
		},
	}
}

func TestV2VertexRoundTrip(t *testing.T) {
	for _, bs := range []int{64, 128, 512} {
		v := testVertex()
		stream := EncodeVertexCodec(v, bs, CodecV2)
		nb := VertexBlocksCodec(v, bs, CodecV2)
		if len(stream) != nb*bs {
			t.Fatalf("bs=%d: stream of %d bytes for %d blocks", bs, len(stream), nb)
		}
		if NumBlocks(stream) != nb {
			t.Fatalf("bs=%d: header says %d blocks, layout computed %d", bs, NumBlocks(stream), nb)
		}
		if Inline(stream) != (nb == 1) {
			t.Fatalf("bs=%d: inline flag %v with %d blocks", bs, Inline(stream), nb)
		}
		got, err := DecodeVertex(stream)
		if err != nil {
			t.Fatalf("bs=%d: decode: %v", bs, err)
		}
		if got.Codec != CodecV2 {
			t.Fatalf("bs=%d: decoded codec %v", bs, got.Codec)
		}
		sameVertexContent(t, got, v)
	}
}

func TestV2CrossCodecRoundTrip(t *testing.T) {
	// v1 → v2 → v1: content must survive both conversions bit-exactly.
	v := testVertex()
	s1 := EncodeVertexCodec(v, 64, CodecV1)
	d1, err := DecodeVertex(s1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Codec != CodecV1 {
		t.Fatalf("v1 stream decoded as %v", d1.Codec)
	}
	s2 := EncodeVertexCodec(d1, 64, CodecV2)
	d2, err := DecodeVertex(s2)
	if err != nil {
		t.Fatal(err)
	}
	s3 := EncodeVertexCodec(d2, 64, CodecV1)
	d3, err := DecodeVertex(s3)
	if err != nil {
		t.Fatal(err)
	}
	sameVertexContent(t, d3, d1)
}

func TestV2Compresses(t *testing.T) {
	// A same-rank neighbor run — the case the delta encoding targets — must
	// shrink the holder materially: 64 sequential neighbors cost 16 bytes
	// each under v1 and 2–4 under v2.
	v := &Vertex{AppID: 7}
	for i := 0; i < 64; i++ {
		v.Edges = append(v.Edges, EdgeRec{Neighbor: rma.MakeDPtr(1, uint64(100+i*2)), Dir: DirOut, Label: 16})
	}
	v1 := len(EncodeVertexCodec(v, 64, CodecV1))
	v2 := len(EncodeVertexCodec(v, 64, CodecV2))
	if v2*2 > v1 {
		t.Fatalf("v2 stream of %d bytes vs v1 %d: expected at least 2x compression", v2, v1)
	}
}

func TestV2ReplicaRewrite(t *testing.T) {
	// Replica groups participate in the fixed regions: encode with groups,
	// rewrite as a follower copy, and decode both forms.
	v := testVertex()
	nb := VertexBlocksCodec(v, 64, CodecV2)
	group := make([]rma.DPtr, nb)
	for i := range group {
		group[i] = rma.MakeDPtr(5, uint64(200+i))
	}
	v.Replicas = [][]rma.DPtr{group}
	if n := VertexBlocksCodec(v, 64, CodecV2); n != nb {
		// The group grew the holder; rebuild the group at the new size.
		group = make([]rma.DPtr, n)
		for i := range group {
			group[i] = rma.MakeDPtr(5, uint64(200+i))
		}
		v.Replicas = [][]rma.DPtr{group}
		nb = VertexBlocksCodec(v, 64, CodecV2)
		if len(group) != nb {
			t.Fatalf("replica fixed point did not settle: %d blocks, group of %d", nb, len(group))
		}
	}
	stream := EncodeVertexCodec(v, 64, CodecV2)
	for i := 1; i < nb; i++ {
		SetTableEntry(stream, i-1, rma.MakeDPtr(0, uint64(10+i)))
	}
	rep := RewriteAsReplica(stream, group)
	if !IsReplicaBlock(rep) {
		t.Fatal("rewritten stream not flagged as replica")
	}
	for i := 1; i < nb; i++ {
		if TableEntry(rep, i-1) != group[i] {
			t.Fatalf("replica table entry %d: %v, want %v", i-1, TableEntry(rep, i-1), group[i])
		}
	}
	got, err := DecodeVertex(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsReplica {
		t.Fatal("decoded replica copy not marked IsReplica")
	}
	want, _ := DecodeVertex(stream)
	want.IsReplica = true
	sameVertexContent(t, got, want)
}

func TestV2EdgeHolderRoundTrip(t *testing.T) {
	e := &Edge{
		Origin: rma.MakeDPtr(1, 9),
		Target: rma.MakeDPtr(2, 11),
		Dir:    DirUndirected,
		Labels: []lpg.LabelID{16, 17},
		Props:  []lpg.Property{{PType: 33, Value: []byte("weight")}},
	}
	stream := EncodeEdgeCodec(e, 64, CodecV2)
	if len(stream) != EdgeBlocksCodec(e, 64, CodecV2)*64 {
		t.Fatalf("stream of %d bytes", len(stream))
	}
	if !IsEdgeHolder(stream) {
		t.Fatal("edge holder not flagged")
	}
	got, err := DecodeEdge(stream)
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != e.Origin || got.Target != e.Target || got.Dir != e.Dir {
		t.Fatalf("endpoints/dir: %+v", got)
	}
	if len(got.Labels) != 2 || got.Labels[0] != 16 || got.Labels[1] != 17 {
		t.Fatalf("labels: %v", got.Labels)
	}
	if len(got.Props) != 1 || !bytes.Equal(got.Props[0].Value, []byte("weight")) {
		t.Fatalf("props: %v", got.Props)
	}
}

func TestViewMatchesDecode(t *testing.T) {
	for _, c := range []Codec{CodecV1, CodecV2} {
		v := testVertex()
		stream := EncodeVertexCodec(v, 64, c)
		var w View
		if err := w.Reset(stream); err != nil {
			t.Fatalf("%v: reset: %v", c, err)
		}
		if w.Codec() != c || w.AppID() != v.AppID || w.NumEdges() != len(v.Edges) {
			t.Fatalf("%v: view header %v/%d/%d", c, w.Codec(), w.AppID(), w.NumEdges())
		}
		var got []EdgeRec
		w.ForEachEdge(func(rec EdgeRec) bool { got = append(got, rec); return true })
		sameRecords(t, got, v.Edges)
		if again := w.AppendEdges(nil); len(again) != len(v.Edges) {
			t.Fatalf("%v: AppendEdges returned %d records", c, len(again))
		}
		// Early stop after the first record.
		n := 0
		w.ForEachEdge(func(EdgeRec) bool { n++; return false })
		if n != 1 {
			t.Fatalf("%v: early stop visited %d records", c, n)
		}
		// Light-only neighbor iteration.
		light := 0
		w.ForEachNeighbor(func(rma.DPtr, Direction) bool { light++; return true })
		heavies := 0
		for _, rec := range v.Edges {
			if rec.Heavy {
				heavies++
			}
		}
		if light != len(v.Edges)-heavies {
			t.Fatalf("%v: %d light neighbors, want %d", c, light, len(v.Edges)-heavies)
		}
		meta, err := w.DecodeMeta()
		if err != nil {
			t.Fatalf("%v: DecodeMeta: %v", c, err)
		}
		if meta.Edges != nil {
			t.Fatalf("%v: DecodeMeta materialized edges", c)
		}
		meta.Edges = w.AppendEdges(nil)
		sameVertexContent(t, meta, v)
		if err := w.Err(); err != nil {
			t.Fatalf("%v: walks over a fresh stream left Err = %v", c, err)
		}

		// The entry region is addressable on its own, and so are the homes.
		sameEntries(t, c, w.Entries(), v)
		if !w.HasHome(v.Homes[0]) || w.HasHome(v.Edges[0].Neighbor) {
			t.Fatalf("%v: HasHome disagrees with homes %v", c, v.Homes)
		}

		// A prefix that reaches the end of the entries is a complete view of
		// the labels and properties.
		pre := EntryBlocks(stream, 64)
		var pw View
		if err := pw.Reset(stream[:pre*64]); err != nil {
			t.Fatalf("%v: reset on the %d-block entry prefix: %v", c, pre, err)
		}
		sameEntries(t, c, pw.Entries(), v)
		if pre > 1 {
			if err := pw.Reset(stream[:(pre-1)*64]); err == nil {
				t.Fatalf("%v: reset accepted a prefix one block short of the entries", c)
			}
		}
	}
}

// sameEntries asserts an encoded entry region decodes to v's labels and
// properties.
func sameEntries(t *testing.T, c Codec, region []byte, v *Vertex) {
	t.Helper()
	split := lpg.SplitEntriesSafe
	if c == CodecV2 {
		split = lpg.SplitEntriesVar
	}
	labels, props, err := split(region)
	if err != nil {
		t.Fatalf("%v: entry region: %v", c, err)
	}
	sameVertexContent(t, &Vertex{AppID: v.AppID, Homes: v.Homes, Edges: v.Edges, Labels: labels, Props: props}, v)
}

// hubVertex is a vertex with n lightweight edges in runs of 50 and a label
// and property worth reading.
func hubVertex(n int) *Vertex {
	v := &Vertex{
		AppID:  99,
		Labels: []lpg.LabelID{16},
		Props:  []lpg.Property{{PType: 40, Value: lpg.EncodeUint64(31)}},
	}
	for i := 0; i < n; i++ {
		v.Edges = append(v.Edges, EdgeRec{
			Neighbor: rma.MakeDPtr(rma.Rank(i%3), uint64(1000+7*i)),
			Dir:      DirOut,
			Label:    lpg.LabelID(16 + i/50%2),
		})
	}
	return v
}

// TestEntryBlocksOfAHub: under v2 a hub's labels and properties sit in its
// primary block however long the edge runs behind them — the point of the
// layout; under v1 they follow the records, so the prefix is the content.
func TestEntryBlocksOfAHub(t *testing.T) {
	v := hubVertex(2000)
	v2 := EncodeVertexCodec(v, 512, CodecV2)
	if nb, pre := NumBlocks(v2), EntryBlocks(v2, 512); nb < 4 || pre != 1 {
		t.Fatalf("v2 hub: entries end in block %d of %d, want the primary block of a chain of at least 4", pre, nb)
	}
	var w View
	if err := w.Reset(v2[:512]); err != nil {
		t.Fatalf("reset on the primary block of a v2 hub: %v", err)
	}
	sameEntries(t, CodecV2, w.Entries(), v)
	w.ForEachEdge(func(EdgeRec) bool { return true })
	if w.Err() == nil {
		t.Fatal("an edge walk over a one-block prefix of a hub reported no error")
	}
	v1 := EncodeVertexCodec(v, 512, CodecV1)
	if nb, pre := NumBlocks(v1), EntryBlocks(v1, 512); pre != nb {
		t.Fatalf("v1 hub: entry prefix of %d blocks, chain of %d: the entries follow the edge records", pre, nb)
	}
	// A garbage header never asks for more than the chain it claims.
	junk := bytes.Repeat([]byte{0xff}, HeaderSize)
	binary.LittleEndian.PutUint32(junk, 7)
	if pre := EntryBlocks(junk, 512); pre != 7 {
		t.Fatalf("garbage header: entry prefix of %d blocks, want the claimed 7", pre)
	}
}

// TestEarlyStopEndsTheWalk pins the early-exit contract on a hub: a callback
// that declines the first record is the last thing the walk does. The bytes
// decoded stop with it (forEachEdgeV2's count), and so does what the walk
// can see — damage behind the stop goes unnoticed until a walk reaches it.
func TestEarlyStopEndsTheWalk(t *testing.T) {
	const degree = 17000
	v := hubVertex(degree)
	region := appendEdgesV2(nil, v.Edges)
	calls := 0
	consumed, err := forEachEdgeV2(region, degree, func(EdgeRec) bool { calls++; return false })
	if err != nil || calls != 1 {
		t.Fatalf("early stop: %d callbacks, err %v, want exactly one", calls, err)
	}
	if consumed > 3*binary.MaxVarintLen64 {
		t.Fatalf("early stop decoded %d of %d bytes, want one run header and one neighbor", consumed, len(region))
	}

	stream := EncodeVertexCodec(v, 512, CodecV2)
	damage := bytes.LastIndexByte(stream, region[len(region)-1])
	for i := damage - 32; i <= damage; i++ {
		stream[i] = 0xff // an endless varint in the last run
	}
	var w View
	if err := w.Reset(stream); err != nil {
		t.Fatal(err)
	}
	calls = 0
	w.ForEachNeighbor(func(rma.DPtr, Direction) bool { calls++; return calls < 3 })
	if calls != 3 || w.Err() != nil {
		t.Fatalf("early stop through the view: %d callbacks, Err %v, want 3 and nil", calls, w.Err())
	}
	calls = 0
	w.ForEachEdge(func(EdgeRec) bool { calls++; return true })
	if w.Err() == nil || calls == 0 || calls >= degree {
		t.Fatalf("full walk over the damaged tail: %d callbacks, Err %v, want a prefix and an error", calls, w.Err())
	}
}

// TestViewServesEntriesOfADamagedHolder: what Reset validates is what a
// property read needs, no more. A v2 stream whose edge region is garbage
// still yields its labels and properties; the damage surfaces, as an error
// and never a panic, on the first walk into the edges, and sticks.
func TestViewServesEntriesOfADamagedHolder(t *testing.T) {
	v := hubVertex(300)
	stream := EncodeVertexCodec(v, 128, CodecV2)
	var w View
	if err := w.Reset(stream); err != nil {
		t.Fatal(err)
	}
	edges := len(stream) - len(appendEdgesV2(nil, v.Edges)) // an upper bound on where the runs start
	for i := edges - 128; i < len(stream); i++ {
		if i >= w.edgesOff {
			stream[i] = 0xff
		}
	}
	if err := w.Reset(stream); err != nil {
		t.Fatalf("reset must not look at the edge region: %v", err)
	}
	sameEntries(t, CodecV2, w.Entries(), v)
	if meta, err := w.DecodeMeta(); err != nil || meta.AppID != v.AppID || len(meta.Props) != 1 {
		t.Fatalf("DecodeMeta over a damaged edge region: %+v, %v", meta, err)
	}
	if w.Err() != nil {
		t.Fatalf("Err = %v before any edge access", w.Err())
	}
	n := 0
	w.ForEachEdge(func(EdgeRec) bool { n++; return true })
	if w.Err() == nil || n != 0 {
		t.Fatalf("walk over garbage runs: %d records, Err %v, want none and an error", n, w.Err())
	}
	if got := w.AppendEdges(nil); len(got) != 0 || w.Err() == nil {
		t.Fatalf("a failed view yielded %d records on a later walk", len(got))
	}
	if _, err := DecodeVertex(stream); err == nil {
		t.Fatal("the materializing decoder accepted the damaged stream")
	}
	if err := w.Reset(stream); err != nil || w.Err() != nil {
		t.Fatalf("Reset must clear the sticky error: %v / %v", err, w.Err())
	}
}

// TestViewRejectsTruncatedEntryRegion: the entry bound is part of the O(1)
// validation, under both codecs.
func TestViewRejectsTruncatedEntryRegion(t *testing.T) {
	for _, c := range []Codec{CodecV1, CodecV2} {
		v := testVertex()
		stream := EncodeVertexCodec(v, 512, c)
		var w View
		if err := w.Reset(stream); err != nil {
			t.Fatal(err)
		}
		end := w.entOff + w.entryBytes
		if err := w.Reset(stream[:end]); err != nil {
			t.Fatalf("%v: reset on a stream cut at the end of the entries: %v", c, err)
		}
		if err := w.Reset(stream[:end-1]); err == nil {
			t.Fatalf("%v: reset accepted an entry region one byte short", c)
		}
		// A header claiming more entry bytes than the stream holds.
		grown := append([]byte(nil), stream...)
		binary.LittleEndian.PutUint32(grown[8:], uint32(len(stream)))
		if err := w.Reset(grown); err == nil {
			t.Fatalf("%v: reset accepted an entry region longer than the stream", c)
		}
	}
}

func TestParseCodec(t *testing.T) {
	for s, want := range map[string]Codec{"": CodecV1, "v1": CodecV1, "1": CodecV1, "v2": CodecV2, "2": CodecV2} {
		got, err := ParseCodec(s)
		if err != nil || got != want {
			t.Fatalf("ParseCodec(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCodec("v3"); err == nil {
		t.Fatal("ParseCodec(v3) accepted")
	}
}
