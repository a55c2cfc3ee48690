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
	if !bytes.Equal(got.Entries, want.Entries) {
		t.Fatalf("entry region %v, want %v", got.Entries, want.Entries)
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
		Entries: lpg.EncodeEntries([]lpg.LabelID{16, 300}, []lpg.Property{
			{PType: lpg.PTypeAppID, Value: lpg.EncodeUint64(0xfeedbeefcafe)},
			{PType: 40, Value: []byte("hello")},
		}),
	}
}

func TestV2VertexRoundTrip(t *testing.T) {
	for _, bs := range []int{64, 128, 512} {
		v := testVertex()
		stream := EncodeVertex(v, bs)
		nb := VertexBlocks(v, bs)
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
		sameVertexContent(t, got, v)
	}
}

func TestV2Compresses(t *testing.T) {
	// A same-rank neighbor run — the case the delta encoding targets — costs
	// a few bytes per record, not the 16 of a fixed-width record.
	v := &Vertex{AppID: 7}
	for i := 0; i < 64; i++ {
		v.Edges = append(v.Edges, EdgeRec{Neighbor: rma.MakeDPtr(1, uint64(100+i*2)), Dir: DirOut, Label: 16})
	}
	if n := edgeRunsSize(v.Edges); n > 4*len(v.Edges) {
		t.Fatalf("64 same-rank records in %d bytes, want at most 4 each", n)
	}
}

func TestV2ReplicaRewrite(t *testing.T) {
	// Replica groups participate in the fixed regions: encode with groups,
	// rewrite as a follower copy, and decode both forms.
	v := testVertex()
	nb := VertexBlocks(v, 64)
	group := make([]rma.DPtr, nb)
	for i := range group {
		group[i] = rma.MakeDPtr(5, uint64(200+i))
	}
	v.Replicas = [][]rma.DPtr{group}
	if n := VertexBlocks(v, 64); n != nb {
		// The group grew the holder; rebuild the group at the new size.
		group = make([]rma.DPtr, n)
		for i := range group {
			group[i] = rma.MakeDPtr(5, uint64(200+i))
		}
		v.Replicas = [][]rma.DPtr{group}
		nb = VertexBlocks(v, 64)
		if len(group) != nb {
			t.Fatalf("replica fixed point did not settle: %d blocks, group of %d", nb, len(group))
		}
	}
	stream := EncodeVertex(v, 64)
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
	stream := EncodeEdge(e, 64)
	if len(stream) != EdgeBlocks(e, 64)*64 {
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
	v := testVertex()
	stream := EncodeVertex(v, 64)
	var w View
	if err := w.Reset(stream); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if w.AppID() != v.AppID || w.EdgeCap() != len(v.Edges) {
		t.Fatalf("view header %d/%d", w.AppID(), w.EdgeCap())
	}
	var got []EdgeRec
	w.ForEachEdge(func(rec EdgeRec) bool { got = append(got, rec); return true })
	sameRecords(t, got, v.Edges)
	if again := w.AppendEdges(nil); len(again) != len(v.Edges) {
		t.Fatalf("AppendEdges returned %d records", len(again))
	}
	// Early stop after the first record.
	n := 0
	w.ForEachEdge(func(EdgeRec) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d records", n)
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
		t.Fatalf("%d light neighbors, want %d", light, len(v.Edges)-heavies)
	}
	meta, err := w.DecodeMeta()
	if err != nil {
		t.Fatalf("DecodeMeta: %v", err)
	}
	if meta.Edges != nil {
		t.Fatal("DecodeMeta materialized edges")
	}
	meta.Edges = w.AppendEdges(nil)
	sameVertexContent(t, meta, v)
	if err := w.Err(); err != nil {
		t.Fatalf("walks over a fresh stream left Err = %v", err)
	}

	// The entry region is addressable on its own, and so are the homes.
	sameEntries(t, w.Entries(), v)
	if !w.HasHome(v.Homes[0]) || w.HasHome(v.Edges[0].Neighbor) {
		t.Fatalf("HasHome disagrees with homes %v", v.Homes)
	}

	// A prefix that reaches the end of the entries is a complete view of
	// the labels and properties.
	pre := EntryBlocks(stream, 64)
	var pw View
	if err := pw.Reset(stream[:pre*64]); err != nil {
		t.Fatalf("reset on the %d-block entry prefix: %v", pre, err)
	}
	sameEntries(t, pw.Entries(), v)
	if pre > 1 {
		if err := pw.Reset(stream[:(pre-1)*64]); err == nil {
			t.Fatal("reset accepted a prefix one block short of the entries")
		}
	}
}

// sameEntries asserts an encoded entry region is v's.
func sameEntries(t *testing.T, region []byte, v *Vertex) {
	t.Helper()
	if err := lpg.CheckEntries(region); err != nil {
		t.Fatalf("entry region: %v", err)
	}
	sameVertexContent(t, &Vertex{AppID: v.AppID, Homes: v.Homes, Edges: v.Edges, Entries: region}, v)
}

// hubVertex is a vertex with n lightweight edges in runs of 50 and a label
// and property worth reading.
func hubVertex(n int) *Vertex {
	v := &Vertex{
		AppID:   99,
		Entries: lpg.EncodeEntries([]lpg.LabelID{16}, []lpg.Property{{PType: 40, Value: lpg.EncodeUint64(31)}}),
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

// TestEntryBlocksOfAHub: a hub's labels and properties sit in its primary
// block however long the edge runs behind them — the point of the layout.
func TestEntryBlocksOfAHub(t *testing.T) {
	v := hubVertex(2000)
	stream := EncodeVertex(v, 512)
	if nb, pre := NumBlocks(stream), EntryBlocks(stream, 512); nb < 4 || pre != 1 {
		t.Fatalf("hub: entries end in block %d of %d, want the primary block of a chain of at least 4", pre, nb)
	}
	var w View
	if err := w.Reset(stream[:512]); err != nil {
		t.Fatalf("reset on the primary block of a hub: %v", err)
	}
	sameEntries(t, w.Entries(), v)
	w.ForEachEdge(func(EdgeRec) bool { return true })
	if w.Err() == nil {
		t.Fatal("an edge walk over a one-block prefix of a hub reported no error")
	}
	// A garbage header never asks for more than the chain it claims.
	junk := bytes.Repeat([]byte{0xff}, HeaderSize)
	binary.LittleEndian.PutUint32(junk, 7)
	if pre := EntryBlocks(junk, 512); pre != 7 {
		t.Fatalf("garbage header: entry prefix of %d blocks, want the claimed 7", pre)
	}
}

// TestEarlyStopEndsTheWalk pins the early-exit contract on a hub: a caller
// that stops after the first record is the last thing the cursor does. The
// bytes decoded stop with it, and so does what the cursor can see — damage
// behind the stop goes unnoticed until a walk reaches it.
func TestEarlyStopEndsTheWalk(t *testing.T) {
	const degree = 17000
	v := hubVertex(degree)
	region := appendEdgeRuns(nil, v.Edges)
	c := regionView(region, degree).Edges()
	if !c.Next() || c.Rec != v.Edges[0] {
		t.Fatalf("first record %+v, want %+v", c.Rec, v.Edges[0])
	}
	if c.off > 3*binary.MaxVarintLen64 {
		t.Fatalf("early stop decoded %d of %d bytes, want one run header and one neighbor", c.off, len(region))
	}

	stream := EncodeVertex(v, 512)
	damage := bytes.LastIndexByte(stream, region[len(region)-1])
	for i := damage - 32; i <= damage; i++ {
		stream[i] = 0xff // an endless varint in the last run
	}
	var w View
	if err := w.Reset(stream); err != nil {
		t.Fatal(err)
	}
	c = w.Edges()
	for i := range 3 {
		if !c.Next() || c.Rec != v.Edges[i] {
			t.Fatalf("record %d through the view: %+v, want %+v", i, c.Rec, v.Edges[i])
		}
	}
	if w.Err() != nil {
		t.Fatalf("early stop through the view: Err %v, want nil", w.Err())
	}
	n := 0
	for c = w.Edges(); c.Next(); {
		n++
	}
	if w.Err() == nil || n == 0 || n >= degree {
		t.Fatalf("full walk over the damaged tail: %d records, Err %v, want a prefix and an error", n, w.Err())
	}
	if c.Next() {
		t.Fatal("a cursor stopped by corruption moved on")
	}
}

// TestViewServesEntriesOfADamagedHolder: what Reset validates is what a
// property read needs, no more. A stream whose edge region is garbage
// still yields its labels and properties; the damage surfaces, as an error
// and never a panic, on the first walk into the edges, and sticks.
func TestViewServesEntriesOfADamagedHolder(t *testing.T) {
	v := hubVertex(300)
	stream := EncodeVertex(v, 128)
	var w View
	if err := w.Reset(stream); err != nil {
		t.Fatal(err)
	}
	edges := len(stream) - len(appendEdgeRuns(nil, v.Edges)) // an upper bound on where the runs start
	for i := edges - 128; i < len(stream); i++ {
		if i >= w.edgesOff {
			stream[i] = 0xff
		}
	}
	if err := w.Reset(stream); err != nil {
		t.Fatalf("reset must not look at the edge region: %v", err)
	}
	sameEntries(t, w.Entries(), v)
	if meta, err := w.DecodeMeta(); err != nil || meta.AppID != v.AppID || !bytes.Equal(meta.Entries, v.Entries) {
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
// validation.
func TestViewRejectsTruncatedEntryRegion(t *testing.T) {
	v := testVertex()
	stream := EncodeVertex(v, 512)
	var w View
	if err := w.Reset(stream); err != nil {
		t.Fatal(err)
	}
	end := w.entOff + w.entryBytes
	if err := w.Reset(stream[:end]); err != nil {
		t.Fatalf("reset on a stream cut at the end of the entries: %v", err)
	}
	if err := w.Reset(stream[:end-1]); err == nil {
		t.Fatal("reset accepted an entry region one byte short")
	}
	// A header claiming more entry bytes than the stream holds.
	grown := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint32(grown[8:], uint32(len(stream)))
	if err := w.Reset(grown); err == nil {
		t.Fatal("reset accepted an entry region longer than the stream")
	}
}
