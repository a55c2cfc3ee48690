package holder

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

func sampleVertex() *Vertex {
	return &Vertex{
		AppID: 987654321,
		Edges: []EdgeRec{
			{Neighbor: rma.MakeDPtr(1, 5), Dir: DirOut, Label: 17},
			{Neighbor: rma.MakeDPtr(2, 9), Dir: DirIn},
			{Neighbor: rma.MakeDPtr(0, 3), Dir: DirUndirected, Heavy: true, Label: 0},
		},
		Entries: lpg.EncodeEntries([]lpg.LabelID{16, 18}, []lpg.Property{
			{PType: 20, Value: lpg.EncodeUint64(33)},
			{PType: 21, Value: lpg.EncodeString("alice")},
		}),
	}
}

func TestVertexRoundTrip(t *testing.T) {
	v := sampleVertex()
	buf := EncodeVertex(v, 512)
	if len(buf)%512 != 0 {
		t.Fatalf("stream length %d is not block-aligned", len(buf))
	}
	got, err := DecodeVertex(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, v)
	}
}

func TestEmptyVertex(t *testing.T) {
	v := &Vertex{AppID: 1}
	buf := EncodeVertex(v, 128)
	if NumBlocks(buf) != 1 {
		t.Fatalf("empty vertex uses %d blocks, want 1", NumBlocks(buf))
	}
	got, err := DecodeVertex(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppID != 1 || len(got.Edges) != 0 || len(got.Entries) != 0 {
		t.Fatalf("empty vertex decoded as %+v", got)
	}
}

func TestMultiBlockVertex(t *testing.T) {
	v := &Vertex{AppID: 7}
	for i := 0; i < 100; i++ { // one run per record: ~1 KB of edge runs alone
		v.Edges = append(v.Edges, EdgeRec{Neighbor: rma.MakeDPtr(rma.Rank(i%4), uint64(i+1)), Dir: DirOut, Label: lpg.LabelID(i)})
	}
	v.Entries = lpg.AppendPropertyEntry(v.Entries, 30, bytes.Repeat([]byte{9}, 700))
	buf := EncodeVertex(v, 256)
	if nb := NumBlocks(buf); nb < 7 {
		t.Fatalf("vertex with 1.7KB content in %d blocks of 256B", nb)
	}
	got, err := DecodeVertex(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatal("multi-block round trip mismatch")
	}
}

func TestBlocksFixedPointConverges(t *testing.T) {
	// Content that barely crosses a block boundary when the table grows.
	for blockSize := 64; blockSize <= 1024; blockSize *= 2 {
		for nEdges := 0; nEdges < 64; nEdges++ {
			v := &Vertex{AppID: 1}
			for i := 0; i < nEdges; i++ {
				v.Edges = append(v.Edges, EdgeRec{Neighbor: rma.MakeDPtr(rma.Rank(i%3), uint64(i)), Label: lpg.LabelID(i % 2)})
			}
			size := func(n int) int { return contentSizeVertex(v, n, edgeRunsSize(v.Edges)) }
			nb := VertexBlocks(v, blockSize)
			content := size(nb)
			if content > nb*blockSize {
				t.Fatalf("blockSize=%d edges=%d: content %d overflows %d blocks", blockSize, nEdges, content, nb)
			}
			if nb > 1 {
				smaller := size(nb - 1)
				if smaller <= (nb-1)*blockSize {
					t.Fatalf("blockSize=%d edges=%d: %d blocks not minimal", blockSize, nEdges, nb)
				}
			}
		}
	}
}

func TestTableEntryStreamingInvariant(t *testing.T) {
	// Table entry i must live within the first i+1 blocks for any block size
	// >= 64, so a reader never needs a block before knowing its address.
	for blockSize := 64; blockSize <= 4096; blockSize *= 2 {
		for i := 0; i < 1000; i++ {
			if TableEntryOffset(i) >= (i+1)*blockSize {
				t.Fatalf("blockSize=%d: table entry %d at offset %d outside first %d blocks",
					blockSize, i, TableEntryOffset(i), i+1)
			}
		}
	}
}

func TestSetGetTableEntry(t *testing.T) {
	v := &Vertex{AppID: 2, Entries: lpg.AppendPropertyEntry(nil, 30, bytes.Repeat([]byte{1}, 300))}
	buf := EncodeVertex(v, 128)
	nb := NumBlocks(buf)
	if nb < 3 {
		t.Fatalf("need a multi-block holder, got %d blocks", nb)
	}
	for i := 0; i < nb-1; i++ {
		SetTableEntry(buf, i, rma.MakeDPtr(3, uint64(100+i)))
	}
	for i := 0; i < nb-1; i++ {
		if got := TableEntry(buf, i); got != rma.MakeDPtr(3, uint64(100+i)) {
			t.Fatalf("table entry %d = %v", i, got)
		}
	}
	// The table must not have corrupted the payload.
	got, err := DecodeVertex(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Entries, v.Entries) {
		t.Fatal("table writes corrupted the property payload")
	}
}

func TestEdgeRoundTrip(t *testing.T) {
	e := &Edge{
		Origin: rma.MakeDPtr(0, 10),
		Target: rma.MakeDPtr(5, 20),
		Dir:    DirOut,
		Labels: []lpg.LabelID{40, 41},
		Props:  []lpg.Property{{PType: 50, Value: lpg.EncodeFloat64(2.5)}},
	}
	buf := EncodeEdge(e, 256)
	got, err := DecodeEdge(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("edge round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestKindConfusionRejected(t *testing.T) {
	vbuf := EncodeVertex(&Vertex{AppID: 1}, 128)
	if _, err := DecodeEdge(vbuf); err == nil {
		t.Fatal("DecodeEdge accepted a vertex holder")
	}
	ebuf := EncodeEdge(&Edge{Origin: rma.MakeDPtr(0, 1), Target: rma.MakeDPtr(0, 2)}, 128)
	if _, err := DecodeVertex(ebuf); err == nil {
		t.Fatal("DecodeVertex accepted an edge holder")
	}
	if !IsEdgeHolder(ebuf[:HeaderSize]) || IsEdgeHolder(vbuf[:HeaderSize]) {
		t.Fatal("IsEdgeHolder misclassifies")
	}
}

func TestCorruptHeaders(t *testing.T) {
	if _, err := DecodeVertex(make([]byte, 8)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := DecodeVertex(make([]byte, HeaderSize)); err == nil {
		t.Fatal("zero-block header accepted")
	}
	// A header promising more edges than the buffer holds must error.
	v := &Vertex{AppID: 1}
	buf := EncodeVertex(v, 128)
	buf[4] = 0xff // numEdges = 255
	if _, err := DecodeVertex(buf); err == nil {
		t.Fatal("truncated edge area accepted")
	}
}

func TestEdgeRecEncodingExhaustive(t *testing.T) {
	for _, dir := range []Direction{DirOut, DirIn, DirUndirected} {
		for _, heavy := range []bool{false, true} {
			rec := EdgeRec{Neighbor: rma.MakeDPtr(9, 1234), Dir: dir, Heavy: heavy, Label: 77}
			w := regionView(appendEdgeRuns(nil, []EdgeRec{rec}), 1)
			if got, _ := cursorWalk(w, 0); w.Err() != nil || len(got) != 1 || got[0] != rec {
				t.Fatalf("edge rec %+v decoded as %+v (%v)", rec, got, w.Err())
			}
		}
	}
}

// TestDecodersRejectStreamWithoutFormatFlag: every stream the encoders write
// carries the format flag, and a block without it — zeroed, foreign, or in
// the retired fixed-width layout — is not a holder.
func TestDecodersRejectStreamWithoutFormatFlag(t *testing.T) {
	strip := func(buf []byte) []byte {
		binary.LittleEndian.PutUint32(buf[12:], binary.LittleEndian.Uint32(buf[12:])&^flagV2)
		return buf
	}
	if _, err := DecodeVertex(strip(EncodeVertex(sampleVertex(), 512))); err == nil {
		t.Fatal("DecodeVertex accepted a stream without the format flag")
	}
	var w View
	if err := w.Reset(strip(EncodeVertex(sampleVertex(), 512))); err == nil {
		t.Fatal("View.Reset accepted a stream without the format flag")
	}
	if _, err := DecodeEdge(strip(EncodeEdge(&Edge{Origin: rma.MakeDPtr(0, 1), Target: rma.MakeDPtr(0, 2)}, 128))); err == nil {
		t.Fatal("DecodeEdge accepted a stream without the format flag")
	}
}

func TestQuickVertexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prop := func(appID uint64, nEdges uint8, labelSeeds []uint32, payloads [][]byte) bool {
		v := &Vertex{AppID: appID}
		for i := 0; i < int(nEdges%32); i++ {
			v.Edges = append(v.Edges, EdgeRec{
				Neighbor: rma.MakeDPtr(rma.Rank(rng.Intn(8)), uint64(rng.Intn(1000)+1)),
				Dir:      Direction(rng.Intn(3)),
				Heavy:    rng.Intn(4) == 0,
				Label:    lpg.LabelID(rng.Intn(100)),
			})
		}
		var labels []lpg.LabelID
		var props []lpg.Property
		for _, s := range labelSeeds {
			labels = append(labels, lpg.LabelID(s%500+lpg.FirstDynamicID))
		}
		for i, p := range payloads {
			if len(p) > 2000 {
				p = p[:2000]
			}
			props = append(props, lpg.Property{PType: lpg.PTypeID(lpg.FirstDynamicID + uint32(i)), Value: p})
		}
		v.Entries = lpg.EncodeEntries(labels, props)
		for _, bs := range []int{64, 128, 512, 4096} {
			buf := EncodeVertex(v, bs)
			got, err := DecodeVertex(buf)
			if err != nil {
				return false
			}
			if got.AppID != v.AppID || len(got.Edges) != len(v.Edges) || !bytes.Equal(got.Entries, v.Entries) {
				return false
			}
			for i := range v.Edges {
				if got.Edges[i] != v.Edges[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectionString(t *testing.T) {
	if DirOut.String() != "out" || DirIn.String() != "in" || DirUndirected.String() != "undirected" {
		t.Fatal("direction names wrong")
	}
}

func TestReplicatedVertexRoundTrip(t *testing.T) {
	v := sampleVertex()
	nb := VertexBlocks(v, 512)
	if nb != 1 {
		t.Fatalf("sample vertex spans %d blocks at 512B, want 1", nb)
	}
	v.Replicas = [][]rma.DPtr{
		{rma.MakeDPtr(1, 40)},
		{rma.MakeDPtr(2, 41)},
	}
	buf := EncodeVertex(v, 512)
	if NumReplicas(buf) != 2 {
		t.Fatalf("NumReplicas = %d, want 2", NumReplicas(buf))
	}
	if IsReplicaBlock(buf) {
		t.Fatal("primary stream carries the replica flag")
	}
	got, err := DecodeVertex(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, v)
	}
}

func TestReplicatedMultiBlockVertex(t *testing.T) {
	// The replica region participates in the block-count fixed point: each
	// group stores one DPtr per block, so adding groups can itself grow the
	// block count. Groups must match the converged count exactly.
	v := &Vertex{AppID: 5, Edges: []EdgeRec{{Neighbor: rma.MakeDPtr(0, 8), Dir: DirOut}}}
	v.Entries = lpg.AppendPropertyEntry(v.Entries, 30, bytes.Repeat([]byte{7}, 300))
	base := VertexBlocks(v, 128)
	group := func(r rma.Rank, n int) []rma.DPtr {
		g := make([]rma.DPtr, n)
		for i := range g {
			g[i] = rma.MakeDPtr(r, uint64(100+i))
		}
		return g
	}
	v.Replicas = [][]rma.DPtr{nil, nil}
	nb := VertexBlocks(v, 128)
	if nb < base {
		t.Fatalf("block count shrank from %d to %d after adding replica groups", base, nb)
	}
	v.Replicas = [][]rma.DPtr{group(1, nb), group(2, nb)}
	if VertexBlocks(v, 128) != nb {
		t.Fatalf("fixed point moved: %d blocks with groups sized for %d", VertexBlocks(v, 128), nb)
	}
	buf := EncodeVertex(v, 128)
	got, err := DecodeVertex(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, v)
	}
}

func TestRewriteAsReplica(t *testing.T) {
	v := &Vertex{AppID: 9}
	v.Entries = lpg.AppendPropertyEntry(v.Entries, 30, bytes.Repeat([]byte{3}, 300))
	nb := VertexBlocks(v, 128)
	if nb < 2 {
		t.Fatalf("test needs a multi-block vertex, got %d blocks", nb)
	}
	group := make([]rma.DPtr, nb)
	for i := range group {
		group[i] = rma.MakeDPtr(3, uint64(200+i))
	}
	v.Replicas = [][]rma.DPtr{group}
	nb = VertexBlocks(v, 128)
	group = group[:0]
	for i := 0; i < nb; i++ {
		group = append(group, rma.MakeDPtr(3, uint64(200+i)))
	}
	v.Replicas = [][]rma.DPtr{group}
	prim := EncodeVertex(v, 128)
	for i := 1; i < nb; i++ {
		SetTableEntry(prim, i-1, rma.MakeDPtr(0, uint64(10+i)))
	}

	rep := RewriteAsReplica(prim, group)
	if !IsReplicaBlock(rep) {
		t.Fatal("rewritten stream lacks the replica flag")
	}
	if IsReplicaBlock(prim) {
		t.Fatal("RewriteAsReplica mutated its input")
	}
	for i := 1; i < nb; i++ {
		if TableEntry(rep, i-1) != group[i] {
			t.Fatalf("replica table entry %d = %v, want %v", i-1, TableEntry(rep, i-1), group[i])
		}
		if TableEntry(prim, i-1) != rma.MakeDPtr(0, uint64(10+i)) {
			t.Fatal("RewriteAsReplica mutated the primary's table")
		}
	}
	got, err := DecodeVertex(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsReplica {
		t.Fatal("decoded follower not marked IsReplica")
	}
	if got.AppID != v.AppID || !bytes.Equal(got.Entries, v.Entries) || !reflect.DeepEqual(got.Replicas, v.Replicas) {
		t.Fatalf("follower content diverges from primary:\n got %+v\nwant %+v", got, v)
	}
}
