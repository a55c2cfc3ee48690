package holder

import (
	"bytes"
	"testing"

	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// TestVertexHomesRoundTrip: the home list live migration maintains encodes
// and decodes with the rest of the holder, across block-count boundaries.
func TestVertexHomesRoundTrip(t *testing.T) {
	const bs = 64
	for _, nHomes := range []int{0, 1, 3, 17} {
		v := &Vertex{AppID: 99}
		for i := 0; i < nHomes; i++ {
			v.Homes = append(v.Homes, rma.MakeDPtr(rma.Rank(i%4), uint64(i+1)))
		}
		v.Edges = []EdgeRec{{Neighbor: rma.MakeDPtr(1, 7), Dir: DirOut, Label: 2}}
		v.Entries = lpg.EncodeEntries([]lpg.LabelID{5}, []lpg.Property{{PType: lpg.PTypeID(lpg.FirstDynamicID), Value: []byte("abcd")}})

		buf := EncodeVertex(v, bs)
		if len(buf)%bs != 0 {
			t.Fatalf("stream of %d bytes not block-aligned", len(buf))
		}
		got, err := DecodeVertex(buf)
		if err != nil {
			t.Fatalf("homes=%d: %v", nHomes, err)
		}
		if got.AppID != v.AppID || len(got.Homes) != nHomes {
			t.Fatalf("homes=%d: decoded app %d with %d homes", nHomes, got.AppID, len(got.Homes))
		}
		for i := range v.Homes {
			if got.Homes[i] != v.Homes[i] {
				t.Fatalf("home %d: got %v, want %v", i, got.Homes[i], v.Homes[i])
			}
		}
		if len(got.Edges) != 1 || got.Edges[0] != v.Edges[0] {
			t.Fatalf("homes=%d: edges corrupted: %+v", nHomes, got.Edges)
		}
		if !bytes.Equal(got.Entries, v.Entries) {
			t.Fatalf("homes=%d: labels or properties corrupted", nHomes)
		}
		if again := EncodeVertex(got, bs); !bytes.Equal(again, buf) {
			t.Fatalf("homes=%d: re-encode not canonical", nHomes)
		}
	}
}

// TestMovedStub: the forwarding stub encodes target and app ID, is
// recognized by IsMoved, and is rejected by both holder decoders.
func TestMovedStub(t *testing.T) {
	const bs = 128
	target := rma.MakeDPtr(3, 4242)
	stub := EncodeMoved(77, target, bs)
	if len(stub) != bs {
		t.Fatalf("stub is %d bytes, want one block (%d)", len(stub), bs)
	}
	if !IsMoved(stub) {
		t.Fatal("IsMoved rejected a stub")
	}
	if NumBlocks(stub) != 1 {
		t.Fatalf("stub claims %d blocks, want 1", NumBlocks(stub))
	}
	if got := MovedTarget(stub); got != target {
		t.Fatalf("MovedTarget = %v, want %v", got, target)
	}
	if got := MovedAppID(stub); got != 77 {
		t.Fatalf("MovedAppID = %d, want 77", got)
	}
	if _, err := DecodeVertex(stub); err == nil {
		t.Fatal("DecodeVertex accepted a stub")
	}
	if _, err := DecodeEdge(stub); err == nil {
		t.Fatal("DecodeEdge accepted a stub")
	}
	// Ordinary holders are not moved.
	if IsMoved(EncodeVertex(&Vertex{AppID: 1}, bs)) {
		t.Fatal("IsMoved fired on a vertex holder")
	}
	if IsMoved(EncodeEdge(&Edge{Origin: 1, Target: 2}, bs)) {
		t.Fatal("IsMoved fired on an edge holder")
	}
}
