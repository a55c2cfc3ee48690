package snapshot

import (
	"testing"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/rma"
)

func sampleRecord() Record {
	return Record{
		Kind: KindUpdate,
		DP:   rma.MakeDPtr(3, 17),
		App:  0xdeadbeefcafe,
		Edges: []holder.EdgeRec{
			{Neighbor: rma.MakeDPtr(0, 1), Dir: holder.DirOut, Label: 7},
			{Neighbor: rma.MakeDPtr(5, 9), Dir: holder.DirIn, Label: 0},
			{Neighbor: rma.MakeDPtr(2, 2), Dir: holder.DirUndirected, Heavy: true, Label: 12},
		},
	}
}

func TestDeltaRecordRoundTrip(t *testing.T) {
	for _, r := range []Record{
		sampleRecord(),
		{Kind: KindCreate, DP: rma.MakeDPtr(0, 0), App: 0},
		{Kind: KindDelete, DP: rma.MakeDPtr(7, 1<<30), App: 42},
	} {
		got, err := DecodeRecord(EncodeRecord(r))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Kind != r.Kind || got.DP != r.DP || got.App != r.App {
			t.Fatalf("header round trip: got %+v, want %+v", got, r)
		}
		if len(got.Edges) != len(r.Edges) {
			t.Fatalf("edge count: got %d, want %d", len(got.Edges), len(r.Edges))
		}
		for i := range r.Edges {
			if got.Edges[i] != r.Edges[i] {
				t.Fatalf("edge %d: got %+v, want %+v", i, got.Edges[i], r.Edges[i])
			}
		}
	}
}

func TestDeltaRecordRejectsCorruption(t *testing.T) {
	good := EncodeRecord(sampleRecord())
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:recHeaderSize-1],
		"truncated":   good[:len(good)-1],
		"oversized":   append(append([]byte(nil), good...), 0),
		"bad kind":    append([]byte{99}, good[1:]...),
		"count lies":  func() []byte { b := append([]byte(nil), good...); b[17] = 200; return b }(),
		"count huge":  func() []byte { b := append([]byte(nil), good...); b[20] = 0xff; return b }(),
		"header only": good[:recHeaderSize], // count still says 3 edges, none present
	}
	for name, buf := range cases {
		if _, err := DecodeRecord(buf); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

// newTestManager builds a manager over a tiny 2-rank store.
func newTestManager(t *testing.T) *Manager {
	t.Helper()
	f := rma.New(2)
	st := block.NewStore(f, block.Config{BlockSize: 64, BlocksPerRank: 8})
	return NewManager(st)
}

func TestDeltaLogWindowAndTrim(t *testing.T) {
	m := newTestManager(t)
	mk := func(app uint64) Record { return Record{Kind: KindCreate, DP: rma.MakeDPtr(0, app), App: app} }

	m.AppendDeltas(0, []Record{mk(1), mk(2)})
	c := m.NewCut()
	m.PinRank(c, 0, nil) // records log position 2 for rank 0
	if got := c.LogPos(0); got != 2 {
		t.Fatalf("pinned log position: got %d, want 2", got)
	}

	m.AppendDeltas(0, []Record{mk(3)})
	recs, err := m.Deltas(0, 2, 3)
	if err != nil {
		t.Fatalf("window [2,3): %v", err)
	}
	if len(recs) != 1 || recs[0].App != 3 {
		t.Fatalf("window [2,3): got %+v", recs)
	}

	// A second cut pins position 3. Releasing the first trims the log up to
	// the minimum still-active position: the old window must now be refused,
	// while the absolute position does not move.
	c2 := m.NewCut()
	m.PinRank(c2, 0, nil)
	c.Release()
	if _, err := m.Deltas(0, 0, 2); err == nil {
		t.Fatal("trimmed window [0,2) still readable")
	}
	if recs, err = m.Deltas(0, 3, 3); err != nil || len(recs) != 0 {
		t.Fatalf("empty window [3,3) after trim: %v, %d recs", err, len(recs))
	}
	if got := m.LogLen(0); got != 3 {
		t.Fatalf("absolute position moved: got %d, want 3", got)
	}
	c2.Release()

	// Inverted and out-of-range windows are rejected.
	if _, err := m.Deltas(0, 3, 2); err == nil {
		t.Fatal("inverted window accepted")
	}
	if _, err := m.Deltas(0, 2, 99); err == nil {
		t.Fatal("future window accepted")
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	m := newTestManager(t)
	c := m.NewCut()
	m.PinRank(c, 0, nil)
	m.PinRank(c, 1, nil)
	c.Release()
	c.Release()
	if !c.Released() {
		t.Fatal("cut not marked released")
	}
	if got := m.ArenaBytes(); got != 0 {
		t.Fatalf("arena holds %d bytes after release", got)
	}
	if err := m.ReadBlock(0, c, rma.MakeDPtr(0, 1), make([]byte, m.bs)); err == nil {
		t.Fatal("read through a released cut succeeded")
	}
}

func TestRetireAndCutReadPreserveOldBytes(t *testing.T) {
	m := newTestManager(t)
	dp := rma.MakeDPtr(0, 1)
	old := make([]byte, m.bs)
	for i := range old {
		old[i] = 0xA5
	}
	m.store.WriteBlock(0, dp, old)

	c := m.NewCut()
	m.PinRank(c, 0, nil)

	// A writer overwrites the block; the pre-write hook (BeforeWrite) must save
	// the pinned bytes into the arena first.
	m.BeforeWrite(dp)
	m.store.WriteBlock(0, dp, make([]byte, m.bs))

	if m.RetiredBlocks() == 0 || m.ArenaBytes() == 0 {
		t.Fatalf("nothing retired: %d blocks, %d bytes", m.RetiredBlocks(), m.ArenaBytes())
	}
	got := make([]byte, m.bs)
	if err := m.ReadBlock(0, c, dp, got); err != nil {
		t.Fatalf("cut read: %v", err)
	}
	for i := range got {
		if got[i] != 0xA5 {
			t.Fatalf("cut read byte %d: got %#x, want 0xA5", i, got[i])
		}
	}

	c.Release()
	if got := m.ArenaBytes(); got != 0 {
		t.Fatalf("arena holds %d bytes after release", got)
	}
}
