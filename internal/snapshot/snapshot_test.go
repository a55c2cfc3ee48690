package snapshot

import (
	"testing"

	"github.com/gdi-go/gdi/internal/block"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/locks"
	"github.com/gdi-go/gdi/internal/rma"
)

// newTestManager builds a manager over a tiny 2-rank store.
func newTestManager(t *testing.T) *Manager {
	t.Helper()
	f := rma.New(2)
	st := block.NewStore(f, block.Config{BlockSize: 64, BlocksPerRank: 8})
	return NewManager(st)
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

// TestOverlappingCutsKeepTheirOwnBytes: a block whose lock word never moves
// (a chain's continuation block) keeps its stamped version across writes, so
// two cuts pinned around a write stamp it alike yet need different bytes.
// Each cut must read the bytes the block held when it was pinned, before and
// after the other cut is released.
func TestOverlappingCutsKeepTheirOwnBytes(t *testing.T) {
	m := newTestManager(t)
	dp := rma.MakeDPtr(0, 1)
	fill := func(b byte) []byte {
		buf := make([]byte, m.bs)
		for i := range buf {
			buf[i] = b
		}
		return buf
	}
	write := func(b byte) {
		m.BeforeWrite(dp)
		m.store.WriteBlock(0, dp, fill(b))
	}
	expect := func(what string, c *Cut, want byte) {
		t.Helper()
		got := make([]byte, m.bs)
		if err := m.ReadBlock(0, c, dp, got); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got[0] != want {
			t.Fatalf("%s read %#x, want %#x", what, got[0], want)
		}
	}
	m.store.WriteBlock(0, dp, fill(0xA1))
	first := m.NewCut()
	m.PinRank(first, 0, nil)
	write(0xB2)
	second := m.NewCut()
	m.PinRank(second, 0, nil)
	write(0xC3)
	expect("the first cut", first, 0xA1)
	expect("the second cut", second, 0xB2)
	first.Release()
	expect("the second cut after the first's release", second, 0xB2)
	second.Release()
	if got := m.ArenaBytes(); got != 0 {
		t.Fatalf("arena holds %d bytes after both releases", got)
	}
}

// filled returns one block's worth of bytes, every byte b.
func filled(m *Manager, b byte) []byte {
	buf := make([]byte, m.bs)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// readsAs fails the test unless the cut reads dp as a block of bytes b.
func readsAs(t *testing.T, m *Manager, c *Cut, dp fabric.DPtr, b byte) {
	t.Helper()
	got := make([]byte, m.bs)
	if err := m.ReadBlock(0, c, dp, got); err != nil {
		t.Fatalf("cut read of %v: %v", dp, err)
	}
	for i := range got {
		if got[i] != b {
			t.Fatalf("cut read of %v, byte %d: got %#x, want %#x", dp, i, got[i], b)
		}
	}
}

// TestCutReadRejectsMisuse: a cut read refuses a released cut, a rank the
// cut never pinned, and a buffer that is not exactly one block.
func TestCutReadRejectsMisuse(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pin     []fabric.Rank
		release bool
		bufLen  func(bs int) int
	}{
		{name: "released cut", pin: []fabric.Rank{0, 1}, release: true},
		{name: "unpinned rank", pin: []fabric.Rank{0}},
		{name: "short buffer", pin: []fabric.Rank{0, 1}, bufLen: func(bs int) int { return bs - 1 }},
		{name: "long buffer", pin: []fabric.Rank{0, 1}, bufLen: func(bs int) int { return bs + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestManager(t)
			c := m.NewCut()
			for _, r := range tc.pin {
				m.PinRank(c, r, nil)
			}
			if tc.release {
				c.Release()
			}
			n := m.bs
			if tc.bufLen != nil {
				n = tc.bufLen(m.bs)
			}
			if err := m.ReadBlock(0, c, rma.MakeDPtr(1, 1), make([]byte, n)); err == nil {
				t.Fatal("the cut read succeeded")
			}
			c.Release()
		})
	}
}

// TestBeforeWriteRetiresOnlyWhatACutNeeds: the pre-write hook copies a
// block into the arena only for a cut pinned on the block's rank that
// stamped the block's current version and holds no copy of it yet, and one
// copy serves every cut that needs the same bytes.
func TestBeforeWriteRetiresOnlyWhatACutNeeds(t *testing.T) {
	dp := rma.MakeDPtr(0, 1)
	write := func(m *Manager, dp fabric.DPtr, b byte) {
		m.BeforeWrite(dp)
		m.store.WriteBlock(0, dp, filled(m, b))
	}
	expectArena := func(t *testing.T, m *Manager, blocks, bytes int64) {
		t.Helper()
		if got := m.RetiredBlocks(); got != blocks {
			t.Fatalf("retired %d blocks, want %d", got, blocks)
		}
		if got := m.ArenaBytes(); got != bytes {
			t.Fatalf("arena holds %d bytes, want %d", got, bytes)
		}
	}

	t.Run("no cut pinned", func(t *testing.T) {
		m := newTestManager(t)
		write(m, dp, 0xB2)
		expectArena(t, m, 0, 0)
	})

	t.Run("cut pinned on another rank", func(t *testing.T) {
		m := newTestManager(t)
		c := m.NewCut()
		m.PinRank(c, 1, nil)
		write(m, dp, 0xB2)
		expectArena(t, m, 0, 0)
		c.Release()
	})

	t.Run("unreached block", func(t *testing.T) {
		m := newTestManager(t)
		other := rma.MakeDPtr(0, 2)
		m.store.WriteBlock(0, other, filled(m, 0xA1))
		c := m.NewCut()
		m.PinRank(c, 0, []fabric.DPtr{dp})
		write(m, dp, 0xB2)
		expectArena(t, m, 0, 0)
		// The cut still retires the blocks it reads.
		write(m, other, 0xC3)
		expectArena(t, m, 1, int64(m.bs))
		readsAs(t, m, c, other, 0xA1)
		c.Release()
		expectArena(t, m, 1, 0)
	})

	t.Run("second write", func(t *testing.T) {
		m := newTestManager(t)
		m.store.WriteBlock(0, dp, filled(m, 0xA1))
		c := m.NewCut()
		m.PinRank(c, 0, nil)
		write(m, dp, 0xB2)
		write(m, dp, 0xC3)
		expectArena(t, m, 1, int64(m.bs))
		readsAs(t, m, c, dp, 0xA1)
		c.Release()
		expectArena(t, m, 1, 0)
	})

	t.Run("cuts of one version share a copy", func(t *testing.T) {
		m := newTestManager(t)
		m.store.WriteBlock(0, dp, filled(m, 0xA1))
		first, second := m.NewCut(), m.NewCut()
		m.PinRank(first, 0, nil)
		m.PinRank(second, 0, nil)
		write(m, dp, 0xB2)
		expectArena(t, m, 1, int64(m.bs))
		readsAs(t, m, first, dp, 0xA1)
		first.Release()
		expectArena(t, m, 1, int64(m.bs))
		readsAs(t, m, second, dp, 0xA1)
		second.Release()
		expectArena(t, m, 1, 0)
	})
}

// TestCutReadFollowsTheLockProtocol drives writes the way the engine does:
// under the block's write lock, with the manager installed as the store's
// pre-write hook. A release that wrote the block moves its version, and the
// cut reads the retired bytes; a release that wrote nothing leaves the
// stamp current and retires nothing. An overwrite that bypasses the hook
// and moves the version leaves the cut nothing valid to read, and the read
// must fail rather than return the new bytes.
func TestCutReadFollowsTheLockProtocol(t *testing.T) {
	dp := rma.MakeDPtr(0, 1)
	setup := func(t *testing.T, hooked bool) (*Manager, locks.Word, *Cut) {
		m := newTestManager(t)
		if hooked {
			m.store.SetRetirer(m)
		}
		m.store.WriteBlock(0, dp, filled(m, 0xA1))
		win, target, idx := m.store.LockWord(dp)
		w := locks.Word{Win: win, Target: target, Idx: idx}
		c := m.NewCut()
		m.PinRank(c, 0, nil)
		m.PinRank(c, 1, nil)
		if err := w.TryAcquireWrite(0, locks.DefaultTries); err != nil {
			t.Fatal(err)
		}
		return m, w, c
	}
	version := func(m *Manager, w locks.Word) uint64 { return locks.Version(w.Stamp(0)) }

	t.Run("written release", func(t *testing.T) {
		m, w, c := setup(t, true)
		before := version(m, w)
		m.store.WriteBlock(0, dp, filled(m, 0xB2))
		w.ReleaseWrite(0)
		if version(m, w) == before {
			t.Fatal("a written release left the version alone")
		}
		readsAs(t, m, c, dp, 0xA1)
		fresh := m.NewCut()
		m.PinRank(fresh, 0, nil)
		readsAs(t, m, fresh, dp, 0xB2)
		c.Release()
		fresh.Release()
		if got := m.ArenaBytes(); got != 0 {
			t.Fatalf("arena holds %d bytes after both releases", got)
		}
	})

	t.Run("unwritten release", func(t *testing.T) {
		m, w, c := setup(t, true)
		before := version(m, w)
		locks.ReleaseWriteTrainMarked(0, []locks.Word{w}, nil, []locks.ReleaseMark{locks.Unwritten})
		if version(m, w) != before {
			t.Fatal("an unwritten release moved the version")
		}
		readsAs(t, m, c, dp, 0xA1)
		if got := m.RetiredBlocks(); got != 0 {
			t.Fatalf("an unwritten release retired %d blocks", got)
		}
		c.Release()
	})

	t.Run("overwrite without the hook", func(t *testing.T) {
		m, w, c := setup(t, false)
		m.store.WriteBlock(0, dp, filled(m, 0xB2))
		w.ReleaseWrite(0)
		if err := m.ReadBlock(0, c, dp, make([]byte, m.bs)); err == nil {
			t.Fatal("the cut read bytes written after it was pinned")
		}
		c.Release()
	})
}
