package locks

import (
	"sync"
	"sync/atomic"

	"github.com/gdi-go/gdi/internal/fabric"
)

// Write-unlock retirement hook. Every write-unlock bumps the guarded word's
// version counter even when the release wrote no byte (an abort after the
// commit lock train, a no-op update, a migration's secondary words): the bump
// alone invalidates version-stamped copies, so an HTAP cut pinned at the
// pre-bump version would lose its last way to read the block's unchanged
// bytes. The hook lets the snapshot layer retire those bytes into its
// version arena before the bump becomes visible. Byte-changing writers are
// already covered by the block store's pre-write hook; this one closes the
// bump-without-write gap, which is why it fires on the unlock path.
//
// Hooks are registered per lock-word window (one database engine per block
// store's system window), so multiple engines in one process do not see each
// other's releases. The hot path pays one atomic load while no hook is
// registered anywhere in the process.
var (
	releaseHooksOn atomic.Bool
	releaseHooks   sync.Map // fabric.WordWin -> func(fabric.Rank, int)
)

// SetReleaseHook installs fn as win's write-unlock hook: it is called with
// the word's owner rank and index immediately before each release's version-
// bump CAS, while the caller still holds the word exclusively. A nil fn
// removes the hook.
func SetReleaseHook(win fabric.WordWin, fn func(target fabric.Rank, idx int)) {
	if fn == nil {
		releaseHooks.Delete(win)
		return
	}
	releaseHooks.Store(win, fn)
	releaseHooksOn.Store(true)
}

// runReleaseHook fires the registered hook for one about-to-be-released word.
func runReleaseHook(win fabric.WordWin, target fabric.Rank, idx int) {
	if !releaseHooksOn.Load() {
		return
	}
	if fn, ok := releaseHooks.Load(win); ok {
		fn.(func(fabric.Rank, int))(target, idx)
	}
}
