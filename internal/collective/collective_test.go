package collective

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/gdi-go/gdi/internal/rma"
)

// sizes exercises non-powers of two, which stress the tree algorithms.
var sizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range sizes {
		f := rma.New(n)
		c := New(f)
		var phase atomic.Int64
		f.Run(func(r rma.Rank) {
			phase.Add(1)
			c.Barrier(r)
			// After the barrier every rank must observe all n arrivals.
			if got := phase.Load(); got != int64(n) {
				t.Errorf("n=%d rank %d: saw %d arrivals after barrier", n, r, got)
			}
			c.Barrier(r)
		})
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for _, n := range sizes {
		f := rma.New(n)
		c := New(f)
		for root := 0; root < n; root++ {
			f.Run(func(r rma.Rank) {
				val := ""
				if r == rma.Rank(root) {
					val = "payload"
				}
				got := Bcast(c, r, rma.Rank(root), val)
				if got != "payload" {
					t.Errorf("n=%d root=%d rank=%d: Bcast = %q", n, root, r, got)
				}
				c.Barrier(r)
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	add := func(a, b int) int { return a + b }
	for _, n := range sizes {
		f := rma.New(n)
		c := New(f)
		want := n * (n - 1) / 2
		for root := 0; root < n; root += max(1, n/3) {
			f.Run(func(r rma.Rank) {
				got := Reduce(c, r, rma.Rank(root), int(r), add)
				if r == rma.Rank(root) && got != want {
					t.Errorf("n=%d root=%d: Reduce = %d, want %d", n, root, got, want)
				}
				if r != rma.Rank(root) && got != 0 {
					t.Errorf("n=%d root=%d rank=%d: non-root Reduce = %d, want 0", n, root, r, got)
				}
				c.Barrier(r)
			})
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	for _, n := range sizes {
		f := rma.New(n)
		c := New(f)
		f.Run(func(r rma.Rank) {
			got := Allreduce(c, r, int(r)*3, func(a, b int) int { return max(a, b) })
			if want := (n - 1) * 3; got != want {
				t.Errorf("n=%d rank=%d: Allreduce = %d, want %d", n, r, got, want)
			}
		})
	}
}

func TestGatherAndAllgather(t *testing.T) {
	for _, n := range sizes {
		f := rma.New(n)
		c := New(f)
		f.Run(func(r rma.Rank) {
			g := Gather(c, r, 0, int(r)+100)
			if r == 0 {
				for i, v := range g {
					if v != i+100 {
						t.Errorf("n=%d: Gather[%d] = %d, want %d", n, i, v, i+100)
					}
				}
			} else if g != nil {
				t.Errorf("n=%d rank=%d: non-root Gather = %v, want nil", n, r, g)
			}
			ag := Allgather(c, r, int(r)*2)
			for i, v := range ag {
				if v != i*2 {
					t.Errorf("n=%d rank=%d: Allgather[%d] = %d, want %d", n, r, i, v, i*2)
				}
			}
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range sizes {
		f := rma.New(n)
		c := New(f)
		f.Run(func(r rma.Rank) {
			out := make([]int, n)
			for d := range out {
				out[d] = int(r)*1000 + d // unique per (src, dst)
			}
			in := Alltoall(c, r, out)
			for s, v := range in {
				if want := s*1000 + int(r); v != want {
					t.Errorf("n=%d rank=%d: in[%d] = %d, want %d", n, r, s, v, want)
				}
			}
		})
	}
}

func TestAlltoallSlicePayloads(t *testing.T) {
	f := rma.New(4)
	c := New(f)
	f.Run(func(r rma.Rank) {
		out := make([][]uint64, 4)
		for d := range out {
			out[d] = []uint64{uint64(r), uint64(d)}
		}
		in := Alltoall(c, r, out)
		for s := range in {
			if len(in[s]) != 2 || in[s][0] != uint64(s) || in[s][1] != uint64(r) {
				t.Errorf("rank=%d: in[%d] = %v", r, s, in[s])
			}
		}
	})
}

func TestExscan(t *testing.T) {
	for _, n := range sizes {
		f := rma.New(n)
		c := New(f)
		f.Run(func(r rma.Rank) {
			got := Exscan(c, r, int(r)+1, func(a, b int) int { return a + b })
			want := 0
			for i := 0; i < int(r); i++ {
				want += i + 1
			}
			if got != want {
				t.Errorf("n=%d rank=%d: Exscan = %d, want %d", n, r, got, want)
			}
		})
	}
}

func TestAlltoallSizeMismatchPanics(t *testing.T) {
	f := rma.New(2)
	c := New(f)
	f.Run(func(r rma.Rank) {
		if r != 0 {
			// Rank 1 matches the panicking rank with a legal call pattern:
			// nothing — it must not block the test; rank 0 panics before
			// communicating.
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("Alltoall with wrong slot count did not panic")
			}
		}()
		Alltoall(c, r, make([]int, 3))
	})
}

func TestRepeatedCollectivesInterleave(t *testing.T) {
	// A realistic OLAP loop: barrier + allreduce + alltoall repeated many
	// times must not deadlock or cross-talk between iterations.
	f := rma.New(6)
	c := New(f)
	f.Run(func(r rma.Rank) {
		for iter := 0; iter < 50; iter++ {
			c.Barrier(r)
			sum := Allreduce(c, r, iter, func(a, b int) int { return a + b })
			if sum != iter*6 {
				t.Errorf("iter %d rank %d: Allreduce = %d, want %d", iter, r, sum, iter*6)
				return
			}
			out := make([]int, 6)
			for d := range out {
				out[d] = iter
			}
			in := Alltoall(c, r, out)
			for _, v := range in {
				if v != iter {
					t.Errorf("iter %d rank %d: Alltoall cross-talk: %v", iter, r, in)
					return
				}
			}
		}
	})
}

// TestAgreeOnErrorOneFailingRank: when one rank fails, the failing rank gets
// its own error back and every other rank an error wrapping the sentinel it
// matched; an error matching no sentinel counts as the last one; with no
// failure every rank gets nil.
func TestAgreeOnErrorOneFailingRank(t *testing.T) {
	errMinor, errMajor := errors.New("minor"), errors.New("major")
	for _, n := range sizes {
		for _, c := range []struct {
			local, want, not error
		}{
			{fmt.Errorf("rank detail: %w", errMinor), errMinor, errMajor},
			{errors.New("unranked"), errMajor, errMinor},
			{nil, nil, nil},
		} {
			f := rma.New(n)
			comm := New(f)
			failing := rma.Rank(n - 1)
			f.Run(func(r rma.Rank) {
				var local error
				if r == failing {
					local = c.local
				}
				got := AgreeOnError(comm, r, local, errMinor, errMajor)
				switch {
				case c.local == nil && got != nil:
					t.Errorf("n=%d rank=%d: no rank failed, got %v", n, r, got)
				case r == failing && got != local:
					t.Errorf("n=%d: the failing rank got %v, want its own %v", n, got, local)
				case r != failing && c.want != nil && (!errors.Is(got, c.want) || errors.Is(got, c.not)):
					t.Errorf("n=%d rank=%d: got %v, want an error wrapping %v only", n, r, got, c.want)
				}
			})
		}
	}
}
