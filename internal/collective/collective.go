// Package collective implements the collective communication operations that
// GDI-RMA uses for collective transactions, bulk loading, and OLAP queries
// (§3.2, §5.1 of the paper): Barrier, Bcast, Reduce, Allreduce, Gather,
// Allgather, Alltoall, and Exscan.
//
// All operations have the MPI collective contract: every rank of the
// communicator must call the routine, with matching arguments where the
// operation requires it. The implementations use the classic O(log P)-round
// algorithms (dissemination barrier, binomial trees, recursive structures)
// over the pairwise message substrate of the fabric SPI
// (fabric.Messenger), so both the semantics and the round complexity match
// what a tuned MPI library provides — and the same algorithms run unchanged
// over the in-process simulator and the multi-process TCP transport.
//
// Value passage is backend-dependent: on a shared-address-space transport
// values travel by reference (zero copies, and subsystems like the HTAP cut
// broadcast rely on receiving the very same object); on a wire transport
// values are encoded per message (raw bytes for []byte payloads, gob for
// everything else — payload types crossing a wire collective must therefore
// be gob-encodable).
package collective

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"github.com/gdi-go/gdi/internal/fabric"
)

// Comm is a communicator over all ranks of a transport. Collectives on a
// Comm must be issued in the same order by every rank, and because all Comms
// of one transport share its messenger substrate, only one collective
// sequence may run at a time per transport — mirroring MPI communicator
// semantics over MPI_COMM_WORLD.
type Comm struct {
	m fabric.Messenger
	n int
}

// New creates a communicator spanning all ranks of t.
func New(t fabric.Transport) *Comm {
	return &Comm{m: t.Messenger(), n: t.Size()}
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.n }

// Wire encoding tags for the non-shared (multi-process) path.
const (
	tagNil   = 0 // barrier token / nil value
	tagBytes = 1 // raw []byte payload
	tagGob   = 2 // gob-encoded value
)

func encodeVal(v any) []byte {
	switch b := v.(type) {
	case nil:
		return []byte{tagNil}
	case []byte:
		out := make([]byte, 1+len(b))
		out[0] = tagBytes
		copy(out[1:], b)
		return out
	}
	var buf bytes.Buffer
	buf.WriteByte(tagGob)
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("collective: payload %T does not cross a wire transport: %v", v, err))
	}
	return buf.Bytes()
}

func decodeVal[T any](b []byte) T {
	var out T
	if len(b) == 0 {
		return out
	}
	switch b[0] {
	case tagNil:
		return out
	case tagBytes:
		if v, ok := any(append([]byte(nil), b[1:]...)).(T); ok {
			return v
		}
		panic(fmt.Sprintf("collective: []byte message decoded as %T", out))
	case tagGob:
		if err := gob.NewDecoder(bytes.NewReader(b[1:])).Decode(&out); err != nil {
			panic(fmt.Sprintf("collective: decoding %T: %v", out, err))
		}
		return out
	}
	panic(fmt.Sprintf("collective: unknown wire tag %d", b[0]))
}

// sendVal and recvVal move one typed value across a directed rank pair:
// by reference when the transport is shared, encoded when it is a wire.
func sendVal[T any](c *Comm, from, to fabric.Rank, v T) {
	if c.m.Shared() {
		c.m.Send(from, to, v)
		return
	}
	c.m.SendBytes(from, to, encodeVal(v))
}

func recvVal[T any](c *Comm, from, to fabric.Rank) T {
	if c.m.Shared() {
		v, _ := c.m.Recv(from, to).(T) // nil any → zero T
		return v
	}
	return decodeVal[T](c.m.RecvBytes(from, to))
}

// sendToken and recvToken move the contentless synchronization token of
// Barrier.
func (c *Comm) sendToken(from, to fabric.Rank) {
	if c.m.Shared() {
		c.m.Send(from, to, nil)
		return
	}
	c.m.SendBytes(from, to, []byte{tagNil})
}

func (c *Comm) recvToken(from, to fabric.Rank) {
	if c.m.Shared() {
		c.m.Recv(from, to)
		return
	}
	c.m.RecvBytes(from, to)
}

// Barrier blocks until every rank has entered it. It uses the dissemination
// algorithm: ceil(log2 P) rounds, each rank sending one token per round.
func (c *Comm) Barrier(me fabric.Rank) {
	n := c.n
	for k := 1; k < n; k <<= 1 {
		to := fabric.Rank((int(me) + k) % n)
		from := fabric.Rank((int(me) - k + n) % n)
		c.sendToken(me, to)
		c.recvToken(from, me)
	}
}

// OrReduce combines every rank's flag with logical OR and delivers the
// result to all ranks using the dissemination pattern (ceil(log2 P) rounds,
// the same schedule as Barrier). Because no rank can exit before every rank
// has entered, OrReduce synchronizes like a barrier — callers can fold a
// continuation-flag exchange and a closing barrier into one step, which is
// exactly what the one-sided exchange does between streaming sub-rounds.
func OrReduce(c *Comm, me fabric.Rank, flag bool) bool {
	n := c.n
	for k := 1; k < n; k <<= 1 {
		to := fabric.Rank((int(me) + k) % n)
		from := fabric.Rank((int(me) - k + n) % n)
		sendVal(c, me, to, flag)
		flag = recvVal[bool](c, from, me) || flag
	}
	return flag
}

// Bcast distributes root's value to every rank and returns it. Non-root
// callers pass the zero value; all callers receive root's value. Binomial
// tree, ceil(log2 P) depth.
func Bcast[T any](c *Comm, me, root fabric.Rank, val T) T {
	n := c.n
	rel := (int(me) - int(root) + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := fabric.Rank((rel - mask + int(root)) % n)
			val = recvVal[T](c, parent, me)
			break
		}
		mask <<= 1
	}
	// Forward to children: exactly the masks below the one received on.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			child := fabric.Rank((rel + mask + int(root)) % n)
			sendVal(c, me, child, val)
		}
	}
	return val
}

// Reduce combines every rank's val with op and delivers the result to root;
// other ranks receive the zero value. op must be associative. Binomial tree.
func Reduce[T any](c *Comm, me, root fabric.Rank, val T, op func(T, T) T) T {
	n := c.n
	rel := (int(me) - int(root) + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			parent := fabric.Rank((rel - mask + int(root)) % n)
			sendVal(c, me, parent, val)
			var zero T
			return zero
		}
		if rel+mask < n {
			child := fabric.Rank((rel + mask + int(root)) % n)
			val = op(val, recvVal[T](c, child, me))
		}
	}
	return val
}

// Allreduce combines every rank's val with op and delivers the result to all
// ranks (reduce-to-root followed by broadcast; 2·ceil(log2 P) depth).
func Allreduce[T any](c *Comm, me fabric.Rank, val T, op func(T, T) T) T {
	red := Reduce(c, me, 0, val, op)
	return Bcast(c, me, 0, red)
}

// Gather collects every rank's value at root, indexed by rank. Non-root
// callers receive nil.
func Gather[T any](c *Comm, me, root fabric.Rank, val T) []T {
	if me != root {
		sendVal(c, me, root, val)
		c.Barrier(me)
		return nil
	}
	out := make([]T, c.n)
	for r := 0; r < c.n; r++ {
		if fabric.Rank(r) == root {
			out[r] = val
			continue
		}
		out[r] = recvVal[T](c, fabric.Rank(r), me)
	}
	c.Barrier(me)
	return out
}

// Allgather collects every rank's value at every rank, indexed by rank.
func Allgather[T any](c *Comm, me fabric.Rank, val T) []T {
	g := Gather(c, me, 0, val)
	return Bcast(c, me, 0, g)
}

// Alltoall performs a personalized all-to-all exchange: out[d] is sent to
// rank d, and the returned slice holds in[s] = the value rank s sent to the
// caller. len(out) must equal the communicator size.
func Alltoall[T any](c *Comm, me fabric.Rank, out []T) []T {
	if len(out) != c.n {
		panic(fmt.Sprintf("collective: Alltoall with %d slots on a %d-rank comm", len(out), c.n))
	}
	in := make([]T, c.n)
	for d := 0; d < c.n; d++ {
		if fabric.Rank(d) == me {
			in[d] = out[d]
			continue
		}
		sendVal(c, me, fabric.Rank(d), out[d])
	}
	for s := 0; s < c.n; s++ {
		if fabric.Rank(s) == me {
			continue
		}
		in[s] = recvVal[T](c, fabric.Rank(s), me)
	}
	c.Barrier(me)
	return in
}

// Exscan computes the exclusive prefix reduction of val across ranks in rank
// order: rank 0 receives the zero value, rank i receives op(val_0, …,
// val_{i-1}). Used to assign disjoint global ID ranges during bulk loading.
func Exscan[T any](c *Comm, me fabric.Rank, val T, op func(T, T) T) T {
	all := Allgather(c, me, val)
	var acc T
	for r := 0; r < int(me); r++ {
		if r == 0 {
			acc = all[0]
			continue
		}
		acc = op(acc, all[r])
	}
	return acc
}

// AgreeOnError makes the outcome of a collective routine collective: every
// rank contributes its local error, and either all ranks return nil or all
// return an error — the failing rank its own, every other rank one wrapping
// the same sentinel. sentinels (at least one) ranks the failures, least
// severe first; the ranks agree on the most severe one any error matches,
// and an error that matches none counts as the last. No rank returns before every rank has
// entered (one Allreduce), so it also closes the routine like a barrier.
// Without it a rank that fails early leaves its peers blocked in the next
// collective.
func AgreeOnError(c *Comm, me fabric.Rank, err error, sentinels ...error) error {
	code := 0
	if err != nil {
		code = len(sentinels)
		for i, sentinel := range sentinels {
			if errors.Is(err, sentinel) {
				code = i + 1
				break
			}
		}
	}
	worst := Allreduce(c, me, code, func(a, b int) int { return max(a, b) })
	if err != nil || worst == 0 {
		return err
	}
	return fmt.Errorf("%w: collective operation failed on another rank", sentinels[worst-1])
}
