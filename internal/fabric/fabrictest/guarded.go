// Package fabrictest holds backend-independent checks of the fabric SPI's
// contracts, for the tests of each backend to run over its own windows.
package fabrictest

import (
	"testing"

	"github.com/gdi-go/gdi/internal/fabric"
)

// The guard words of the seqlock check: a version in the low bits and a
// write bit on top, the shape of the engine's lock words. Version v's block
// holds Block bytes of byte(v).
const (
	WriteBit = uint64(1) << 63
	Block    = 512
)

// SeqlockWriter rewrites block b of target's segment of bw, in turn over
// blocks blocks, each under guard word b of ww, until stop closes: a seqlock
// writer in four steps per write — take the write bit, fill the block with
// the byte of the next version, bump the version, release. It must be the
// words' only writer.
func SeqlockWriter(bw fabric.ByteWin, ww fabric.WordWin, target fabric.Rank, blocks int, stop <-chan struct{}) {
	fill := make([]byte, Block)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		b := i % blocks
		v := ww.Load(target, target, b)
		for j := range fill {
			fill[j] = byte(v + 1)
		}
		// The block is filled ahead, so the write lands right behind the
		// write bit: a reader's loads in the wrong place see it.
		if _, ok := ww.CAS(target, target, b, v, v|WriteBit); !ok {
			panic("fabrictest: the only writer lost its guard")
		}
		bw.Put(target, target, b*Block, fill)
		ww.Store(target, target, b, (v+1)|WriteBit)
		ww.Store(target, target, b, v+1)
	}
}

// CheckSeqlockReads issues the given number of guarded trains, each of one
// op per block, from origin to target. It fails t for every op whose two
// loads vouch for its block — the same version, the write bit clear — while
// the block is not that version's, and returns how many ops were vouched
// for and how many were not.
func CheckSeqlockReads(t testing.TB, bw fabric.ByteWin, ww fabric.WordWin, origin, target fabric.Rank, blocks, trains int) (vouched, moved int) {
	t.Helper()
	ops := make([]fabric.GuardedGetOp, blocks)
	for b := range ops {
		ops[b] = fabric.GuardedGetOp{Guard: b, LoadBefore: true, LoadAfter: true, Off: b * Block, Buf: make([]byte, Block)}
	}
	for range trains {
		bw.GuardedGetBatch(origin, target, ww, ops)
		for b := range ops {
			op := &ops[b]
			if op.Before != op.After || op.Before&WriteBit != 0 {
				moved++
				continue
			}
			vouched++
			for j, c := range op.Buf {
				if c != byte(op.Before) {
					t.Fatalf("block %d at version %d: byte %d is %d, want %d — the loads vouch for a torn block", b, op.Before, j, c, byte(op.Before))
				}
			}
		}
	}
	return vouched, moved
}

// Seqlock runs SeqlockWriter on target, over the writer's handles of the
// windows, against trains trains of CheckSeqlockReads from origin, over the
// reader's handles (on a wire transport each process has its own), and
// fails t unless some ops were vouched for.
func Seqlock(t testing.TB, writerBytes, readerBytes fabric.ByteWin, writerWords, readerWords fabric.WordWin, origin, target fabric.Rank, blocks, trains int) {
	t.Helper()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		SeqlockWriter(writerBytes, writerWords, target, blocks, stop)
	}()
	vouched, moved := CheckSeqlockReads(t, readerBytes, readerWords, origin, target, blocks, trains)
	close(stop)
	<-done
	if vouched == 0 {
		t.Fatalf("none of %d guarded ops was vouched for", moved)
	}
	t.Logf("%d guarded ops vouched for, %d saw the guard move", vouched, moved)
}
