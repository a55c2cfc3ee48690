package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// Read-your-own-writes: vertices created inside a transaction must be
// reachable through TranslateVertexID before commit.
func TestTranslateSeesOwnCreates(t *testing.T) {
	e := newEngine(t, 2)
	tx := e.StartLocal(0, ReadWrite)
	dp, err := tx.CreateVertex(123)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.TranslateVertexID(123)
	if err != nil {
		t.Fatalf("own create invisible: %v", err)
	}
	if got != dp {
		t.Fatalf("TranslateVertexID = %v, want %v", got, dp)
	}
	// Create-edge-between-own-creates must work pre-commit.
	dp2, _ := tx.CreateVertex(124)
	if _, err := tx.CreateEdge(dp, dp2, holder.DirOut, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateHidesOwnDeletes(t *testing.T) {
	e := newEngine(t, 1)
	setup := e.StartLocal(0, ReadWrite)
	dp, _ := setup.CreateVertex(9)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := e.StartLocal(0, ReadWrite)
	if err := tx.DeleteVertex(dp); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.TranslateVertexID(9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted vertex still translatable in own tx: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateThenDeleteSameTx(t *testing.T) {
	e := newEngine(t, 1)
	free := e.FreeBlocks(0)
	tx := e.StartLocal(0, ReadWrite)
	dp, _ := tx.CreateVertex(5)
	if err := tx.DeleteVertex(dp); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.TranslateVertexID(5); !errors.Is(err, ErrNotFound) {
		t.Fatal("create-then-delete still translatable")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.FreeBlocks(0); got != free {
		t.Fatalf("create+delete in one tx leaked blocks: %d -> %d", free, got)
	}
	probe := e.StartLocal(0, ReadOnly)
	if _, err := probe.TranslateVertexID(5); !errors.Is(err, ErrNotFound) {
		t.Fatal("phantom vertex visible after commit")
	}
	probe.Commit()
}

func TestAssociateNullVertexRejected(t *testing.T) {
	e := newEngine(t, 1)
	tx := e.StartLocal(0, ReadOnly)
	if _, err := tx.AssociateVertex(rma.NullDPtr); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("NULL associate: %v", err)
	}
	tx.Commit()
}

// TestOutOfPoolVertexIDsRejected: a vertex ID from outside the program that
// names no block of the pool — a rank past the engine's, the reserved block
// 0 of a rank, an offset past BlocksPerRank — is an ErrBadArgument to every
// entry point that takes one, as NULL is, not a panic.
func TestOutOfPoolVertexIDsRejected(t *testing.T) {
	const ranks = 2
	e := newEngine(t, ranks)
	per := uint64(e.Store().BlocksPerRank())
	ids := map[string]rma.DPtr{
		"rank=P":               rma.MakeDPtr(ranks, 1),
		"offset=0":             rma.MakeDPtr(1, 0),
		"offset=BlocksPerRank": rma.MakeDPtr(0, per),
	}
	calls := map[string]func(tx *Tx, dp rma.DPtr) error{
		"AssociateVertex": func(tx *Tx, dp rma.DPtr) error {
			_, err := tx.AssociateVertex(dp)
			return err
		},
		"AssociateVertices": func(tx *Tx, dp rma.DPtr) error {
			_, err := tx.AssociateVertices([]rma.DPtr{dp})
			return err
		},
		"ExpandFrontier": func(tx *Tx, dp rma.DPtr) error {
			_, _, err := tx.ExpandFrontier([]rma.DPtr{dp}, MaskAll, nil)
			return err
		},
		"FilterFrontier": func(tx *Tx, dp rma.DPtr) error {
			_, _, err := tx.FilterFrontier([]rma.DPtr{dp}, nil, nil, 5, 0)
			return err
		},
		"FilterNeighbors": func(tx *Tx, dp rma.DPtr) error {
			_, _, err := tx.FilterNeighbors([]rma.DPtr{dp}, nil, MaskAll, nil, nil, 5, 0)
			return err
		},
	}
	for id, dp := range ids {
		for name, call := range calls {
			t.Run(id+"/"+name, func(t *testing.T) {
				tx := e.StartLocal(0, ReadOnly)
				defer tx.Abort()
				err := func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("panic: %v", p)
						}
					}()
					return call(tx, dp)
				}()
				if !errors.Is(err, ErrBadArgument) {
					t.Fatalf("%s(%v): %v, want ErrBadArgument", name, dp, err)
				}
			})
		}
	}
}

// Failure injection: exhausting the block pool mid-commit must abort the
// whole transaction (atomicity) and leave the pool balanced.
func TestCommitAtomicOnPoolExhaustion(t *testing.T) {
	e := NewEngine(rma.New(1), Config{BlockSize: 256, BlocksPerRank: 16})
	blob, err := e.DefinePType("blob", metadata.PTypeSpec{Datatype: lpg.TypeBytes})
	if err != nil {
		t.Fatal(err)
	}
	setup := e.StartLocal(0, ReadWrite)
	dp, err := setup.CreateVertex(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	free := e.FreeBlocks(0)

	tx := e.StartLocal(0, ReadWrite)
	h, err := tx.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	// 16 blocks * 256B pool cannot hold a 64KB property.
	if err := h.SetProperty(blob, make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxCritical) {
		t.Fatalf("overflowing commit: %v", err)
	}
	if got := e.FreeBlocks(0); got != free {
		t.Fatalf("failed commit leaked blocks: %d -> %d", free, got)
	}
	// The original vertex must be intact.
	probe := e.StartLocal(0, ReadOnly)
	h2, err := probe.AssociateVertex(dp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h2.Property(blob); ok {
		t.Fatal("aborted write became visible")
	}
	probe.Commit()
}
