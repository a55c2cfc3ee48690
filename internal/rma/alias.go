package rma

import "github.com/gdi-go/gdi/internal/fabric"

// The addressing types, vectored-op element types, and counter types are
// owned by the fabric SPI package since the transport seam was carved; the
// aliases below keep rma as a drop-in name for backend-agnostic code that
// grew up against the simulator.

// Rank identifies a process within a Fabric. Ranks are dense in [0, N).
type Rank = fabric.Rank

// NullRank is the invalid rank value.
const NullRank = fabric.NullRank

// DPtr is the 64-bit distributed hierarchical pointer of the paper (§5.3).
type DPtr = fabric.DPtr

// NullDPtr is the invalid/absent pointer.
const NullDPtr = fabric.NullDPtr

// MakeDPtr builds a pointer to offset off on rank r.
func MakeDPtr(r Rank, off uint64) DPtr { return fabric.MakeDPtr(r, off) }

// GetOp is one element of a vectored read.
type GetOp = fabric.GetOp

// PutOp is one element of a vectored write.
type PutOp = fabric.PutOp

// GuardedGetOp is one element of a guarded GET train.
type GuardedGetOp = fabric.GuardedGetOp

// CASOp is one element of a vectored compare-and-swap train.
type CASOp = fabric.CASOp

// CASResult reports one constituent CAS of a train.
type CASResult = fabric.CASResult

// Counters aggregates the one-sided traffic a single rank has issued.
type Counters = fabric.Counters

// Snapshot is a plain-value copy of a rank's counters.
type Snapshot = fabric.Snapshot

// Inbox is the one-sided static-slot mailbox of the dense analytics engine.
type Inbox = fabric.Inbox
