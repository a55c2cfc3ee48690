package fabric

import "sync/atomic"

// Counters aggregates the one-sided traffic a single rank has issued. It
// substitutes for the RDMA NIC hardware counters of the paper's testbed and
// lets experiments report communication volume alongside wall-clock time.
// Both backends account into the same structure, so reports and ablation
// gates read identically over the simulator and over a wire transport.
type Counters struct {
	LocalPuts    atomic.Int64
	RemotePuts   atomic.Int64
	LocalGets    atomic.Int64
	RemoteGets   atomic.Int64
	LocalAtomics atomic.Int64
	RemoteAtomic atomic.Int64
	BytesPut     atomic.Int64
	BytesGot     atomic.Int64
	Flushes      atomic.Int64
	// GetBatches counts vectored GetBatch trains towards remote targets,
	// and the guarded GET trains that carry a GET; each train pays the
	// remote round-trip once however many constituent gets (counted above)
	// it carries.
	GetBatches atomic.Int64
	// PutBatches counts vectored PutBatch trains towards remote targets
	// (the commit write-back trains of §5.6).
	PutBatches atomic.Int64
	// AtomicBatches counts vectored CASBatch/LoadBatch trains towards remote
	// targets (the lock trains of the batched commit path, the stamp trains
	// of a frontier hop, and the DHT's entry fetches), and the guarded GET
	// trains that carry loads alone (the block cache's revalidations).
	// Scalar atomics are not trains: the round trips a rank paid for word
	// traffic are its scalar remote atomics plus its trains.
	AtomicBatches atomic.Int64
	// CacheHits and CacheMisses count lookups of the rank's block cache:
	// hits are remote block reads served from a version-validated local copy
	// without any GET traffic, misses fall through to a fetch train.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64

	_ [2]int64 // pad to a cache line to avoid false sharing between ranks
}

// Snapshot is a plain-value copy of a rank's counters.
type Snapshot struct {
	LocalPuts, RemotePuts     int64
	LocalGets, RemoteGets     int64
	LocalAtomics, RemoteAtoms int64
	BytesPut, BytesGot        int64
	Flushes                   int64
	GetBatches                int64
	PutBatches                int64
	AtomicBatches             int64
	CacheHits, CacheMisses    int64
}

// RemoteOps returns the total number of remote one-sided operations.
func (s Snapshot) RemoteOps() int64 { return s.RemotePuts + s.RemoteGets + s.RemoteAtoms }

// LocalOps returns the total number of local window operations.
func (s Snapshot) LocalOps() int64 { return s.LocalPuts + s.LocalGets + s.LocalAtomics }

// Add accumulates o into s field by field.
func (s *Snapshot) Add(o Snapshot) {
	s.LocalPuts += o.LocalPuts
	s.RemotePuts += o.RemotePuts
	s.LocalGets += o.LocalGets
	s.RemoteGets += o.RemoteGets
	s.LocalAtomics += o.LocalAtomics
	s.RemoteAtoms += o.RemoteAtoms
	s.BytesPut += o.BytesPut
	s.BytesGot += o.BytesGot
	s.Flushes += o.Flushes
	s.GetBatches += o.GetBatches
	s.PutBatches += o.PutBatches
	s.AtomicBatches += o.AtomicBatches
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
}

// Snapshot returns a plain-value copy of c.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		LocalPuts: c.LocalPuts.Load(), RemotePuts: c.RemotePuts.Load(),
		LocalGets: c.LocalGets.Load(), RemoteGets: c.RemoteGets.Load(),
		LocalAtomics: c.LocalAtomics.Load(), RemoteAtoms: c.RemoteAtomic.Load(),
		BytesPut: c.BytesPut.Load(), BytesGot: c.BytesGot.Load(),
		Flushes: c.Flushes.Load(), GetBatches: c.GetBatches.Load(),
		PutBatches: c.PutBatches.Load(), AtomicBatches: c.AtomicBatches.Load(),
		CacheHits: c.CacheHits.Load(), CacheMisses: c.CacheMisses.Load(),
	}
}

// Reset zeroes every field of c.
func (c *Counters) Reset() {
	c.LocalPuts.Store(0)
	c.RemotePuts.Store(0)
	c.LocalGets.Store(0)
	c.RemoteGets.Store(0)
	c.LocalAtomics.Store(0)
	c.RemoteAtomic.Store(0)
	c.BytesPut.Store(0)
	c.BytesGot.Store(0)
	c.Flushes.Store(0)
	c.GetBatches.Store(0)
	c.PutBatches.Store(0)
	c.AtomicBatches.Store(0)
	c.CacheHits.Store(0)
	c.CacheMisses.Store(0)
}

// CountPut accounts one put of n bytes (local when origin == target).
func (c *Counters) CountPut(local bool, n int) {
	if local {
		c.LocalPuts.Add(1)
	} else {
		c.RemotePuts.Add(1)
	}
	c.BytesPut.Add(int64(n))
}

// CountGet accounts one get of n bytes.
func (c *Counters) CountGet(local bool, n int) { c.CountGets(local, 1, n) }

// CountGets accounts gets one-sided gets of n bytes in all, with one add
// per counter: what a train counts for its GETs.
func (c *Counters) CountGets(local bool, gets, n int) {
	if local {
		c.LocalGets.Add(int64(gets))
	} else {
		c.RemoteGets.Add(int64(gets))
	}
	c.BytesGot.Add(int64(n))
}

// CountAtomic accounts one word atomic.
func (c *Counters) CountAtomic(local bool) { c.CountAtomics(local, 1) }

// CountAtomics accounts n word atomics with one add: what a train counts
// for its loads or CASes.
func (c *Counters) CountAtomics(local bool, n int) {
	if local {
		c.LocalAtomics.Add(int64(n))
	} else {
		c.RemoteAtomic.Add(int64(n))
	}
}

// CountGetBatch accounts one remote GET train; local trains are free.
func (c *Counters) CountGetBatch(local bool) {
	if !local {
		c.GetBatches.Add(1)
	}
}

// CountPutBatch accounts one remote PUT train.
func (c *Counters) CountPutBatch(local bool) {
	if !local {
		c.PutBatches.Add(1)
	}
}

// CountAtomicBatch accounts one remote atomic train.
func (c *Counters) CountAtomicBatch(local bool) {
	if !local {
		c.AtomicBatches.Add(1)
	}
}

// CountGuardedBatch accounts one guarded GET train: every load and every GET
// its ops carry, and the train itself — a GET train when it carries a GET, an
// atomic train when it loads alone. It reports whether the train GETs.
func (c *Counters) CountGuardedBatch(local bool, ops []GuardedGetOp) (gets bool) {
	loads, n, bytes := 0, 0, 0
	for i := range ops {
		op := &ops[i]
		loads += op.Loads()
		if len(op.Buf) > 0 {
			n, bytes = n+1, bytes+len(op.Buf)
		}
	}
	if loads > 0 {
		c.CountAtomics(local, loads)
	}
	if gets = n > 0; gets {
		c.CountGets(local, n, bytes)
		c.CountGetBatch(local)
	} else {
		c.CountAtomicBatch(local)
	}
	return gets
}

// AddCache accounts block-cache lookups.
func (c *Counters) AddCache(hits, misses int64) {
	if hits != 0 {
		c.CacheHits.Add(hits)
	}
	if misses != 0 {
		c.CacheMisses.Add(misses)
	}
}
