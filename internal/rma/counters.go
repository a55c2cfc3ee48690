package rma

// The counter structures live in the fabric package (shared with the wire
// backends); the simulator keeps one padded Counters per rank and delegates.

// CounterSnapshot returns a copy of rank r's counters.
func (f *Fabric) CounterSnapshot(r Rank) Snapshot {
	f.checkRank(r)
	return f.counters[r].Snapshot()
}

// TotalSnapshot sums the counters of every rank.
func (f *Fabric) TotalSnapshot() Snapshot {
	var t Snapshot
	for r := 0; r < f.n; r++ {
		t.Add(f.counters[r].Snapshot())
	}
	return t
}

// ResetCounters zeroes the counters of every rank.
func (f *Fabric) ResetCounters() {
	for r := range f.counters {
		f.counters[r].Reset()
	}
}

// AddCache accounts lookups of origin's rank-local block cache.
func (f *Fabric) AddCache(origin Rank, hits, misses int64) {
	f.counters[origin].AddCache(hits, misses)
}

func (f *Fabric) countPut(origin, target Rank, n int) {
	f.counters[origin].CountPut(origin == target, n)
}

func (f *Fabric) countGet(origin, target Rank, n int) {
	f.counters[origin].CountGet(origin == target, n)
}

func (f *Fabric) countGetBatch(origin, target Rank) {
	f.counters[origin].CountGetBatch(origin == target)
}

func (f *Fabric) countPutBatch(origin, target Rank) {
	f.counters[origin].CountPutBatch(origin == target)
}

func (f *Fabric) countAtomicBatch(origin, target Rank) {
	f.counters[origin].CountAtomicBatch(origin == target)
}

func (f *Fabric) countAtomic(origin, target Rank) { f.countAtomics(origin, target, 1) }

// countAtomics accounts n word atomics of one train.
func (f *Fabric) countAtomics(origin, target Rank, n int) {
	f.counters[origin].CountAtomics(origin == target, n)
}
