package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
)

// VertexSpec describes one vertex for bulk loading.
type VertexSpec struct {
	AppID  uint64
	Labels []lpg.LabelID
	Props  []lpg.Property
}

// EdgeSpec describes one edge for bulk loading, in application-ID space.
type EdgeSpec struct {
	OriginApp, TargetApp uint64
	Dir                  holder.Direction
	Label                lpg.LabelID
}

// indexEntry is one internal-index publication on its way to the rank that
// holds the key's bucket.
type indexEntry struct {
	App uint64
	DP  fabric.DPtr
}

// BulkLoadVertices is the collective vertex-ingestion path
// (GDI_BulkLoadVertices, the BULK workload class of §2). Every rank
// contributes a slice of specs; vertices are routed to their owner rank
// with one all-to-all, and each rank materializes its own shard locally —
// no locks are needed because bulk loading is collective and delimited by
// barriers. The index entries are published the same way: a second
// all-to-all carries each (appID, DPtr) pair to the rank holding the key's
// bucket, which inserts it into its own DHT shard, so publishing costs no
// remote atomics.
//
// The outcome is collective: when any rank runs out of blocks or index
// entries, every rank returns an error wrapping ErrNoMemory (the vertices
// stored so far stay findable).
//
// Work: O(|specs| · holder size); depth: O(log P) for the two exchanges plus
// the local build.
func (e *Engine) BulkLoadVertices(rank fabric.Rank, specs []VertexSpec) error {
	n := e.fab.Size()
	out := make([][]VertexSpec, n)
	for _, sp := range specs {
		o := e.OwnerOf(sp.AppID)
		out[o] = append(out[o], sp)
	}
	entries, err := e.buildVertices(rank, collective.Alltoall(e.comm, rank, out))

	publish := make([][]indexEntry, n)
	for _, en := range entries {
		h := e.index.HomeRank(en.App)
		publish[h] = append(publish[h], en)
	}
	for _, batch := range collective.Alltoall(e.comm, rank, publish) {
		for _, en := range batch {
			if !e.index.Insert(rank, en.App, uint64(en.DP)) && err == nil {
				err = fmt.Errorf("%w: internal index full publishing vertex %d", ErrNoMemory, en.App)
			}
		}
	}
	return collective.AgreeOnError(e.comm, rank, err, bulkErrs...)
}

// buildVertices materializes the specs routed to this rank, in arrival order,
// and returns the index entries to publish. It stops at the first block it
// cannot acquire; what it built before that is complete and is returned.
func (e *Engine) buildVertices(rank fabric.Rank, in [][]VertexSpec) (entries []indexEntry, err error) {
	bs := e.cfg.BlockSize
	// The local materialization runs under the HTAP commit gate like any
	// apply phase; the gate is scoped between two collectives so a holder
	// never waits on another rank.
	if e.snap != nil {
		e.htapGate.RLock()
		defer e.htapGate.RUnlock()
	}
	for _, batch := range in {
		for _, sp := range batch {
			v := &holder.Vertex{AppID: sp.AppID, Entries: lpg.EncodeEntries(sp.Labels, sp.Props)}
			stream := holder.EncodeVertex(v, bs)
			blocks, _, err := e.layoutChain(rank, rank, stream, nil, nil)
			if err != nil {
				for _, got := range blocks {
					e.store.ReleaseBlock(rank, got)
				}
				return entries, fmt.Errorf("%w: bulk loading vertex %d", err, sp.AppID)
			}
			for i, dp := range blocks {
				e.store.WriteBlock(rank, dp, stream[i*bs:(i+1)*bs])
			}
			entries = append(entries, indexEntry{App: sp.AppID, DP: blocks[0]})
			e.local[rank].addVertex(blocks[0], sp.AppID, sp.Labels)
		}
	}
	return entries, nil
}

// bulkErrs are the failures a bulk load can report, in the order
// collective.AgreeOnError ranks them; the last one stands for anything else.
var bulkErrs = []error{ErrNotFound, ErrNoMemory, ErrTxCritical}

// recDelivery routes one edge record to the rank owning its vertex.
type recDelivery struct {
	V   fabric.DPtr
	Rec holder.EdgeRec
}

// BulkLoadEdges is the collective edge-ingestion path (GDI_BulkLoadEdges).
// Each distinct endpoint is resolved through the internal index exactly once
// (a batched lookup, see lookupVertices); the records for both endpoints are
// routed to the owning ranks with one all-to-all and then merged: each rank
// rewrites each of its touched vertices exactly once no matter how many
// edges landed on it.
//
// The outcome is collective. An edge naming a vertex the index does not hold
// fails the load on every rank with ErrNotFound before anything is routed, so
// the store is untouched; block exhaustion during the merge fails it on every
// rank with ErrNoMemory.
//
// Work: O(distinct endpoints) index lookups in O(1) trains per rank and chunk
// + O(Σ touched holder blocks); depth: O(log P) exchange + local merge.
func (e *Engine) BulkLoadEdges(rank fabric.Rank, specs []EdgeSpec) error {
	out, err := e.routeEdges(rank, specs)
	if err = collective.AgreeOnError(e.comm, rank, err, bulkErrs...); err != nil {
		return err
	}
	return collective.AgreeOnError(e.comm, rank, e.mergeEdges(rank, collective.Alltoall(e.comm, rank, out)), bulkErrs...)
}

// routeEdges resolves the endpoints of specs and builds the per-owner-rank
// record deliveries, in spec order.
func (e *Engine) routeEdges(rank fabric.Rank, specs []EdgeSpec) ([][]recDelivery, error) {
	slot := make(map[uint64]int) // application ID → its position in apps
	var apps []uint64
	for _, sp := range specs {
		for _, app := range [2]uint64{sp.OriginApp, sp.TargetApp} {
			if _, seen := slot[app]; !seen {
				slot[app] = len(apps)
				apps = append(apps, app)
			}
		}
	}
	dps, found := e.lookupVertices(rank, apps)

	out := make([][]recDelivery, e.fab.Size())
	for _, sp := range specs {
		oi, ti := slot[sp.OriginApp], slot[sp.TargetApp]
		if !found[oi] {
			return nil, fmt.Errorf("%w: bulk edge origin %d", ErrNotFound, sp.OriginApp)
		}
		if !found[ti] {
			return nil, fmt.Errorf("%w: bulk edge target %d", ErrNotFound, sp.TargetApp)
		}
		o, t := dps[oi], dps[ti]
		back := holder.DirIn
		if sp.Dir == holder.DirUndirected {
			back = holder.DirUndirected
		}
		out[o.Rank()] = append(out[o.Rank()], recDelivery{V: o, Rec: holder.EdgeRec{Neighbor: t, Dir: sp.Dir, Label: sp.Label}})
		if o == t && sp.Dir == holder.DirUndirected {
			continue // undirected self-loop: a single record suffices
		}
		out[t.Rank()] = append(out[t.Rank()], recDelivery{V: t, Rec: holder.EdgeRec{Neighbor: o, Dir: back, Label: sp.Label}})
	}
	return out, nil
}

// mergeEdges appends the delivered records to this rank's holders, each
// holder rewritten once, in ascending DPtr order, its batch appended in
// canonical order: grouped by direction, then by weight class and label,
// neighbors ascending within a group. A group is one run of the holder's
// edge codec, and its sorted neighbors are the smallest deltas the run can
// store. Equal records are interchangeable, so the holders a load builds
// depend on the records delivered, not on the order they arrived in.
//
// Every bulk-loaded record passes through here, so the grouping is a
// counting sort, not a comparator over records: a vertex's primary DPtr
// names a block of this rank's pool, so (block, direction) indexes a dense
// table of group bounds. Within a group only the neighbor keys are sorted,
// unless the group mixes labels (sortGroup).
func (e *Engine) mergeEdges(rank fabric.Rank, in [][]recDelivery) error {
	const dirs = int(holder.DirUndirected) + 1
	blocks := e.store.BlocksPerRank()
	// bound[g+1] counts group g = off*dirs + dir; the prefix sum makes
	// bound[g] its start, and placing the records moves it to its end.
	bound := make([]int32, dirs*blocks+1)
	n := 0
	for _, batch := range in {
		for _, d := range batch {
			if d.V.Rank() != rank || !e.validPoolDPtr(d.V) {
				return fmt.Errorf("%w: bulk edge endpoint %v", ErrNotFound, d.V)
			}
			if d.Rec.Dir > holder.DirUndirected {
				return fmt.Errorf("%w: bulk edge direction %d", ErrBadArgument, d.Rec.Dir)
			}
			bound[int(d.V.Off())*dirs+int(d.Rec.Dir)+1]++
			n++
		}
	}
	for g := 1; g < len(bound); g++ {
		bound[g] += bound[g-1]
	}
	recs := make([]holder.EdgeRec, n)
	for _, batch := range in {
		for _, d := range batch {
			g := int(d.V.Off())*dirs + int(d.Rec.Dir)
			recs[bound[g]] = d.Rec
			bound[g]++
		}
	}

	if e.snap != nil {
		e.htapGate.RLock()
		defer e.htapGate.RUnlock()
	}
	var keys []fabric.DPtr
	lo := 0
	for off := range blocks {
		first := lo
		for dir := range dirs {
			hi := int(bound[off*dirs+dir])
			keys = sortGroup(recs[lo:hi], keys)
			lo = hi
		}
		if lo == first {
			continue
		}
		if err := e.appendRecords(rank, fabric.MakeDPtr(rank, uint64(off)), recs[first:lo], e.cfg.BlockSize); err != nil {
			return err
		}
	}
	return nil
}

// sortGroup sorts one vertex's delivered records of one direction into
// canonical order and returns keys, the scratch it sorted the neighbors in.
// Every bulk edge is light and most are unlabeled or of one label, so a
// group almost always shares one weight class and label, and then only its
// neighbor keys are sorted; a group that mixes them takes a comparator.
func sortGroup(group []holder.EdgeRec, keys []fabric.DPtr) []fabric.DPtr {
	if len(group) < 2 {
		return keys
	}
	if !oneRunClass(group) {
		slices.SortFunc(group, func(a, b holder.EdgeRec) int {
			return cmp.Or(cmp.Compare(runClass(a), runClass(b)), cmp.Compare(a.Neighbor, b.Neighbor))
		})
		return keys
	}
	keys = keys[:0]
	for _, r := range group {
		keys = append(keys, r.Neighbor)
	}
	slices.Sort(keys)
	for i := range group {
		group[i].Neighbor = keys[i]
	}
	return keys
}

// oneRunClass reports whether recs share one weight class and label.
func oneRunClass(recs []holder.EdgeRec) bool {
	for _, r := range recs[1:] {
		if runClass(r) != runClass(recs[0]) {
			return false
		}
	}
	return true
}

// runClass orders the records of one direction: light before heavy, then by
// label.
func runClass(r holder.EdgeRec) uint64 {
	if r.Heavy {
		return 1<<32 | uint64(r.Label)
	}
	return uint64(r.Label)
}

// appendRecords merges records into one locally-owned vertex holder,
// appending them behind its stored edge region, which is copied, not
// decoded.
func (e *Engine) appendRecords(rank fabric.Rank, primary fabric.DPtr, recs []holder.EdgeRec, bs int) error {
	buf, blocks := e.readChain(rank, primary, nil)
	if buf == nil {
		return fmt.Errorf("%w: bulk edge endpoint %v", ErrNotFound, primary)
	}
	var view holder.View
	var v *holder.Vertex
	var stored holder.StoredEdges
	err := view.Reset(buf)
	if err == nil {
		v, err = view.DecodeMeta()
	}
	if err == nil {
		stored, err = view.StoredEdges()
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	v.Edges = recs
	stream := holder.EncodeVertexAfter(v, &stored, bs)
	had := len(blocks)
	blocks, tail, err := e.layoutChain(rank, rank, stream, blocks, nil)
	if err != nil {
		for _, got := range blocks[had:] {
			e.store.ReleaseBlock(rank, got)
		}
		return fmt.Errorf("%w: bulk merging %d edge records into %v", err, len(recs), primary)
	}
	e.releaseBlocks(rank, tail)
	for i, dp := range blocks {
		e.store.WriteBlock(rank, dp, stream[i*bs:(i+1)*bs])
	}
	return nil
}
