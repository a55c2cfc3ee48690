package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
)

// VertexHandle is the process-local access object for one vertex within one
// transaction (§3.5: handles hide internal representations and are only
// meaningful on the allocating process). Handles compare equal when they
// refer to the same vertex in the same transaction.
type VertexHandle struct {
	tx *Tx
	st *vertexState
}

// ID returns the vertex's internal ID (its primary-block DPtr).
func (h *VertexHandle) ID() fabric.DPtr { return h.st.primary }

// AppID returns the application-level vertex ID.
func (h *VertexHandle) AppID() uint64 { return h.st.appID() }

// Homes returns the primary blocks the vertex occupied before live migration
// moved it (holder.Vertex.Homes): edge records written before a move still
// name the vertex by one of them. Empty for a vertex that never moved. The
// slice is the handle's own; callers must not modify it.
func (h *VertexHandle) Homes() []fabric.DPtr {
	if h.st.v != nil {
		return h.st.v.Homes
	}
	v, _ := h.st.view.DecodeMeta() // install checked every region it reads
	return v.Homes
}

// Labels returns the vertex's labels (GDI_GetAllLabelsOfVertex). O(|labels|).
func (h *VertexHandle) Labels() []lpg.LabelID {
	var out []lpg.LabelID
	for w := h.st.entries(); w.next(); {
		if w.isLabel {
			out = append(out, w.label)
		}
	}
	return out
}

// HasLabel reports whether the vertex carries label l.
func (h *VertexHandle) HasLabel(l lpg.LabelID) bool {
	for w := h.st.entries(); w.next(); {
		if w.isLabel && w.label == l {
			return true
		}
	}
	return false
}

// AddLabel attaches label l (GDI_AddLabelToVertex). O(1).
func (h *VertexHandle) AddLabel(l lpg.LabelID) error {
	if err := h.tx.check(); err != nil {
		return err
	}
	if _, ok := h.tx.registry().LabelByID(l); !ok {
		return fmt.Errorf("%w: label %d", ErrNotFound, l)
	}
	if h.HasLabel(l) {
		return nil
	}
	if err := h.tx.ensureWrite(h.st); err != nil {
		return err
	}
	h.st.v.Entries, h.st.relabeled = lpg.InsertLabel(h.st.v.Entries, l), true
	return nil
}

// RemoveLabel detaches label l (GDI_RemoveLabelFromVertex).
func (h *VertexHandle) RemoveLabel(l lpg.LabelID) error {
	if err := h.tx.check(); err != nil {
		return err
	}
	if !h.HasLabel(l) {
		return fmt.Errorf("%w: label %d on vertex %v", ErrNotFound, l, h.st.primary)
	}
	if err := h.tx.ensureWrite(h.st); err != nil {
		return err
	}
	h.st.v.Entries, h.st.relabeled = lpg.RemoveLabel(h.st.v.Entries, l), true
	return nil
}

// Properties returns the values of all entries of p-type pt
// (GDI_GetPropertiesOfVertex). O(|props|).
func (h *VertexHandle) Properties(pt lpg.PTypeID) [][]byte {
	var out [][]byte
	for w := h.st.entries(); w.next(); {
		if !w.isLabel && w.prop.PType == pt {
			out = append(out, append([]byte(nil), w.prop.Value...))
		}
	}
	return out
}

// Property returns the single value of p-type pt, or ok=false.
func (h *VertexHandle) Property(pt lpg.PTypeID) ([]byte, bool) {
	val, ok := propertyIn(h.st.entryRegion(), pt)
	return append([]byte(nil), val...), ok
}

// propertyIn returns the value of the first entry of p-type pt in an entry
// region, aliasing the region, or ok=false.
func propertyIn(region []byte, pt lpg.PTypeID) ([]byte, bool) {
	for w := (entryWalk{it: lpg.IterEntries(region)}); w.next(); {
		if !w.isLabel && w.prop.PType == pt {
			return w.prop.Value, true
		}
	}
	return nil, false
}

// PTypes lists the distinct property types present on the vertex
// (GDI_GetAllPropertyTypesOfVertex), in order of first appearance.
func (h *VertexHandle) PTypes() []lpg.PTypeID {
	var out []lpg.PTypeID
	for w := h.st.entries(); w.next(); {
		if !w.isLabel && !slices.Contains(out, w.prop.PType) {
			out = append(out, w.prop.PType)
		}
	}
	return out
}

// entryWalk iterates a vertex state's labels and properties in region
// order, in place on its entry region (entryRegion). A property's Value
// aliases the region.
type entryWalk struct {
	isLabel bool
	label   lpg.LabelID  // the entry, when isLabel
	prop    lpg.Property // the entry, otherwise
	it      lpg.EntryIter
}

// entryRegion returns st's label/property entry region: the view's while st
// is clean, the materialized vertex's own copy, which the mutators edit,
// from then on.
func (st *vertexState) entryRegion() []byte {
	if st.v == nil {
		return st.view.Entries()
	}
	return st.v.Entries
}

// entries starts a walk over st's labels and properties.
func (st *vertexState) entries() entryWalk {
	return entryWalk{it: lpg.IterEntries(st.entryRegion())}
}

// next advances to the next entry: false at the end. install checked the
// region and the mutators keep it well formed, so a walk meets no malformed
// entry.
func (w *entryWalk) next() bool {
	id, payload, ok := w.it.Next()
	if !ok {
		return false
	}
	if w.isLabel = id == lpg.IDLabel; w.isLabel {
		w.label, _ = lpg.EntryLabel(payload)
	} else {
		w.prop = lpg.Property{PType: lpg.PTypeID(id), Value: payload}
	}
	return true
}

func (tx *Tx) validateProp(pt lpg.PTypeID, value []byte, entity lpg.EntityType) (*metadata.PType, error) {
	meta, ok := tx.registry().PTypeByID(pt)
	if !ok {
		return nil, fmt.Errorf("%w: property type %d", ErrNotFound, pt)
	}
	if meta.Entity != lpg.EntityAny && meta.Entity != entity {
		return nil, fmt.Errorf("%w: property type %q not allowed on this entity", ErrBadArgument, meta.Name)
	}
	if err := metadata.ValidateValue(meta, value); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArgument, err)
	}
	return meta, nil
}

// AddProperty attaches a property entry (GDI_AddPropertyToVertex). For
// MultiSingle p-types a second entry is rejected. O(|props|).
func (h *VertexHandle) AddProperty(pt lpg.PTypeID, value []byte) error {
	if err := h.tx.check(); err != nil {
		return err
	}
	meta, err := h.tx.validateProp(pt, value, lpg.EntityVertex)
	if err != nil {
		return err
	}
	if meta.Mult == lpg.MultiSingle {
		if _, exists := h.Property(pt); exists {
			return fmt.Errorf("%w: property %q is single-valued", ErrBadArgument, meta.Name)
		}
	}
	if err := h.tx.ensureWrite(h.st); err != nil {
		return err
	}
	h.st.v.Entries = lpg.AppendPropertyEntry(h.st.v.Entries, pt, value)
	return nil
}

// SetProperty updates (or creates) the single entry of p-type pt
// (GDI_UpdatePropertyOfVertex).
func (h *VertexHandle) SetProperty(pt lpg.PTypeID, value []byte) error {
	if err := h.tx.check(); err != nil {
		return err
	}
	if _, err := h.tx.validateProp(pt, value, lpg.EntityVertex); err != nil {
		return err
	}
	if err := h.tx.ensureWrite(h.st); err != nil {
		return err
	}
	h.st.v.Entries = lpg.SetProperty(h.st.v.Entries, pt, value)
	return nil
}

// RemoveProperties drops all entries of p-type pt
// (GDI_RemovePropertyFromVertex). It reports how many entries were removed.
func (h *VertexHandle) RemoveProperties(pt lpg.PTypeID) (int, error) {
	if err := h.tx.check(); err != nil {
		return 0, err
	}
	n := 0
	for w := h.st.entries(); w.next(); {
		if !w.isLabel && w.prop.PType == pt {
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	// Compact only once the write is granted: a refused one leaves the
	// handle as it was.
	if err := h.tx.ensureWrite(h.st); err != nil {
		return 0, err
	}
	h.st.v.Entries = lpg.RemoveProperties(h.st.v.Entries, pt)
	return n, nil
}

// DirMask selects edge directions in queries.
type DirMask uint8

const (
	// MaskOut selects outgoing edges.
	MaskOut DirMask = 1 << iota
	// MaskIn selects incoming edges.
	MaskIn
	// MaskUndirected selects undirected edges.
	MaskUndirected
	// MaskAll selects every edge.
	MaskAll = MaskOut | MaskIn | MaskUndirected
)

func (m DirMask) matches(d holder.Direction) bool {
	switch d {
	case holder.DirOut:
		return m&MaskOut != 0
	case holder.DirIn:
		return m&MaskIn != 0
	default:
		return m&MaskUndirected != 0
	}
}

// EdgeInfo describes one edge incident to a vertex: what EdgeList.At
// returns. Its fields are ordered widest first so that it packs into 40
// bytes.
type EdgeInfo struct {
	// UID identifies the edge relative to the queried vertex.
	UID holder.EdgeUID
	// Neighbor is the other endpoint's vertex DPtr.
	Neighbor fabric.DPtr
	// Holder is the DPtr of a heavy edge's dedicated holder.
	Holder fabric.DPtr
	// Label is the lightweight label (0 if none). For heavy edges it is the
	// first label of the edge holder.
	Label lpg.LabelID
	// Dir is the direction relative to the queried vertex.
	Dir holder.Direction
	// Heavy marks edges with a dedicated holder.
	Heavy bool
}

// EdgeList is what Edges returns: a vertex's incident edges in record
// order, held the way GDI_GetEdgesOfVertex hands them out — one neighbor
// per edge in a flat array, 8 bytes an edge, plus a table with one entry per
// run of edges that share a direction, a label and consecutive record
// indices. A heavy edge is a run of its own and carries its holder. At
// rebuilds an edge's EdgeInfo from the two. An EdgeList is complete when
// Edges returns and does not alias the transaction's holder. The zero
// EdgeList is empty.
type EdgeList struct {
	vertex fabric.DPtr
	nbrs   []fabric.DPtr
	runs   []edgeRun
}

// edgeRun describes the edges nbrs[at : at+count]: records first through
// first+count-1 of the vertex, all of direction dir and label label.
type edgeRun struct {
	holder fabric.DPtr // a heavy edge's holder
	at     uint32
	first  uint32
	count  uint32
	label  lpg.LabelID
	dir    holder.Direction
	heavy  bool
}

// Len returns the number of edges in the list.
func (l EdgeList) Len() int { return len(l.nbrs) }

// Neighbors returns each edge's neighbor in list order, duplicates
// included. The slice is the list's own; callers must not modify it.
func (l EdgeList) Neighbors() []fabric.DPtr { return l.nbrs }

// At returns the i-th edge, 0 <= i < Len. O(log runs).
func (l EdgeList) At(i int) EdgeInfo {
	r := &l.runs[sort.Search(len(l.runs), func(k int) bool { return int(l.runs[k].at+l.runs[k].count) > i })]
	return EdgeInfo{
		UID:      holder.EdgeUID{Vertex: l.vertex, Index: r.first + uint32(i) - r.at},
		Neighbor: l.nbrs[i],
		Holder:   r.holder,
		Label:    r.label,
		Dir:      r.dir,
		Heavy:    r.heavy,
	}
}

// add appends the edge of record pos: a continuation of the last run when
// both are light, share direction and label and pos follows the run's last
// record, a run of its own otherwise.
func (l *EdgeList) add(pos uint32, nb fabric.DPtr, dir holder.Direction, label lpg.LabelID, heavyHolder fabric.DPtr, heavy bool) {
	if k := len(l.runs) - 1; k >= 0 && !heavy {
		if r := &l.runs[k]; !r.heavy && r.dir == dir && r.label == label && r.first+r.count == pos {
			r.count++
			l.nbrs = append(l.nbrs, nb)
			return
		}
	}
	l.runs = append(l.runs, edgeRun{holder: heavyHolder, at: uint32(len(l.nbrs)), first: pos, count: 1, label: label, dir: dir, heavy: heavy})
	l.nbrs = append(l.nbrs, nb)
}

// Edges lists the vertex's incident edges matching mask and, optionally, a
// constraint over the edges' labels/properties (GDI_GetEdgesOfVertex).
// Lightweight edges evaluate the constraint on their single label without
// any communication; heavy edges fetch their holder. O(deg(v)) plus one
// holder fetch per heavy edge. It walks the records a run at a time — the
// fetched stream in place while the state is clean, its stored runs and
// then its appended tail once it is written: a light run that mask and cons
// select is decoded by StepRun straight into the tail of the neighbor
// array, a run they drop is counted past, and only heavy runs go record by
// record. So a call allocates two objects, the neighbor array and the run
// table, and never materializes the records.
func (h *VertexHandle) Edges(mask DirMask, cons *constraint.Constraint) (EdgeList, error) {
	if err := h.tx.check(); err != nil {
		return EdgeList{}, err
	}
	deg := h.Degree()
	l := EdgeList{vertex: h.st.primary, nbrs: make([]fabric.DPtr, 0, deg), runs: make([]edgeRun, 0, min(deg, 4))}
	pos := uint32(0)
	c := h.st.edges()
	for c.NextRun() {
		switch {
		case !mask.matches(c.Rec.Dir) || !c.Rec.Heavy && !lightMatches(cons, c.Rec.Label):
			for pos++; c.Step(); pos++ {
			}
		case c.Rec.Heavy:
			for ok := true; ok; ok = c.Step() {
				if err := h.appendHeavy(&l, c.Rec, pos, cons); err != nil {
					return EdgeList{}, err
				}
				pos++
			}
		default:
			l.add(pos, c.Rec.Neighbor, c.Rec.Dir, c.Rec.Label, 0, false)
			// The array's capacity bounds the records the cursor yields
			// (Degree), so the tail has room for the rest of the run.
			r := &l.runs[len(l.runs)-1]
			for n := c.StepRun(l.nbrs[len(l.nbrs):cap(l.nbrs)]); n > 0; n = c.StepRun(l.nbrs[len(l.nbrs):cap(l.nbrs)]) {
				l.nbrs = l.nbrs[:len(l.nbrs)+n]
				r.count += uint32(n)
			}
			pos = r.first + r.count
		}
	}
	if err := h.st.viewErr(); err != nil {
		return EdgeList{}, err
	}
	return l, nil
}

// lightMatches reports whether cons, if any, accepts a lightweight edge,
// whose one label is label (0: none).
func lightMatches(cons *constraint.Constraint, label lpg.LabelID) bool {
	switch {
	case cons == nil:
		return true
	case label == 0:
		return cons.Eval(nil, nil)
	}
	return cons.Eval([]lpg.LabelID{label}, nil)
}

// appendHeavy adds to l the edge of heavy record rec, the record at index
// pos, if its holder's labels and properties match cons. A deleted edge
// matches nothing.
func (h *VertexHandle) appendHeavy(l *EdgeList, rec holder.EdgeRec, pos uint32, cons *constraint.Constraint) error {
	nb, e, err := h.tx.farEnd(rec.Neighbor, h.st.isIdentity)
	if err != nil || e == nil || cons != nil && !cons.Eval(e.Labels, e.Props) {
		return err
	}
	label := rec.Label
	if len(e.Labels) > 0 {
		label = e.Labels[0]
	}
	l.add(pos, nb, rec.Dir, label, rec.Neighbor, true)
	return nil
}

// viewErr reports the corruption an edge walk over st's view met as the
// ErrNotFound a corrupt holder has always been. A materialized state's walk
// meets none: materialize validated its stored runs.
func (st *vertexState) viewErr() error {
	if st.view.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w: holder %v: %v", ErrNotFound, st.primary, st.view.Err())
}

// ForEachNeighbor streams the neighbor vertex ID of every incident edge
// record matching mask to fn, in record order and without materializing
// EdgeInfo values — the allocation-free fast path traversal kernels (BFS,
// k-hop) iterate frontiers with. Neighbors are not deduplicated; heavy-edge
// records resolve their holder exactly as Edges does.
func (h *VertexHandle) ForEachNeighbor(mask DirMask, fn func(fabric.DPtr)) error {
	return h.ForEachEdge(mask, func(nb fabric.DPtr, _ holder.Direction) { fn(nb) })
}

// ForEachEdge streams (neighbor, direction) for every incident edge record
// matching mask, in record order and without materializing EdgeInfo values —
// the snapshot path analytics uses to build CSR adjacency without per-vertex
// slice allocations. It walks the records a run at a time, as Edges does.
// Heavy-edge records resolve their holder exactly as Edges does; deleted
// heavy edges are skipped.
func (h *VertexHandle) ForEachEdge(mask DirMask, fn func(nb fabric.DPtr, dir holder.Direction)) error {
	if err := h.tx.check(); err != nil {
		return err
	}
	var nbrs [64]fabric.DPtr
	c := h.st.edges()
	for c.NextRun() {
		dir := c.Rec.Dir
		switch {
		case !mask.matches(dir): // NextRun skips the rest of the run
		case c.Rec.Heavy:
			for ok := true; ok; ok = c.Step() {
				nb, e, err := h.tx.farEnd(c.Rec.Neighbor, h.st.isIdentity)
				if err != nil {
					return err
				}
				if e != nil {
					fn(nb, dir)
				}
			}
		default:
			fn(c.Rec.Neighbor, dir)
			for n := c.StepRun(nbrs[:]); n > 0; n = c.StepRun(nbrs[:]) {
				for _, nb := range nbrs[:n] {
					fn(nb, dir)
				}
			}
		}
	}
	return h.st.viewErr()
}

// CountEdges counts incident edges matching mask
// (the LinkBench "count edges of a vertex" operation). O(deg(v)), no
// communication beyond the holder already fetched. It has no error to
// return: over a corrupt edge region it counts the records ahead of the
// damage, which every error-returning accessor then reports.
func (h *VertexHandle) CountEdges(mask DirMask) int {
	if mask == MaskAll {
		return h.Degree() // a header field on a clean state; no edge-region walk
	}
	n := 0
	c := h.st.edges()
	for c.NextRun() {
		if mask.matches(c.Rec.Dir) {
			for n++; c.Step(); n++ {
			}
		}
	}
	return n
}

// Neighbors returns the distinct neighbor vertex IDs reachable over edges
// matching mask and constraint (GDI_GetNeighborVerticesOfVertex), in order
// of first occurrence. It dedups the neighbor array of Edges' list in place.
func (h *VertexHandle) Neighbors(mask DirMask, cons *constraint.Constraint) ([]fabric.DPtr, error) {
	l, err := h.Edges(mask, cons)
	if err != nil {
		return nil, err
	}
	var seen dptrTable[struct{}]
	seen.reset(len(l.nbrs))
	out, null := l.nbrs[:0], false // NullDPtr is the table's empty slot, so it is counted apart
	for _, nb := range l.nbrs {
		if nb.IsNull() {
			if null {
				continue
			}
			null = true
		} else if _, dup := seen.getOrPut(nb, struct{}{}); dup {
			continue
		}
		out = append(out, nb)
	}
	return out, nil
}

// Degree returns the total number of incident edge records. For a clean
// state it is a header read — no edge region is touched — bounded by the
// bytes the edge region has (holder.View.EdgeCap), so a corrupt header's
// count cannot size a caller's buffer beyond the stream.
func (h *VertexHandle) Degree() int { return h.st.degree() }

// CreateEdge adds a lightweight edge (§5.4.2: at most one label, no
// properties) between two vertices. A record is stored in both endpoint
// holders so that incoming and undirected queries stay O(1); the returned
// UID is relative to the origin. O(1) holder updates on both endpoints.
func (tx *Tx) CreateEdge(origin, target fabric.DPtr, dir holder.Direction, label lpg.LabelID) (holder.EdgeUID, error) {
	if err := tx.check(); err != nil {
		return holder.EdgeUID{}, err
	}
	if dir == holder.DirIn {
		return holder.EdgeUID{}, fmt.Errorf("%w: create edges as DirOut or DirUndirected from the origin", ErrBadArgument)
	}
	oh, tf, err := tx.associateEndpoints(origin, target)
	if err != nil {
		return holder.EdgeUID{}, err
	}
	// The records go to v.Edges, the tail behind the stored runs.
	uid := holder.EdgeUID{Vertex: origin, Index: uint32(oh.st.degree())}
	if origin == target { // self-loop: both records in one holder
		oh.st.v.Edges = append(oh.st.v.Edges, holder.EdgeRec{Neighbor: target, Dir: dir, Label: label})
		if dir == holder.DirOut {
			oh.st.v.Edges = append(oh.st.v.Edges, holder.EdgeRec{Neighbor: origin, Dir: holder.DirIn, Label: label})
		}
		return uid, nil
	}
	th, err := tx.writableEndpoint(tf)
	if err != nil {
		return holder.EdgeUID{}, err
	}
	oh.st.v.Edges = append(oh.st.v.Edges, holder.EdgeRec{Neighbor: target, Dir: dir, Label: label})
	back := holder.DirIn
	if dir == holder.DirUndirected {
		back = holder.DirUndirected
	}
	th.st.v.Edges = append(th.st.v.Edges, holder.EdgeRec{Neighbor: origin, Dir: back, Label: label})
	return uid, nil
}

// CreateRichEdge adds a heavy edge carrying arbitrary labels and properties
// in a dedicated edge holder. O(1) holder updates plus one holder creation.
func (tx *Tx) CreateRichEdge(origin, target fabric.DPtr, dir holder.Direction, labels []lpg.LabelID, props []lpg.Property) (holder.EdgeUID, error) {
	if err := tx.check(); err != nil {
		return holder.EdgeUID{}, err
	}
	if tx.mode == ReadOnly {
		return holder.EdgeUID{}, ErrReadOnly
	}
	if dir == holder.DirIn {
		return holder.EdgeUID{}, fmt.Errorf("%w: create edges as DirOut or DirUndirected from the origin", ErrBadArgument)
	}
	for _, p := range props {
		if _, err := tx.validateProp(p.PType, p.Value, lpg.EntityEdge); err != nil {
			return holder.EdgeUID{}, err
		}
	}
	oh, tf, err := tx.associateEndpoints(origin, target)
	if err != nil {
		return holder.EdgeUID{}, err
	}
	// The edge holder lives on the origin's rank.
	hp, err := tx.eng.store.AcquireBlock(tx.rank, origin.Rank())
	if err != nil {
		return holder.EdgeUID{}, tx.fail(ErrNoMemory)
	}
	es := &edgeState{
		primary: hp,
		e: &holder.Edge{
			Origin: origin, Target: target, Dir: dir,
			Labels: append([]lpg.LabelID(nil), labels...),
			Props:  clonedProps(props),
		},
		isNew: true,
		dirty: true,
	}
	tx.addEdgeState(es)
	uid := holder.EdgeUID{Vertex: origin, Index: uint32(oh.st.degree())}
	oh.st.v.Edges = append(oh.st.v.Edges, holder.EdgeRec{Neighbor: hp, Dir: dir, Heavy: true})
	if origin != target {
		th, err := tx.writableEndpoint(tf)
		if err != nil {
			return holder.EdgeUID{}, err
		}
		back := holder.DirIn
		if dir == holder.DirUndirected {
			back = holder.DirUndirected
		}
		th.st.v.Edges = append(th.st.v.Edges, holder.EdgeRec{Neighbor: hp, Dir: back, Heavy: true})
	}
	return uid, nil
}

// associateEndpoints associates both endpoints of a new edge in one flush —
// two cold endpoints share one lock train and one GET train per owner rank —
// and makes the origin writable. The target's future is left for
// writableEndpoint, so an origin error still comes first.
func (tx *Tx) associateEndpoints(origin, target fabric.DPtr) (*VertexHandle, *VertexFuture, error) {
	of, tf := tx.AssociateVertexAsync(origin), tx.AssociateVertexAsync(target)
	oh, err := tx.writableEndpoint(of)
	return oh, tf, err
}

// writableEndpoint waits for an endpoint's association and makes it writable.
func (tx *Tx) writableEndpoint(f *VertexFuture) (*VertexHandle, error) {
	h, err := f.Wait()
	if err != nil {
		return nil, err
	}
	if err := tx.ensureWrite(h.st); err != nil {
		return nil, err
	}
	return h, nil
}

func clonedProps(props []lpg.Property) []lpg.Property {
	out := make([]lpg.Property, len(props))
	for i, p := range props {
		out[i] = lpg.Property{PType: p.PType, Value: append([]byte(nil), p.Value...)}
	}
	return out
}

// DeleteEdge removes the edge identified by uid, updating both endpoint
// holders (and releasing the edge holder for heavy edges). O(deg) scan at
// the sibling endpoint.
func (tx *Tx) DeleteEdge(uid holder.EdgeUID) error {
	if err := tx.check(); err != nil {
		return err
	}
	if tx.mode == ReadOnly {
		return ErrReadOnly
	}
	vh, err := tx.AssociateVertex(uid.Vertex)
	if err != nil {
		return err
	}
	// A refused delete leaves a clean state clean: the bound is the header's
	// degree, and only a delete that goes ahead decodes the records.
	if int(uid.Index) >= vh.st.degree() {
		return fmt.Errorf("%w: edge %v/%d", ErrNotFound, uid.Vertex, uid.Index)
	}
	if err := vh.st.fold(); err != nil { // the UID indexes the record slice
		return err
	}
	if err := tx.ensureWrite(vh.st); err != nil {
		return err
	}
	rec := vh.st.v.Edges[uid.Index]
	vh.st.v.Edges = append(vh.st.v.Edges[:uid.Index], vh.st.v.Edges[uid.Index+1:]...)
	if rec.Heavy {
		other, e, err := tx.farEnd(rec.Neighbor, vh.st.isIdentity)
		if err != nil {
			return err
		}
		if e != nil && !vh.st.isIdentity(other) {
			if err := tx.removeRecord(other, matchHeavySibling(rec.Neighbor)); err != nil {
				return err
			}
		}
		return tx.dropEdgeHolder(rec.Neighbor)
	}
	if vh.st.isIdentity(rec.Neighbor) {
		// Self-loop: drop the sibling record in the same holder.
		vh.st.v.Edges = removeFirstMatch(vh.st.v.Edges, matchLightSibling(vh.st))
		return nil
	}
	return tx.removeRecord(rec.Neighbor, matchLightSibling(vh.st))
}

// matchLightSibling matches a lightweight record pointing at the given
// vertex under any identity it has had (records written before a live
// migration carry an old primary).
func matchLightSibling(st *vertexState) func(holder.EdgeRec) bool {
	return func(r holder.EdgeRec) bool {
		return !r.Heavy && st.isIdentity(r.Neighbor)
	}
}

// matchHeavySibling matches the record of the heavy edge whose holder is
// hp: heavy sibling records point at the edge holder, which never migrates,
// so it is matched exactly.
func matchHeavySibling(hp fabric.DPtr) func(holder.EdgeRec) bool {
	return func(r holder.EdgeRec) bool { return r.Heavy && r.Neighbor == hp }
}

// removeRecord drops the first record at vertex `at` accepted by match.
func (tx *Tx) removeRecord(at fabric.DPtr, match func(holder.EdgeRec) bool) error {
	h, err := tx.AssociateVertex(at)
	if err != nil {
		return err
	}
	if err := h.st.fold(); err != nil {
		return err
	}
	if err := tx.ensureWrite(h.st); err != nil {
		return err
	}
	before := len(h.st.v.Edges)
	h.st.v.Edges = removeFirstMatch(h.st.v.Edges, match)
	if len(h.st.v.Edges) == before {
		return fmt.Errorf("%w: sibling edge record at %v", ErrNotFound, at)
	}
	return nil
}

func removeFirstMatch(recs []holder.EdgeRec, match func(holder.EdgeRec) bool) []holder.EdgeRec {
	for i, r := range recs {
		if match(r) {
			return append(recs[:i], recs[i+1:]...)
		}
	}
	return recs
}

// EdgeHandle is the access object for one heavy edge.
type EdgeHandle struct {
	tx *Tx
	es *edgeState
}

// AssociateEdgeHolder opens a handle on a heavy edge's holder
// (GDI_AssociateEdge for rich edges).
func (tx *Tx) AssociateEdgeHolder(dp fabric.DPtr) (*EdgeHandle, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	es, err := tx.fetchEdgeState(dp)
	if err != nil {
		return nil, err
	}
	if es.deleted {
		return nil, fmt.Errorf("%w: edge holder %v deleted in this transaction", ErrNotFound, dp)
	}
	return &EdgeHandle{tx: tx, es: es}, nil
}

// Vertices returns the edge's endpoints (GDI_GetVerticesOfEdge).
func (h *EdgeHandle) Vertices() (origin, target fabric.DPtr) { return h.es.e.Origin, h.es.e.Target }

// Dir returns the edge's direction.
func (h *EdgeHandle) Dir() holder.Direction { return h.es.e.Dir }

// Labels returns the edge's labels (GDI_GetAllLabelsOfEdge).
func (h *EdgeHandle) Labels() []lpg.LabelID {
	return append([]lpg.LabelID(nil), h.es.e.Labels...)
}

// AddLabel attaches a label to the edge.
func (h *EdgeHandle) AddLabel(l lpg.LabelID) error {
	if err := h.tx.check(); err != nil {
		return err
	}
	if h.tx.mode == ReadOnly {
		return ErrReadOnly
	}
	if _, ok := h.tx.registry().LabelByID(l); !ok {
		return fmt.Errorf("%w: label %d", ErrNotFound, l)
	}
	for _, x := range h.es.e.Labels {
		if x == l {
			return nil
		}
	}
	h.es.e.Labels = append(h.es.e.Labels, l)
	h.es.dirty = true
	return nil
}

// Properties returns the values of all entries of p-type pt on the edge.
func (h *EdgeHandle) Properties(pt lpg.PTypeID) [][]byte {
	var out [][]byte
	for _, p := range h.es.e.Props {
		if p.PType == pt {
			out = append(out, append([]byte(nil), p.Value...))
		}
	}
	return out
}

// SetProperty updates (or creates) the single entry of p-type pt on the edge.
func (h *EdgeHandle) SetProperty(pt lpg.PTypeID, value []byte) error {
	if err := h.tx.check(); err != nil {
		return err
	}
	if h.tx.mode == ReadOnly {
		return ErrReadOnly
	}
	if _, err := h.tx.validateProp(pt, value, lpg.EntityEdge); err != nil {
		return err
	}
	for i, p := range h.es.e.Props {
		if p.PType == pt {
			h.es.e.Props[i].Value = append([]byte(nil), value...)
			h.es.dirty = true
			return nil
		}
	}
	h.es.e.Props = append(h.es.e.Props, lpg.Property{PType: pt, Value: append([]byte(nil), value...)})
	h.es.dirty = true
	return nil
}
