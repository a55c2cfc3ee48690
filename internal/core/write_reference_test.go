package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
	"github.com/gdi-go/gdi/internal/rma"
)

// splitEntries decodes an entry region into its labels and properties, each
// kind in region order, with the property values copied out.
func splitEntries(region []byte) (labels []lpg.LabelID, props []lpg.Property, err error) {
	if err := lpg.CheckEntries(region); err != nil {
		return nil, nil, err
	}
	it := lpg.IterEntries(region)
	for id, payload, ok := it.Next(); ok; id, payload, ok = it.Next() {
		if id == lpg.IDLabel {
			l, _ := lpg.EntryLabel(payload)
			labels = append(labels, l)
		} else {
			props = append(props, lpg.Property{PType: lpg.PTypeID(id), Value: append([]byte(nil), payload...)})
		}
	}
	return labels, props, nil
}

// refVertex is a vertex in the decoded form the write path used before a
// write kept its holder encoded: labels, properties and every record.
type refVertex struct {
	v      *holder.Vertex // AppID, Homes, Replicas, IsReplica; Edges holds every record
	labels []lpg.LabelID
	props  []lpg.Property
}

// referenceDecode decodes a stored stream whole.
func referenceDecode(stream []byte) (*refVertex, error) {
	v, err := holder.DecodeVertex(stream)
	if err != nil {
		return nil, err
	}
	r := &refVertex{v: v}
	r.labels, r.props, err = splitEntries(v.Entries)
	return r, err
}

// referenceEncode is the other half of that write path: the decoded vertex
// encoded whole by EncodeVertex, its replica groups stripped when the
// encoding no longer fits the stored chain of oldBlocks blocks, as a commit
// strips them on a reshape.
func referenceEncode(r *refVertex, oldBlocks, bs int) []byte {
	v := *r.v
	v.Entries = lpg.EncodeEntries(r.labels, r.props)
	if len(v.Replicas) > 0 && holder.VertexBlocks(&v, bs) != oldBlocks {
		v.Replicas = nil
	}
	return holder.EncodeVertex(&v, bs)
}

// writeOp is one mutation of a FuzzWriteMatchesReference script, applied to
// the stored vertex through a transaction and to its decoded form.
type writeOp struct {
	kind  int // 0 AddLabel, 1 RemoveLabel, 2 AddProperty, 3 SetProperty, 4 RemoveProperties, 5 CreateEdge, 6 DeleteEdge, 7 DeleteVertex of a neighbour
	arg   int
	value []byte
	dir   holder.Direction // CreateEdge: DirOut or DirUndirected, from the origin
	out   bool             // CreateEdge: the stored vertex is the origin
}

// writeWorld is the engine a script runs in: the stored vertex v on rank 0,
// its light records' neighbours nbrs on rank 1, each holding the sibling
// records, the edge holders its heavy records name, on rank 1 too, the
// labels and property types the fuzz input draws from.
type writeWorld struct {
	e      *Engine
	bs     int
	v      fabric.DPtr
	nbrs   []fabric.DPtr
	heavy  map[fabric.DPtr]*holder.Edge // by holder; its far end from v is not v
	gone   map[fabric.DPtr]bool         // the neighbours the script deleted
	labels []lpg.LabelID
	ptypes []lpg.PTypeID
	raw    bool // the stored entry region is raw fuzz bytes
}

// fuzzBytes hands out fuzz input a byte at a time, zeros once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int(x)
}

// newWriteWorld builds the stored vertex from fuzz input: up to 4 labels
// and 13 properties (or, with a flag set, whatever raw bytes of the input
// form a valid entry region), light runs to the 4 neighbours and heavy runs
// to 4 edge holders, up to 2 homes, and a replica group on rank 1 when the
// flags ask for one. Its records are in EncodeVertex's form; the
// neighbours hold a sibling record for each light one. Edge holder k joins
// v to a vertex nobody reads, v being its origin for an even k and its
// target for an odd one, and carries label k for k < 2.
func newWriteWorld(t *testing.T, in *fuzzBytes) (*writeWorld, bool) {
	t.Helper()
	flags := in.next()
	w := &writeWorld{bs: 64 << (flags % 3)}
	w.e = NewEngine(rma.New(2), Config{BlockSize: w.bs, BlocksPerRank: 1 << 10, LockTries: 64})
	for i := range 4 {
		l, err := w.e.DefineLabel(fmt.Sprint("L", i))
		if err != nil {
			t.Fatal(err)
		}
		w.labels = append(w.labels, l)
	}
	for i := range 13 {
		pt, err := w.e.DefinePType(fmt.Sprint("p", i), metadata.PTypeSpec{Datatype: lpg.TypeBytes, Mult: lpg.MultiMany})
		if err != nil {
			t.Fatal(err)
		}
		w.ptypes = append(w.ptypes, pt)
	}
	acquire := func(r fabric.Rank) fabric.DPtr {
		dp, err := w.e.store.AcquireBlock(0, r)
		if err != nil {
			t.Fatal(err)
		}
		return dp
	}
	w.v = acquire(0)
	for range 4 {
		w.nbrs = append(w.nbrs, acquire(1))
	}
	var holders []fabric.DPtr
	w.heavy, w.gone = make(map[fabric.DPtr]*holder.Edge), make(map[fabric.DPtr]bool)
	for k := range 4 {
		hp, e := acquire(1), &holder.Edge{Origin: w.v, Target: rma.MakeDPtr(1, uint64(900+k)), Dir: holder.DirOut}
		if k%2 == 1 {
			e.Origin, e.Target = e.Target, e.Origin
		}
		if k < 2 {
			e.Labels = []lpg.LabelID{w.labels[k]}
		}
		holders, w.heavy[hp] = append(holders, hp), e
	}

	v := &holder.Vertex{AppID: 7}
	if flags&8 != 0 {
		n := in.next() % 48
		raw := []byte(*in)[:min(n, len(*in))]
		*in = (*in)[len(raw):]
		// EncodeEntries, which the reference encodes with, takes no
		// property ID below the dynamic range but the predefined two.
		_, props, err := splitEntries(raw)
		if err != nil || slices.ContainsFunc(props, func(p lpg.Property) bool {
			return uint32(p.PType) < lpg.FirstDynamicID && p.PType != lpg.PTypeDegree && p.PType != lpg.PTypeAppID
		}) {
			return nil, false
		}
		v.Entries, w.raw = append([]byte(nil), raw...), true
	} else {
		var labels []lpg.LabelID
		var props []lpg.Property
		for range in.next() % 5 {
			labels = append(labels, w.labels[in.next()%4])
		}
		for range in.next() % 14 {
			pt := w.ptypes[in.next()%13]
			props = append(props, lpg.Property{PType: pt, Value: bytes.Repeat([]byte{byte(in.next())}, in.next()%24)})
		}
		v.Entries = lpg.EncodeEntries(labels, props)
	}
	for range in.next() % 6 {
		dir, label := holder.Direction(in.next()%3), lpg.LabelID(0)
		if x := in.next(); x%3 > 0 {
			label = w.labels[x%4]
		}
		heavy := in.next()%4 == 0
		for range 1 + in.next()%20 {
			rec := holder.EdgeRec{Neighbor: w.nbrs[in.next()%4], Dir: dir, Label: label}
			if heavy {
				rec = holder.EdgeRec{Neighbor: holders[in.next()%4], Dir: dir, Heavy: true}
			}
			v.Edges = append(v.Edges, rec)
		}
	}
	for i := range in.next() % 3 {
		v.Homes = append(v.Homes, rma.MakeDPtr(1, uint64(800+i)))
	}
	chain := func(r fabric.Rank, stream []byte, head fabric.DPtr) []fabric.DPtr {
		blocks, _, err := w.e.layoutChain(0, r, stream, []fabric.DPtr{head}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	if flags&16 != 0 {
		// The group has one block per block of the holder, which its own
		// DPtrs may grow.
		group := []fabric.DPtr{acquire(1)}
		for {
			v.Replicas = [][]fabric.DPtr{group}
			n := holder.VertexBlocks(v, w.bs)
			if n == len(group) {
				break
			}
			for len(group) < n {
				group = append(group, acquire(1))
			}
			group = group[:n]
		}
	}
	stream := holder.EncodeVertex(v, w.bs)
	var wl writeList
	wl.appendChainWrites(stream, chain(0, stream, w.v), v.Replicas, w.bs)
	for i, nb := range w.nbrs {
		n := &holder.Vertex{AppID: uint64(100 + i)}
		for _, rec := range v.Edges {
			if !rec.Heavy && rec.Neighbor == nb {
				n.Edges = append(n.Edges, holder.EdgeRec{Neighbor: w.v, Dir: reverse(rec.Dir), Label: rec.Label})
			}
		}
		s := holder.EncodeVertex(n, w.bs)
		wl.appendChainWrites(s, chain(1, s, nb), nil, w.bs)
	}
	for hp, e := range w.heavy {
		s := holder.EncodeEdge(e, w.bs)
		wl.appendChainWrites(s, chain(1, s, hp), nil, w.bs)
	}
	w.e.store.WriteBlocksBatch(0, wl.dps, wl.data)
	return w, true
}

// reverse is the direction of an edge's record at its other endpoint.
func reverse(d holder.Direction) holder.Direction {
	switch d {
	case holder.DirOut:
		return holder.DirIn
	case holder.DirIn:
		return holder.DirOut
	}
	return d
}

// readScript decodes up to 12 ops from fuzz input.
func readScript(in *fuzzBytes) []writeOp {
	var ops []writeOp
	for len(*in) > 0 && len(ops) < 12 {
		op := writeOp{kind: in.next() % 8, arg: in.next()}
		switch op.kind {
		case 2, 3:
			op.value = bytes.Repeat([]byte{byte(in.next())}, in.next()%24)
		case 5:
			x := in.next()
			op.out, op.dir = x&1 == 0, holder.DirOut
			if x&2 != 0 {
				op.dir = holder.DirUndirected
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// applyReference applies op to the decoded vertex and reports whether it
// changes anything an engine call would accept: an op the engine refuses
// (removing an absent label, an edge to a deleted neighbour, deleting it
// again) or skips (deleting a heavy record, which this script leaves alone)
// is false.
func (w *writeWorld) applyReference(r *refVertex, op writeOp) bool {
	switch op.kind {
	case 0:
		if l := w.labels[op.arg%4]; !slices.Contains(r.labels, l) {
			r.labels = append(r.labels, l)
		}
	case 1:
		i := slices.Index(r.labels, w.labels[op.arg%4])
		if i < 0 {
			return false
		}
		r.labels = slices.Delete(r.labels, i, i+1)
	case 2:
		r.props = append(r.props, lpg.Property{PType: w.ptypes[op.arg%13], Value: op.value})
	case 3:
		pt := w.ptypes[op.arg%13]
		if i := slices.IndexFunc(r.props, func(p lpg.Property) bool { return p.PType == pt }); i >= 0 {
			r.props[i].Value = op.value
		} else {
			r.props = append(r.props, lpg.Property{PType: pt, Value: op.value})
		}
	case 4:
		pt := w.ptypes[op.arg%13]
		r.props = slices.DeleteFunc(r.props, func(p lpg.Property) bool { return p.PType == pt })
	case 5:
		rec := holder.EdgeRec{Neighbor: w.nbrs[op.arg%4], Dir: op.dir, Label: w.labels[op.arg/4%4]}
		if w.gone[rec.Neighbor] {
			return false
		}
		if !op.out {
			rec.Dir = reverse(op.dir)
		}
		r.v.Edges = append(r.v.Edges, rec)
	case 6:
		if len(r.v.Edges) == 0 || r.v.Edges[op.arg%len(r.v.Edges)].Heavy {
			return false
		}
		r.v.Edges = slices.Delete(r.v.Edges, op.arg%len(r.v.Edges), op.arg%len(r.v.Edges)+1)
	case 7:
		nb := w.nbrs[op.arg%4]
		if w.gone[nb] {
			return false
		}
		w.gone[nb] = true
		r.v.Edges = slices.DeleteFunc(r.v.Edges, func(r holder.EdgeRec) bool { return !r.Heavy && r.Neighbor == nb })
	}
	return true
}

// applyEngine applies op through tx to the stored vertex, whose record
// count the reference knows as degree and whose record idx (op 6) it knows
// as rec.
func (w *writeWorld) applyEngine(tx *Tx, op writeOp, degree int, rec holder.EdgeRec) error {
	h, err := tx.AssociateVertex(w.v)
	if err != nil {
		return err
	}
	switch op.kind {
	case 0:
		return h.AddLabel(w.labels[op.arg%4])
	case 1:
		return h.RemoveLabel(w.labels[op.arg%4])
	case 2:
		return h.AddProperty(w.ptypes[op.arg%13], op.value)
	case 3:
		return h.SetProperty(w.ptypes[op.arg%13], op.value)
	case 4:
		_, err := h.RemoveProperties(w.ptypes[op.arg%13])
		return err
	case 5:
		o, t := w.v, w.nbrs[op.arg%4]
		if !op.out {
			o, t = t, o
		}
		_, err := tx.CreateEdge(o, t, op.dir, w.labels[op.arg/4%4])
		return err
	case 7:
		return tx.DeleteVertex(w.nbrs[op.arg%4])
	}
	if degree == 0 || rec.Heavy {
		return errSkipped
	}
	return tx.DeleteEdge(holder.EdgeUID{Vertex: w.v, Index: uint32(op.arg % degree)})
}

var errSkipped = errors.New("skipped")

// checkReads holds the engine's reads of v inside tx to recs, the
// reference's records: Degree, and under every direction mask CountEdges,
// ForEachEdge, and Edges and Neighbors without a constraint and with
// labelled, which asks for label. A heavy record's edge is its holder's:
// its far end, and its label if it has one. No edge has more than one
// label, so labelled keeps the edges whose label is label.
func (w *writeWorld) checkReads(t *testing.T, tx *Tx, recs []holder.EdgeRec, labelled *constraint.Constraint, label lpg.LabelID) {
	t.Helper()
	h, err := tx.AssociateVertex(w.v)
	if err != nil {
		t.Fatal(err)
	}
	if d := h.Degree(); d != len(recs) {
		t.Fatalf("Degree %d, the reference has %d records", d, len(recs))
	}
	for mask := DirMask(0); mask <= MaskAll; mask++ {
		var all []EdgeInfo
		var visits []edgeVisit
		for i, r := range recs {
			if !mask.matches(r.Dir) {
				continue
			}
			e := EdgeInfo{UID: holder.EdgeUID{Vertex: w.v, Index: uint32(i)}, Neighbor: r.Neighbor, Label: r.Label, Dir: r.Dir, Heavy: r.Heavy}
			if r.Heavy {
				eh := w.heavy[r.Neighbor]
				if e.Holder, e.Neighbor = r.Neighbor, eh.Target; eh.Target == w.v {
					e.Neighbor = eh.Origin
				}
				if len(eh.Labels) > 0 {
					e.Label = eh.Labels[0]
				}
			}
			all, visits = append(all, e), append(visits, edgeVisit{e.Neighbor, e.Dir})
		}
		if n := h.CountEdges(mask); n != len(all) {
			t.Fatalf("mask %b: CountEdges %d, the reference %d", mask, n, len(all))
		}
		var got []edgeVisit
		err := h.ForEachEdge(mask, func(nb fabric.DPtr, dir holder.Direction) { got = append(got, edgeVisit{nb, dir}) })
		if err != nil || !slices.Equal(got, visits) {
			t.Fatalf("mask %b: ForEachEdge %v, %v; the reference %v", mask, got, err, visits)
		}
		for _, cons := range []*constraint.Constraint{nil, labelled} {
			want := all
			if cons != nil {
				want = slices.DeleteFunc(slices.Clone(all), func(e EdgeInfo) bool { return e.Label != label })
			}
			l, err := h.Edges(mask, cons)
			if err != nil || !slices.Equal(infosOf(l), want) {
				t.Fatalf("mask %b, constraint %v: Edges %+v, %v; the reference %+v", mask, cons != nil, infosOf(l), err, want)
			}
			var nbrs, distinct []fabric.DPtr
			for _, e := range want {
				nbrs = append(nbrs, e.Neighbor)
				if !slices.Contains(distinct, e.Neighbor) {
					distinct = append(distinct, e.Neighbor)
				}
			}
			if !slices.Equal(l.Neighbors(), nbrs) {
				t.Fatalf("mask %b, constraint %v: EdgeList.Neighbors %v, the reference %v", mask, cons != nil, l.Neighbors(), nbrs)
			}
			if got, err := h.Neighbors(mask, cons); err != nil || !slices.Equal(got, distinct) {
				t.Fatalf("mask %b, constraint %v: Neighbors %v, %v; the reference %v", mask, cons != nil, got, err, distinct)
			}
		}
	}
}

// FuzzWriteMatchesReference is the oracle of the write path, which keeps a
// vertex encoded from read to write-back: labels and properties as the
// entry region the mutators splice, the stored edge runs copied with the
// appended tail behind them, records decoded only by a removal (fold). A
// fuzzed stored vertex — labels, up to 13 properties, light and heavy edge
// runs, homes, a replica group — takes a fuzzed script of AddLabel,
// RemoveLabel, AddProperty, SetProperty, RemoveProperties, CreateEdge
// (either endpoint the origin), DeleteEdge and DeleteVertex of a neighbour
// (which removes its sibling records from the vertex) in one transaction
// that commits, and the stream it writes must be referenceEncode's: the
// same script applied to the vertex decoded whole, encoded whole. Every op
// the reference refuses the engine must refuse, and the reverse. Before
// the first op and after every op, the transaction's edge reads of the
// vertex — clean, then its stored runs and appended tail, then folded —
// must answer what the reference's record list does (checkReads). The
// block table is compared
// apart from the content: it names whatever blocks layout took. A stored
// entry region of arbitrary bytes (any valid region: labels among the
// properties, non-minimal varints) keeps its own order under the splices,
// so there the written labels, properties and records are compared with
// the reference's instead of the bytes.
func FuzzWriteMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	// Appends that continue the stored last run (DirOut, the second label),
	// and then a run of their own; the second one takes the run's header
	// from 15 records, one byte, to 17, two.
	f.Add([]byte{0, 0, 0, 1, 0, 1, 1, 2, 0, 1, 2, 0, 5, 4, 0, 5, 5, 0, 5, 9, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 1, 14, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 0, 5, 4, 0, 5, 5, 0, 3, 2, 1, 4})
	// The same over a replica group at 128-byte blocks, then a DeleteEdge
	// of an appended record, which decodes the stored ones.
	f.Add([]byte{16, 1, 2, 1, 5, 1, 1, 7, 1, 3, 0, 1, 2, 3, 0, 1, 2, 1, 5, 7, 0, 5, 4, 1, 6, 8, 2, 6, 1, 0})
	f.Add([]byte{0, 2, 0, 1, 3, 0, 5, 1, 2, 3, 0, 1, 2, 1, 0, 1, 0, 5, 1, 0, 6, 2, 5, 7, 0})
	f.Add([]byte{1, 1, 3, 4, 0, 1, 7, 2, 3, 20, 2, 3, 3, 1, 0, 0, 12, 1, 2, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 1, 3, 5, 9, 0, 3, 4, 9, 30, 6, 200, 3, 1, 5, 11, 2})
	f.Add([]byte{16, 2, 1, 2, 13, 0, 3, 9, 1, 4, 16, 2, 1, 1, 0, 1, 2, 3, 0, 0, 1, 2, 0, 9, 7, 0, 1, 3, 16, 1, 1, 5, 4, 0, 5, 0, 3, 4, 6, 1, 2, 3})
	f.Add([]byte{18, 0, 3, 5, 0, 5, 3, 19, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 2, 5, 4, 1, 5, 8, 0, 5, 12, 2, 6, 40, 6, 0})
	f.Add([]byte{8, 9, 3, 2, 1, 16, 4, 1, 2, 3, 4, 2, 1, 17, 1, 2, 1, 3, 0, 1, 5, 2, 1, 2, 5, 3, 1, 0, 2, 1, 3, 4, 5, 6, 0, 2})
	f.Add([]byte{17, 1, 1, 2, 2, 2, 5, 1, 4, 1, 0, 3, 15, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 1, 1, 5, 6, 1, 5, 7, 0, 5, 1, 2, 6, 3, 3, 2, 9, 9})
	// A light DirOut run to the four neighbours and a heavy DirIn run to
	// edge holders 0 and 1, then: appends read behind the stored runs; a
	// DeleteEdge, reads of the folded records, and appends after it; an
	// append and a DeleteVertex of its neighbour, which takes the stored and
	// the appended record to it, then an edge to it and its deletion again,
	// both refused; a DeleteVertex of a neighbour of the clean vertex.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 3, 0, 1, 2, 3, 1, 0, 0, 1, 0, 0, 0, 1, 1, 5, 4, 0, 5, 1, 0, 5, 6, 3})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 3, 0, 1, 2, 3, 1, 0, 0, 1, 0, 0, 0, 1, 1, 6, 2, 5, 4, 0, 5, 9, 1, 6, 7})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 3, 0, 1, 2, 3, 1, 0, 0, 1, 0, 0, 0, 1, 1, 5, 4, 0, 7, 0, 5, 0, 0, 7, 4, 7, 1, 5, 2, 0})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 3, 0, 1, 2, 3, 1, 0, 0, 1, 0, 0, 0, 1, 1, 7, 3, 5, 3, 0, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		w, ok := newWriteWorld(t, &in)
		if !ok {
			return
		}
		stored, _ := w.e.readChain(0, w.v, nil)
		oldBlocks := holder.NumBlocks(stored)
		ref, err := referenceDecode(stored)
		if err != nil {
			t.Fatal(err)
		}
		label := w.labels[1]
		labelled := &constraint.Constraint{}
		labelled.AddLabelCond(labelled.AddSubconstraint(constraint.Subconstraint{}), constraint.LabelCond{Label: label})
		tx := w.e.StartLocal(0, ReadWrite)
		w.checkReads(t, tx, ref.v.Edges, labelled, label)
		for i, op := range readScript(&in) {
			degree := len(ref.v.Edges)
			var rec holder.EdgeRec
			if degree > 0 {
				rec = ref.v.Edges[op.arg%degree]
			}
			want := w.applyReference(ref, op)
			if err := w.applyEngine(tx, op, degree, rec); (err == nil) != want {
				t.Fatalf("op %d %+v: engine error %v, the reference accepts it: %v", i, op, err, want)
			}
			w.checkReads(t, tx, ref.v.Edges, labelled, label)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		got, _ := w.e.readChain(0, w.v, nil)
		if !w.raw {
			want := referenceEncode(ref, oldBlocks, w.bs)
			nb := holder.NumBlocks(want)
			if holder.NumBlocks(got) != nb {
				t.Fatalf("wrote %d blocks, the reference %d", holder.NumBlocks(got), nb)
			}
			if table := holder.TableEntryOffset(nb - 1); !bytes.Equal(got[:holder.HeaderSize], want[:holder.HeaderSize]) || !bytes.Equal(got[table:], want[table:]) {
				t.Fatalf("the written stream differs from the reference's:\n got %v\nwant %v", got, want)
			}
			return
		}
		dec, err := referenceDecode(got)
		if err != nil {
			t.Fatalf("the written stream: %v", err)
		}
		if dec.v.AppID != ref.v.AppID || !slices.Equal(dec.v.Homes, ref.v.Homes) {
			t.Errorf("app %d, homes %v; the reference app %d, homes %v", dec.v.AppID, dec.v.Homes, ref.v.AppID, ref.v.Homes)
		}
		if !slices.Equal(dec.labels, ref.labels) {
			t.Errorf("labels %v, the reference %v", dec.labels, ref.labels)
		}
		if !slices.EqualFunc(dec.props, ref.props, func(a, b lpg.Property) bool {
			return a.PType == b.PType && bytes.Equal(a.Value, b.Value)
		}) {
			t.Errorf("properties %v, the reference %v", dec.props, ref.props)
		}
		if !slices.Equal(dec.v.Edges, ref.v.Edges) {
			t.Errorf("records %v, the reference %v", dec.v.Edges, ref.v.Edges)
		}
	})
}
