package core

import (
	"errors"
	"slices"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// The record-at-a-time formulation of Edges, Neighbors and ForEachEdge: one
// EdgeInfo built per edge, a map dedup, one record walk. They were the
// implementation before EdgeList and stay here as the oracles the run
// walks are held to (checkEdges).

// oracleRecords returns st's records one at a time, without the cursor's
// tail: the view's through Next while st is clean, and once it is written
// its stored records, which the view still holds, decoded ahead of v.Edges.
// err is the corruption a clean walk met.
func oracleRecords(st *vertexState) ([]holder.EdgeRec, error) {
	if st.v != nil {
		var recs []holder.EdgeRec
		if st.stored.Len() > 0 {
			recs = st.view.AppendEdges(nil)
		}
		return append(recs, st.v.Edges...), nil
	}
	var recs []holder.EdgeRec
	c := st.view.Edges()
	for c.Next() {
		recs = append(recs, c.Rec)
	}
	return recs, st.viewErr()
}

// oracleEdges is Edges returning one EdgeInfo per edge.
func oracleEdges(h *VertexHandle, mask DirMask, cons *constraint.Constraint) ([]EdgeInfo, error) {
	if err := h.tx.check(); err != nil {
		return nil, err
	}
	var out []EdgeInfo // not presized: a corrupt header's Degree is unbounded
	recs, walkErr := oracleRecords(h.st)
	for i, rec := range recs {
		var err error
		if out, err = oracleAppendEdge(h, out, rec, i, mask, cons); err != nil {
			return nil, err
		}
	}
	if walkErr != nil {
		return nil, walkErr
	}
	return out, nil
}

// oracleAppendEdge appends the EdgeInfo of record rec, at index pos, if the
// edge matches mask and cons.
func oracleAppendEdge(h *VertexHandle, out []EdgeInfo, rec holder.EdgeRec, pos int, mask DirMask, cons *constraint.Constraint) ([]EdgeInfo, error) {
	if !mask.matches(rec.Dir) {
		return out, nil
	}
	info := EdgeInfo{
		UID:      holder.EdgeUID{Vertex: h.st.primary, Index: uint32(pos)},
		Neighbor: rec.Neighbor,
		Dir:      rec.Dir,
		Label:    rec.Label,
		Heavy:    rec.Heavy,
	}
	if rec.Heavy {
		info.Holder = rec.Neighbor
		es, err := h.tx.fetchEdgeState(rec.Neighbor)
		if err != nil {
			return nil, err
		}
		if es.deleted {
			return out, nil
		}
		if info.Neighbor = es.e.Target; h.st.isIdentity(info.Neighbor) {
			info.Neighbor = es.e.Origin
		}
		if len(es.e.Labels) > 0 {
			info.Label = es.e.Labels[0]
		}
		if cons != nil && !cons.Eval(es.e.Labels, es.e.Props) {
			return out, nil
		}
	} else if cons != nil {
		var labels []lpg.LabelID
		if rec.Label != 0 {
			labels = []lpg.LabelID{rec.Label}
		}
		if !cons.Eval(labels, nil) {
			return out, nil
		}
	}
	return append(out, info), nil
}

// oracleNeighbors is Neighbors as a map dedup of oracleEdges.
func oracleNeighbors(h *VertexHandle, mask DirMask, cons *constraint.Constraint) ([]fabric.DPtr, error) {
	infos, err := oracleEdges(h, mask, cons)
	if err != nil {
		return nil, err
	}
	seen := make(map[fabric.DPtr]struct{}, len(infos))
	out := make([]fabric.DPtr, 0, len(infos))
	for _, e := range infos {
		if _, dup := seen[e.Neighbor]; dup {
			continue
		}
		seen[e.Neighbor] = struct{}{}
		out = append(out, e.Neighbor)
	}
	return out, nil
}

// oracleForEachEdge is ForEachEdge as one record walk.
func oracleForEachEdge(h *VertexHandle, mask DirMask, fn func(nb fabric.DPtr, dir holder.Direction)) error {
	if err := h.tx.check(); err != nil {
		return err
	}
	recs, walkErr := oracleRecords(h.st)
	for _, rec := range recs {
		if !mask.matches(rec.Dir) {
			continue
		}
		nb := rec.Neighbor
		if rec.Heavy {
			es, err := h.tx.fetchEdgeState(nb)
			if err != nil {
				return err
			}
			if es.deleted {
				continue
			}
			if nb = es.e.Target; h.st.isIdentity(nb) {
				nb = es.e.Origin
			}
		}
		fn(nb, rec.Dir)
	}
	return walkErr
}

// infosOf returns every EdgeInfo of l, in list order.
func infosOf(l EdgeList) []EdgeInfo {
	out := make([]EdgeInfo, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out
}

// edgeVisit is one (neighbor, direction) ForEachEdge passed on.
type edgeVisit struct {
	nb  fabric.DPtr
	dir holder.Direction
}

// sameErr reports whether two results failed alike: both not at all, or
// both with an ErrNotFound or an ErrTxCritical.
func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return errors.Is(got, ErrNotFound) == errors.Is(want, ErrNotFound) &&
		errors.Is(got, ErrTxCritical) == errors.Is(want, ErrTxCritical)
}

// checkEdges calls h.Edges(mask, cons) and holds it to the oracles: the
// list's Len, At(i) and Neighbors against oracleEdges, h.Neighbors against
// oracleNeighbors (order included), and, with no constraint, ForEachEdge's
// run walk against oracleForEachEdge's record walk. It returns the list's
// edges as EdgeInfo values and Edges' error, for the caller's own checks.
func checkEdges(t testing.TB, h *VertexHandle, mask DirMask, cons *constraint.Constraint) ([]EdgeInfo, error) {
	t.Helper()
	l, err := h.Edges(mask, cons)
	want, wantErr := oracleEdges(h, mask, cons)
	got := infosOf(l)
	if !sameErr(err, wantErr) || !slices.Equal(got, want) {
		t.Errorf("mask %b, constraint %v: Edges = %+v, %v; the record walk = %+v, %v", mask, cons != nil, got, err, want, wantErr)
	}
	var nbrs []fabric.DPtr
	for _, e := range want {
		nbrs = append(nbrs, e.Neighbor)
	}
	if err == nil && !slices.Equal(l.Neighbors(), nbrs) {
		t.Errorf("mask %b, constraint %v: EdgeList.Neighbors = %v, want %v", mask, cons != nil, l.Neighbors(), nbrs)
	}
	if l.Len() != len(l.Neighbors()) {
		t.Errorf("mask %b: Len %d over %d neighbors", mask, l.Len(), len(l.Neighbors()))
	}
	dedup, derr := h.Neighbors(mask, cons)
	wantDedup, wantDerr := oracleNeighbors(h, mask, cons)
	if !sameErr(derr, wantDerr) || !slices.Equal(dedup, wantDedup) {
		t.Errorf("mask %b, constraint %v: Neighbors = %v, %v; the map dedup = %v, %v", mask, cons != nil, dedup, derr, wantDedup, wantDerr)
	}
	if cons == nil {
		var runs, recs []edgeVisit
		rerr := h.ForEachEdge(mask, func(nb fabric.DPtr, dir holder.Direction) { runs = append(runs, edgeVisit{nb, dir}) })
		werr := oracleForEachEdge(h, mask, func(nb fabric.DPtr, dir holder.Direction) { recs = append(recs, edgeVisit{nb, dir}) })
		if !sameErr(rerr, werr) || !slices.Equal(runs, recs) {
			t.Errorf("mask %b: ForEachEdge = %v, %v; the record walk = %v, %v", mask, runs, rerr, recs, werr)
		}
	}
	return got, err
}

// FuzzEdgeListMatchesOracle holds Edges, Neighbors and ForEachEdge to their
// oracles (checkEdges) over the edge regions FuzzHolderV2RoundTrip feeds
// the holder package: arbitrary bytes as a holder stream, and a vertex
// derived from the bytes, encoded at the fuzzed block size. Every heavy
// record names an edge holder the transaction already holds — live with a
// label, live without, or deleted, by the record's neighbor — so the walks
// never leave the process; masks and a label constraint cover every branch.
func FuzzEdgeListMatchesOracle(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{9, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, byte(1))
	f.Add([]byte{39, 7, 255, 254, 253, 252, 251, 250, 2, 1, 0, 77}, byte(2))
	f.Add([]byte{16, 0, 1, 0, 0, 0, 1, 0, 1, 16, 0, 1, 0, 0, 0, 1, 2, 32}, byte(3))
	f.Add([]byte{5, 9, 5, 9, 5, 9, 4, 9, 4, 9, 0xc1, 9, 0xc1, 9, 0xc1, 200, 5, 9, 5, 9}, byte(0))
	e := NewEngine(rma.New(1), Config{BlockSize: 64, BlocksPerRank: 64, LockTries: 4})
	labelled := &constraint.Constraint{}
	labelled.AddLabelCond(labelled.AddSubconstraint(constraint.Subconstraint{}), constraint.LabelCond{Label: 3})
	f.Fuzz(func(t *testing.T, data []byte, sizeSel byte) {
		blockSize := []int{64, 72, 128, 512}[int(sizeSel)%4]
		for _, stream := range [][]byte{data, holder.EncodeVertex(fuzzVertex(data), blockSize)} {
			tx := e.StartLocal(0, ReadOnly)
			st := tx.newState(rma.MakeDPtr(0, 7))
			if st.view.Reset(stream) != nil {
				tx.Abort()
				continue
			}
			st.stream = stream
			for c := st.view.Edges(); c.Next(); {
				if c.Rec.Heavy {
					tx.addEdgeState(fuzzEdgeState(c.Rec.Neighbor, st.primary))
				}
			}
			st.view.Reset(stream) // the walk above may have recorded a corruption
			for mask := DirMask(0); mask <= MaskAll; mask++ {
				for _, cons := range []*constraint.Constraint{nil, labelled} {
					if checkEdges(t, &st.h, mask, cons); t.Failed() {
						t.Fatalf("stream % x", stream)
					}
				}
			}
			tx.Abort()
		}
	})
}

// fuzzVertex derives a vertex with light and heavy records in every
// direction from the bytes, three bytes a record.
func fuzzVertex(data []byte) *holder.Vertex {
	v := &holder.Vertex{AppID: uint64(len(data))}
	for i := 0; i+2 < len(data); i += 3 {
		b := data[i]
		v.Edges = append(v.Edges, holder.EdgeRec{
			Neighbor: rma.MakeDPtr(0, uint64(data[i+1])<<8|uint64(data[i+2])),
			Dir:      holder.Direction(b % 3),
			Heavy:    b&0x40 != 0,
			Label:    lpg.LabelID(b >> 3 & 3),
		})
	}
	return v
}

// fuzzEdgeState is the edge holder a fuzzed heavy record names: deleted
// when dp's offset is a multiple of 5, unlabelled when it is odd, and
// otherwise labelled 3 with the queried vertex as its target.
func fuzzEdgeState(dp, vertex fabric.DPtr) *edgeState {
	off := uint64(dp) & 0xffff
	es := &edgeState{primary: dp, e: &holder.Edge{Origin: rma.MakeDPtr(0, off+1), Target: vertex}, deleted: off%5 == 0}
	if off%2 == 0 {
		es.e.Labels = []lpg.LabelID{3}
	}
	return es
}
