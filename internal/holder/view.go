package holder

import (
	"encoding/binary"
	"fmt"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/lpg"
)

// View is a zero-copy reader over an encoded vertex-holder stream: Reset
// validates the header and locates every region in O(1), and the accessors
// then read labels, properties and edge runs in place without materializing
// a []EdgeRec or copying a byte. The steady-state point-read,
// frontier-expansion and CSR index paths run entirely on Views, which is
// what makes them allocation-free.
//
// The edge region has one decoder, the EdgeCursor Edges returns; ForEachEdge,
// ForEachNeighbor, AppendEdges and DecodeVertex are loops over it. The region
// has no length field, so it is validated by the walk that reads it rather
// than at Reset: a cursor that meets corruption stops, and the view reports
// it through Err (the bufio.Scanner contract). Everything else
// — header, fixed regions, the bounds of the entry region — is checked at
// Reset, so a view over a stream whose tail is missing or damaged still
// serves the vertex's labels and properties.
//
// A View aliases the stream it was Reset with; it is only valid while those
// bytes are stable (a fetched copy, a cached copy under a validated version
// stamp, or a holder protected by the caller's lock). The zero View is ready
// for Reset; Views are cheap to embed and reuse.
type View struct {
	buf []byte

	numBlocks   int
	numEdges    int
	numHomes    int
	numReplicas int
	appID       uint64
	isReplica   bool

	homesOff   int   // byte offset of the home list (the replica groups follow it)
	edgesOff   int   // byte offset of the edge region
	entOff     int   // byte offset of the entry region
	entryBytes int   // its length
	err        error // first edge-region corruption a walk met since Reset
}

// Reset points the view at a vertex-holder stream, validating the header,
// the fixed regions and the bounds of the entry region — O(1) work whatever
// the vertex's degree. buf may be a prefix of the stream as long as it
// reaches the end of the entry region (EntryBlocks): labels and properties are
// then fully readable, and an edge walk reports the missing tail through Err.
// The view aliases buf.
func (w *View) Reset(buf []byte) error {
	numBlocks, flags, err := checkHeader(buf)
	if err != nil {
		return err
	}
	if flags&flagEdgeHolder != 0 {
		return fmt.Errorf("holder: view over an edge holder")
	}
	w.buf = buf
	w.err = nil
	w.numBlocks = numBlocks
	w.numEdges = int(binary.LittleEndian.Uint32(buf[4:]))
	w.entryBytes = int(binary.LittleEndian.Uint32(buf[8:]))
	w.numHomes = int(binary.LittleEndian.Uint32(buf[24:]))
	w.numReplicas = int(binary.LittleEndian.Uint32(buf[28:]))
	w.appID = binary.LittleEndian.Uint64(buf[16:])
	w.isReplica = flags&flagReplica != 0
	w.homesOff, err = fixedRegionsEnd(buf, numBlocks, w.numHomes, w.numReplicas)
	if err != nil {
		return err
	}
	w.entOff = w.homesOff + 8*w.numHomes + 8*w.numReplicas*numBlocks
	w.edgesOff = w.entOff + w.entryBytes
	if w.entryBytes > len(buf)-w.entOff {
		return fmt.Errorf("holder: truncated entry region (%d bytes, %d left)", w.entryBytes, len(buf)-w.entOff)
	}
	return nil
}

// Err returns the first corruption an edge walk met since Reset, or nil. A
// walk that set it yielded only the records ahead of the damage; later walks
// yield nothing.
func (w *View) Err() error { return w.err }

// NumBlocks returns the holder's block count.
func (w *View) NumBlocks() int { return w.numBlocks }

// EdgeCap bounds the records an edge walk over the view can yield: the
// header's record count (the vertex degree over all directions, read without
// touching the edge region), capped by the bytes the stream holds from the
// edge region on, since every record takes at least one. On a valid holder
// it is the degree; whatever a corrupt header claims, it cannot exceed the
// stream, so it sizes a buffer for a walk's records safely.
func (w *View) EdgeCap() int { return min(w.numEdges, len(w.buf)-w.edgesOff) }

// AppID returns the application-level vertex ID.
func (w *View) AppID() uint64 { return w.appID }

// IsReplica reports whether the stream is a follower copy.
func (w *View) IsReplica() bool { return w.isReplica }

// Entries returns the encoded label/property entry region, aliasing the
// stream (lpg.IterEntries walks it in place).
func (w *View) Entries() []byte { return w.buf[w.entOff : w.entOff+w.entryBytes] }

// HasHome reports whether dp is one of the vertex's former primary blocks
// (Vertex.Homes) — with the current primary, the identities under which
// edge records and edge holders may still name this vertex.
func (w *View) HasHome(dp fabric.DPtr) bool {
	for i := 0; i < w.numHomes; i++ {
		if fabric.DPtr(binary.LittleEndian.Uint64(w.buf[w.homesOff+8*i:])) == dp {
			return true
		}
	}
	return false
}

// ForEachEdge calls fn for every inline edge record in record order, a
// loop over Edges for callers that want a callback. fn returning false stops
// the walk at once — nothing past the record it declined is decoded. A walk
// that runs into corruption stops there and records it for Err.
func (w *View) ForEachEdge(fn func(EdgeRec) bool) {
	c := w.Edges()
	for c.Next() && fn(c.Rec) {
	}
}

// ForEachNeighbor calls fn with the neighbor DPtr and direction of every
// lightweight record, skipping heavy records (whose Neighbor points at an
// edge holder, not a vertex — resolving those takes a fetch the transaction
// layer owns). fn returning false stops the walk.
func (w *View) ForEachNeighbor(fn func(nbr fabric.DPtr, dir Direction) bool) {
	c := w.Edges()
	for c.Next() {
		if !c.Rec.Heavy && !fn(c.Rec.Neighbor, c.Rec.Dir) {
			return
		}
	}
}

// AppendEdges materializes the edge records into dst (usually dst[:0] of a
// reusable slice) and returns it: the mutable []EdgeRec a writer and
// DecodeVertex need. Check Err afterwards: a corrupt region yields a short
// slice.
func (w *View) AppendEdges(dst []EdgeRec) []EdgeRec {
	if cap(dst) < w.EdgeCap() {
		dst = make([]EdgeRec, 0, w.EdgeCap())
	}
	c := w.Edges()
	for c.Next() {
		dst = append(dst, c.Rec)
	}
	return dst
}

// StoredEdges walks the edge region a run at a time, without materializing
// a record, and locates its end and its last run for a writer that appends
// behind it (EncodeVertexAfter). The walk is the region's validation: a
// corrupt region is the walk's error, as View.Err reports it.
func (w *View) StoredEdges() (StoredEdges, error) {
	var s StoredEdges
	var nbrs [16]fabric.DPtr
	c := w.Edges()
	for {
		start := c.off
		if !c.NextRun() {
			break
		}
		s.runOff = start
		s.runHdr, s.hdrLen = uvarint(c.buf[start:])
		for c.StepRun(nbrs[:]) > 0 {
		}
		s.last = c.Rec
	}
	if w.err != nil {
		return StoredEdges{}, w.err
	}
	s.region, s.count = c.buf[:c.off], w.numEdges
	return s, nil
}

// DecodeMeta decodes everything except the edge records into a fresh Vertex
// (Edges stays nil), with a copy of the checked entry region. The
// transaction layer never calls it on a read: a clean vertex serves labels,
// properties and edges from the view in place, and only its first mutation
// pays for DecodeMeta.
func (w *View) DecodeMeta() (*Vertex, error) {
	v := &Vertex{AppID: w.appID, IsReplica: w.isReplica}
	off := w.homesOff
	if w.numHomes > 0 {
		v.Homes = make([]fabric.DPtr, 0, w.numHomes)
		for i := 0; i < w.numHomes; i++ {
			v.Homes = append(v.Homes, fabric.DPtr(binary.LittleEndian.Uint64(w.buf[off:])))
			off += 8
		}
	}
	if w.numReplicas > 0 {
		v.Replicas = make([][]fabric.DPtr, w.numReplicas)
		for g := range v.Replicas {
			group := make([]fabric.DPtr, w.numBlocks)
			for i := range group {
				group[i] = fabric.DPtr(binary.LittleEndian.Uint64(w.buf[off:]))
				off += 8
			}
			v.Replicas[g] = group
		}
	}
	if err := lpg.CheckEntries(w.Entries()); err != nil {
		return nil, err
	}
	v.Entries = append([]byte(nil), w.Entries()...)
	return v, nil
}

// EntryBlocks reads, from a vertex holder's primary block alone, how many
// leading blocks of its chain cover the stream from the header through the
// end of the entry region — the prefix a reader that only wants labels and
// properties has to fetch (View.Reset accepts exactly such a prefix): block
// 0 unless the block table, homes and replica groups alone outgrow it. The
// result is clamped to [1, NumBlocks], so a garbage header costs at most the
// whole chain, which the decoders then reject.
func EntryBlocks(primary []byte, blockSize int) int {
	if len(primary) < HeaderSize {
		panic("holder: primary block prefix too small")
	}
	nb := uint64(binary.LittleEndian.Uint32(primary[0:]))
	if nb <= 1 {
		return 1
	}
	end := HeaderSize + 8*(nb-1) +
		8*uint64(binary.LittleEndian.Uint32(primary[24:])) + // homes
		uint64(binary.LittleEndian.Uint32(primary[8:])) // entries
	// Each replica group is nb words of an nb-block stream: more than
	// blockSize/8 of them cannot be real, and would overflow the product.
	groups := uint64(binary.LittleEndian.Uint32(primary[28:]))
	if groups > uint64(blockSize)/8 {
		return int(nb)
	}
	end += 8 * groups * nb
	return int(min(nb, (end+uint64(blockSize)-1)/uint64(blockSize)))
}
