// Package holder implements the Logical Layout (LL) level of GDA (§5.4 of
// the paper): the serialization of vertex and edge "holder" objects into the
// fixed-size blocks of the BGDL level.
//
// A holder is a logically contiguous byte stream physically split across
// blocks (which need not be contiguous or even on one rank). The stream
// layout is:
//
//	header      32 bytes: #blocks, #edges, entry-region size, kind/flags,
//	            #home blocks, and the application-level ID (vertices) or the
//	            endpoint DPtrs (edge holders)
//	block table (#blocks-1) DPtrs of the continuation blocks — the primary
//	            block's address is the vertex's identity and is not stored
//	homes       #homes DPtrs of former primary blocks now holding forwarding
//	            stubs (vertices only; populated by live migration)
//	replicas    #replicas groups of #blocks DPtrs: the follower copies
//	entries     label & property entries (package lpg varint wire format)
//	edges       runs of consecutive records sharing (direction, heavy,
//	            label), a light run's neighbors ascending: uvarint run
//	            header (count<<3 | heavy<<2 | dir), uvarint label, the
//	            first neighbor DPtr as an absolute uvarint, every following
//	            neighbor as a zig-zag varint delta from its predecessor
//	            (vertices only)
//	unused      slack up to #blocks · blockSize
//
// The paper's Figure 3 puts the edge records before the entries, which
// works while records are a fixed 16 bytes: the entry offset is then a
// multiplication. A varint edge region has no such closed form — its length
// is only known by walking it, and the header has no room for it — so the
// entries come first: their offset and length follow from the header alone,
// a reader that wants a vertex's labels or properties never touches (or even
// fetches) its adjacency, and an edge appended at the tail moves no property
// byte. View is the zero-copy reader; EntryBlocks tells a reader how much of
// a chain the labels and properties need.
//
// A writer keeps what it does not change encoded. Vertex carries its labels
// and properties as the entry region itself (Entries), which package lpg's
// region edits splice in place, and EncodeVertexAfter writes a stored edge
// region as it stands (View.StoredEdges locates it) with new records
// appended behind it, so a label, property or edge write decodes neither
// the properties nor the records.
//
// A record's index is its edge UID (deletion is by index), so nothing
// reorders stored records: the codec keeps whatever order its writer
// appends in. Transactional appends (CreateEdge) keep insertion order. The
// neighbors of a light run ascend (equal ones may repeat): a light record
// whose neighbor is smaller than its predecessor's starts a new run, so an
// append that descends costs a run header and an absolute neighbor, and a
// reader that wants the neighbors below a bound stops a run at the first
// one past it (EdgeCursor.StepUpTo). A heavy run names edge holders, in
// whatever order they were appended. A bulk edge load appends each
// vertex's batch in canonical order, grouped by (direction, weight class,
// label) with neighbors ascending, so a bulk-loaded holder holds one run
// per group and its deltas take one or two bytes: the largest hub of the
// oltp-rm benchmark graph (degree 11 304, 512-byte blocks) fits in 23
// blocks, where its batch appended in delivery order, out- and in-records
// interleaved into short runs that each store an absolute first neighbor,
// took 133 (6.0 bytes per record).
//
// Every table entry i lands at logical offset 32+8i, which is always inside
// the first i+1 blocks, so a reader can fetch the primary block and then
// stream the continuation blocks without ever missing a table entry it needs
// next, fully one-sided. Each round can fetch every block whose entry lies in
// the blocks already read: at 512-byte blocks the primary names blocks 1–60,
// so a chain of up to 61 blocks takes 2 round trips and one of up to 3 901
// takes 3.
//
// Lightweight edges (§5.4.2) are stored inline in the source vertex's
// holder and carry at most one label. An edge with more labels or with
// properties is "heavy": its inline record points at a dedicated edge
// holder instead of at the neighbor vertex.
//
// Every decode path returns an error on malformed input instead of
// panicking: holder bytes cross the fabric and are fuzzed as arbitrary input.
package holder

import (
	"encoding/binary"
	"fmt"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/lpg"
)

// HeaderSize is the fixed holder header size in bytes.
const HeaderSize = 32

// Codec names a holder wire format. The compressed format is the only one;
// the type and CodecV2 remain because the benchmark module passes
// Engine.Codec() to EncodeVertexCodec.
type Codec uint8

// CodecV2 is the compressed format: varint entries first, then
// delta+varint edge runs, with the inline single-block flag. It is what
// Engine.Codec returns, for the benchmark module.
const CodecV2 Codec = 1

// Direction of an edge relative to the vertex holding the record.
type Direction uint8

const (
	// DirOut marks an outgoing edge (the holder's vertex is the origin).
	DirOut Direction = iota
	// DirIn marks an incoming edge.
	DirIn
	// DirUndirected marks an undirected edge.
	DirUndirected
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case DirOut:
		return "out"
	case DirIn:
		return "in"
	case DirUndirected:
		return "undirected"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// EdgeRec is one inline (lightweight) edge record of a vertex holder.
type EdgeRec struct {
	// Neighbor is the other endpoint's vertex DPtr or, when Heavy, the DPtr
	// of the dedicated edge holder.
	Neighbor fabric.DPtr
	// Dir is the edge direction relative to the holding vertex.
	Dir Direction
	// Heavy marks a record that spills to an edge holder.
	Heavy bool
	// Label is the single lightweight label (0 = unlabeled). Heavy edges
	// keep their labels in the edge holder.
	Label lpg.LabelID
}

// EdgeUID identifies an edge relative to one of its endpoint vertices: the
// vertex's DPtr plus the index of the record inside that vertex's holder
// (the paper's 12-byte edge UID, §5.4.2). The same physical edge has two
// different UIDs, one per endpoint.
type EdgeUID struct {
	Vertex fabric.DPtr
	Index  uint32
}

// Vertex is the decoded logical form of a vertex holder.
type Vertex struct {
	// AppID is the application-level vertex ID (also exposed as the
	// predefined __app_id property).
	AppID uint64
	// Homes lists the primary blocks this vertex occupied on ranks it has
	// lived on before live migration moved it (at most one per rank). Each
	// listed block stays allocated and holds a one-hop forwarding stub
	// (EncodeMoved) pointing at the current primary, so stale DPtrs in edge
	// records keep resolving; a migration back to a former rank reuses its
	// home block, restoring the vertex's original DPtr there (the ABA case
	// the version counters guard). Empty for never-migrated vertices.
	Homes []fabric.DPtr
	// Replicas lists the vertex's follower block groups (the primary chain is
	// not listed). Each group has exactly NumBlocks(v) DPtrs — the follower's
	// head block first, then its continuation blocks in stream order — and
	// holds a byte-identical copy of the holder stream, re-pointed at its own
	// blocks and flagged flagReplica (RewriteAsReplica). The group head's
	// lock word is the follower's version word; the commit fan-out keeps it
	// in lockstep with the primary's (follower word free at version v ⇒
	// follower content equals primary content at v). Empty for unreplicated
	// vertices.
	Replicas [][]fabric.DPtr
	// IsReplica reports that this stream was decoded from a follower copy
	// rather than the primary chain (the flagReplica header bit). Follower
	// streams are read-only views: every mutation path goes through the
	// primary.
	IsReplica bool
	// Edges are the inline edge records in record order: an edge UID is an
	// index into them. A writer that appends behind a stored edge region
	// without decoding it (EncodeVertexAfter) holds only the appended
	// records here.
	Edges []EdgeRec
	// Entries is the label/property entry region exactly as package lpg
	// encodes it — labels first, then properties, each kind in insertion
	// order — and the only form of a vertex's labels and properties: readers
	// walk it with lpg.IterEntries, writers edit it with lpg's region edits.
	Entries []byte
}

// Edge is the decoded logical form of a heavy-edge holder.
type Edge struct {
	// Origin and Target are the endpoint vertex DPtrs.
	Origin, Target fabric.DPtr
	// Dir records whether the edge is directed.
	Dir Direction
	// Labels and Props carry the edge's rich data.
	Labels []lpg.LabelID
	Props  []lpg.Property
}

const (
	flagEdgeHolder = 1 << 0
	// flagMoved marks a forwarding stub left behind by live vertex
	// migration: the block is not a holder, its header carries the DPtr of
	// the vertex's current primary block instead (EncodeMoved/MovedTarget).
	flagMoved = 1 << 1
	// flagReplica marks a follower copy of a replicated vertex holder: the
	// stream is byte-identical to the primary's except for this bit and the
	// block table, which points at the follower's own blocks.
	flagReplica = 1 << 2
	// flagV2 tags every holder stream the encoders write. The decoders
	// reject a stream without it: the bit is what tells a holder from a
	// zeroed or foreign block.
	flagV2 = 1 << 3
	// flagInline marks a single-block holder: no block table, no
	// continuation chain — a reader that sees it on the primary block knows
	// the whole holder is already in hand and skips the chain walk.
	flagInline = 1 << 4
)

// blocksFor solves the fixed point: the table grows with the block count.
func blocksFor(size func(numBlocks int) int, blockSize int) int {
	n := 1
	for {
		need := size(n)
		fit := (need + blockSize - 1) / blockSize
		if fit <= n {
			return n
		}
		n = fit
	}
}

// edgeRunsSize returns the encoded byte size of recs in the run format
// without building the region.
func edgeRunsSize(recs []EdgeRec) int {
	size := 0
	for i := 0; i < len(recs); {
		r0 := recs[i]
		j := i + runOf(r0, recs[i:])
		size += lpg.UvarintLen(uint64(j-i)<<3) + lpg.UvarintLen(uint64(r0.Label)) +
			lpg.UvarintLen(uint64(r0.Neighbor))
		prev := uint64(r0.Neighbor)
		for k := i + 1; k < j; k++ {
			nb := uint64(recs[k].Neighbor)
			size += lpg.VarintLen(int64(nb) - int64(prev))
			prev = nb
		}
		i = j
	}
	return size
}

// runOf returns how many leading records of recs continue a run whose last
// record is last: they share its direction, heavy bit and label, and in a
// light run each neighbor is at least the one before it.
func runOf(last EdgeRec, recs []EdgeRec) int {
	k := 0
	for k < len(recs) && recs[k].Dir == last.Dir && recs[k].Heavy == last.Heavy && recs[k].Label == last.Label &&
		(last.Heavy || recs[k].Neighbor >= last.Neighbor) {
		last = recs[k]
		k++
	}
	return k
}

// appendEdgeRuns encodes recs into the run format.
func appendEdgeRuns(dst []byte, recs []EdgeRec) []byte {
	for i := 0; i < len(recs); {
		r0 := recs[i]
		j := i + runOf(r0, recs[i:])
		hdr := uint64(j-i)<<3 | uint64(r0.Dir)&0x3
		if r0.Heavy {
			hdr |= 1 << 2
		}
		dst = binary.AppendUvarint(dst, hdr)
		dst = binary.AppendUvarint(dst, uint64(r0.Label))
		dst = binary.AppendUvarint(dst, uint64(r0.Neighbor))
		prev := uint64(r0.Neighbor)
		for k := i + 1; k < j; k++ {
			nb := uint64(recs[k].Neighbor)
			dst = binary.AppendVarint(dst, int64(nb)-int64(prev))
			prev = nb
		}
		i = j
	}
	return dst
}

// contentSizeVertex returns the logical byte size of v excluding slack, with
// the edge region size precomputed by the caller (it does not depend on the
// block count, so the fixed point recomputes only the fixed-width regions).
// Each replica group stores one DPtr per block of the holder, so the replica
// region participates in the fixed point exactly as the table does.
func contentSizeVertex(v *Vertex, numBlocks, edgeBytes int) int {
	return HeaderSize + 8*(numBlocks-1) + 8*len(v.Homes) + 8*len(v.Replicas)*numBlocks +
		edgeBytes + len(v.Entries)
}

// VertexBlocks returns how many blocks v needs at the given block size. It
// always agrees with len(EncodeVertex(v, blockSize))/blockSize.
func VertexBlocks(v *Vertex, blockSize int) int { return VertexBlocksAfter(v, nil, blockSize) }

// VertexBlocksAfter returns how many blocks EncodeVertexAfter(v, stored)
// takes at the given block size.
func VertexBlocksAfter(v *Vertex, stored *StoredEdges, blockSize int) int {
	edgeBytes := stored.size(v.Edges, stored.continued(v.Edges))
	return blocksFor(func(n int) int { return contentSizeVertex(v, n, edgeBytes) }, blockSize)
}

// EncodeVertex serializes v into a logical stream of exactly
// VertexBlocks(v)·blockSize bytes. The block table is zeroed; the caller
// fills it with SetTableEntry after acquiring the continuation blocks.
func EncodeVertex(v *Vertex, blockSize int) []byte { return EncodeVertexAfter(v, nil, blockSize) }

// EncodeVertexAfter is EncodeVertex of a vertex whose records are stored's,
// then v.Edges: the stored region is copied as it stands and v.Edges are
// appended behind it, the first of them continuing stored's last run while
// they share its direction, heavy bit and label and, in a light run, do not
// descend (runOf). On a stored region in the form EncodeVertex writes —
// every run as long as its records allow — the stream is byte for byte
// EncodeVertex's with the stored records decoded ahead of v.Edges. A nil
// stored is an empty region.
func EncodeVertexAfter(v *Vertex, stored *StoredEdges, blockSize int) []byte {
	k := stored.continued(v.Edges)
	edgeBytes := stored.size(v.Edges, k)
	numBlocks := blocksFor(func(n int) int { return contentSizeVertex(v, n, edgeBytes) }, blockSize)
	buf := make([]byte, numBlocks*blockSize)

	flags := uint32(flagV2)
	if v.IsReplica {
		flags |= flagReplica
	}
	if numBlocks == 1 {
		flags |= flagInline
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(numBlocks))
	binary.LittleEndian.PutUint32(buf[4:], uint32(stored.Len()+len(v.Edges)))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(v.Entries)))
	binary.LittleEndian.PutUint32(buf[12:], flags)
	binary.LittleEndian.PutUint64(buf[16:], v.AppID)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(v.Homes)))
	binary.LittleEndian.PutUint32(buf[28:], uint32(len(v.Replicas)))

	off := HeaderSize + 8*(numBlocks-1)
	for _, h := range v.Homes {
		binary.LittleEndian.PutUint64(buf[off:], uint64(h))
		off += 8
	}
	for gi, group := range v.Replicas {
		if len(group) != numBlocks {
			panic(fmt.Sprintf("holder: replica group %d has %d blocks, holder has %d", gi, len(group), numBlocks))
		}
		for _, dp := range group {
			binary.LittleEndian.PutUint64(buf[off:], uint64(dp))
			off += 8
		}
	}
	off += copy(buf[off:], v.Entries)
	// Append in place: buf[:off] has capacity for the whole stream, so the
	// appends land directly in the slack-backed buffer.
	edges := stored.appendRecords(buf[:off], v.Edges, k)
	if len(edges) != off+edgeBytes {
		panic(fmt.Sprintf("holder: edge region of %d bytes, sized %d", len(edges)-off, edgeBytes))
	}
	return buf
}

// StoredEdges is the edge region of a stored vertex stream, located for a
// writer that appends records behind it without decoding it
// (View.StoredEdges, EncodeVertexAfter), and for a cursor that walks it and
// then those records (Edges). It aliases the stream. The zero StoredEdges
// is an empty region, which EncodeVertexAfter treats as it does nil.
type StoredEdges struct {
	region []byte  // the region, through its last record
	count  int     // its records
	runOff int     // the offset in region of its last run's header
	runHdr uint64  // that header
	hdrLen int     // its encoded length
	last   EdgeRec // the last record: its run's direction, heavy bit and label, and the last neighbor
}

// Len returns how many records s holds; 0 for a nil s.
func (s *StoredEdges) Len() int {
	if s == nil {
		return 0
	}
	return s.count
}

// continued returns how many leading records of recs continue s's last run.
func (s *StoredEdges) continued(recs []EdgeRec) int {
	if s.Len() == 0 {
		return 0
	}
	return runOf(s.last, recs)
}

// size returns the encoded size of s's region with recs appended, the first
// k of them continuing its last run.
func (s *StoredEdges) size(recs []EdgeRec, k int) int {
	if s == nil {
		return edgeRunsSize(recs)
	}
	n := len(s.region) + edgeRunsSize(recs[k:])
	if k > 0 {
		n += lpg.UvarintLen(s.runHdr+uint64(k)<<3) - s.hdrLen
		prev := s.last.Neighbor
		for _, r := range recs[:k] {
			n += lpg.VarintLen(int64(r.Neighbor) - int64(prev))
			prev = r.Neighbor
		}
	}
	return n
}

// appendRecords appends s's region with recs behind it, the first k of them
// continuing its last run: the run's header is rewritten with the new count
// and the k records follow its last one as deltas.
func (s *StoredEdges) appendRecords(dst []byte, recs []EdgeRec, k int) []byte {
	if s == nil {
		return appendEdgeRuns(dst, recs)
	}
	if k == 0 {
		dst = append(dst, s.region...)
	} else {
		dst = append(dst, s.region[:s.runOff]...)
		dst = binary.AppendUvarint(dst, s.runHdr+uint64(k)<<3)
		dst = append(dst, s.region[s.runOff+s.hdrLen:]...)
		prev := s.last.Neighbor
		for _, r := range recs[:k] {
			dst = binary.AppendVarint(dst, int64(r.Neighbor)-int64(prev))
			prev = r.Neighbor
		}
	}
	return appendEdgeRuns(dst, recs[k:])
}

// EncodeVertexCodec is EncodeVertex; the codec argument is ignored. Kept
// because the benchmark module's holder encode probe calls it.
func EncodeVertexCodec(v *Vertex, blockSize int, _ Codec) []byte { return EncodeVertex(v, blockSize) }

// DecodeVertex parses a logical stream produced by EncodeVertex. It returns
// an error — never panics — on malformed input.
func DecodeVertex(buf []byte) (*Vertex, error) {
	var w View
	if err := w.Reset(buf); err != nil {
		return nil, err
	}
	v, err := w.DecodeMeta()
	if err != nil {
		return nil, err
	}
	if w.numEdges > 0 {
		// Every record takes at least one byte, which bounds the allocation
		// a corrupt count could ask for.
		if w.numEdges > len(buf)-w.edgesOff {
			return nil, fmt.Errorf("holder: holder claims %d edges in %d bytes", w.numEdges, len(buf)-w.edgesOff)
		}
		v.Edges = w.AppendEdges(nil)
		if err := w.Err(); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// contentSizeEdge returns the logical byte size of e excluding slack: edge
// holders carry one 8-byte direction word in place of edge records.
func contentSizeEdge(numBlocks, entryBytes int) int {
	return HeaderSize + 8*(numBlocks-1) + 8 + entryBytes
}

// EdgeBlocks returns how many blocks e needs at the given block size.
func EdgeBlocks(e *Edge, blockSize int) int {
	entryBytes := lpg.EntriesSize(e.Labels, e.Props)
	return blocksFor(func(n int) int { return contentSizeEdge(n, entryBytes) }, blockSize)
}

// EncodeEdge serializes a heavy-edge holder: the endpoint header, the
// direction word, and the entry region.
func EncodeEdge(e *Edge, blockSize int) []byte {
	entryRegion := lpg.EncodeEntries(e.Labels, e.Props)
	numBlocks := blocksFor(func(n int) int { return contentSizeEdge(n, len(entryRegion)) }, blockSize)
	buf := make([]byte, numBlocks*blockSize)

	flags := uint32(flagEdgeHolder | flagV2)
	if numBlocks == 1 {
		flags |= flagInline
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(numBlocks))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(entryRegion)))
	binary.LittleEndian.PutUint32(buf[12:], flags)
	binary.LittleEndian.PutUint64(buf[16:], uint64(e.Origin))
	binary.LittleEndian.PutUint64(buf[24:], uint64(e.Target))

	off := HeaderSize + 8*(numBlocks-1)
	binary.LittleEndian.PutUint32(buf[off:], uint32(e.Dir))
	off += 8
	copy(buf[off:], entryRegion)
	return buf
}

// DecodeEdge parses a logical stream produced by EncodeEdge. It returns an
// error — never panics — on malformed input.
func DecodeEdge(buf []byte) (*Edge, error) {
	numBlocks, flags, err := checkHeader(buf)
	if err != nil {
		return nil, err
	}
	if flags&flagEdgeHolder == 0 {
		return nil, fmt.Errorf("holder: expected an edge holder, found a vertex holder")
	}
	entryBytes := int(binary.LittleEndian.Uint32(buf[8:]))
	e := &Edge{
		Origin: fabric.DPtr(binary.LittleEndian.Uint64(buf[16:])),
		Target: fabric.DPtr(binary.LittleEndian.Uint64(buf[24:])),
	}
	off, err := fixedRegionsEnd(buf, numBlocks, 0, 0)
	if err != nil {
		return nil, err
	}
	if off+8 > len(buf) || entryBytes > len(buf)-off-8 {
		return nil, fmt.Errorf("holder: truncated edge holder")
	}
	e.Dir = Direction(binary.LittleEndian.Uint32(buf[off:]))
	off += 8
	region := buf[off : off+entryBytes]
	if err := lpg.CheckEntries(region); err != nil {
		return nil, err
	}
	it := lpg.IterEntries(region)
	for id, payload, ok := it.Next(); ok; id, payload, ok = it.Next() {
		if id == lpg.IDLabel {
			l, _ := lpg.EntryLabel(payload)
			e.Labels = append(e.Labels, l)
		} else {
			e.Props = append(e.Props, lpg.Property{PType: lpg.PTypeID(id), Value: append([]byte(nil), payload...)})
		}
	}
	return e, nil
}

func checkHeader(buf []byte) (numBlocks int, flags uint32, err error) {
	if len(buf) < HeaderSize {
		return 0, 0, fmt.Errorf("holder: %d bytes is smaller than the header", len(buf))
	}
	numBlocks = int(binary.LittleEndian.Uint32(buf[0:]))
	if numBlocks < 1 {
		return 0, 0, fmt.Errorf("holder: corrupt header (0 blocks)")
	}
	flags = binary.LittleEndian.Uint32(buf[12:])
	if flags&flagMoved != 0 {
		return 0, 0, fmt.Errorf("holder: block is a migration forwarding stub, not a holder")
	}
	if flags&flagV2 == 0 {
		return 0, 0, fmt.Errorf("holder: stream without the format flag (flags %#x)", flags)
	}
	return numBlocks, flags, nil
}

// fixedRegionsEnd bound-checks the fixed-width regions (table, homes,
// replica groups) against the buffer and returns the offset of the first
// variable region. Every arithmetic step is guarded so arbitrary header
// values cannot overflow into a false bound.
func fixedRegionsEnd(buf []byte, numBlocks, numHomes, numReplicas int) (int, error) {
	n := len(buf)
	// Each count is first bounded by what could possibly fit in the buffer
	// (8 bytes per word), so the product below cannot overflow a 64-bit int
	// before it is compared against the real bound.
	if numBlocks > n/8+1 || numHomes > n/8 || numReplicas > n/8 {
		return 0, fmt.Errorf("holder: corrupt header (%d blocks, %d homes, %d replicas, %d bytes)",
			numBlocks, numHomes, numReplicas, n)
	}
	off := HeaderSize + 8*(numBlocks-1)
	if end := off + 8*numHomes + 8*numReplicas*numBlocks; end > n {
		return 0, fmt.Errorf("holder: truncated holder (%d blocks, %d homes, %d replicas, %d bytes)",
			numBlocks, numHomes, numReplicas, n)
	}
	return off, nil
}

// NumBlocks reads the block count from a holder's primary-block prefix.
func NumBlocks(primary []byte) int {
	if len(primary) < 4 {
		panic("holder: primary block prefix too small")
	}
	return int(binary.LittleEndian.Uint32(primary))
}

// EncodeMoved builds the forwarding stub live migration leaves in a vacated
// primary block: a single-block stream whose header carries the flagMoved
// bit, the migrated vertex's application ID (diagnostics), and the DPtr of
// the vertex's current primary. Readers that land on a stub chase target
// instead of decoding (the stub is rejected by DecodeVertex/DecodeEdge).
func EncodeMoved(appID uint64, target fabric.DPtr, blockSize int) []byte {
	buf := make([]byte, blockSize)
	binary.LittleEndian.PutUint32(buf[0:], 1)
	binary.LittleEndian.PutUint32(buf[12:], flagMoved)
	binary.LittleEndian.PutUint64(buf[16:], uint64(target))
	binary.LittleEndian.PutUint64(buf[24:], appID)
	return buf
}

// IsMoved reads the forwarding flag from a block's header prefix.
func IsMoved(primary []byte) bool {
	if len(primary) < HeaderSize {
		panic("holder: primary block prefix too small")
	}
	return binary.LittleEndian.Uint32(primary[12:])&flagMoved != 0
}

// MovedTarget returns the current-primary DPtr a forwarding stub points at.
func MovedTarget(primary []byte) fabric.DPtr {
	return fabric.DPtr(binary.LittleEndian.Uint64(primary[16:]))
}

// MovedAppID returns the application ID recorded in a forwarding stub.
func MovedAppID(primary []byte) uint64 {
	return binary.LittleEndian.Uint64(primary[24:])
}

// Inline reads the single-block flag from a holder's primary-block prefix:
// true for a holder whose whole stream fits its primary block, so a reader
// holding that block needs no table lookup and no chain walk.
func Inline(primary []byte) bool {
	if len(primary) < HeaderSize {
		panic("holder: primary block prefix too small")
	}
	return binary.LittleEndian.Uint32(primary[12:])&flagInline != 0
}

// IsEdgeHolder reads the kind flag from a holder's primary-block prefix.
func IsEdgeHolder(primary []byte) bool {
	if len(primary) < HeaderSize {
		panic("holder: primary block prefix too small")
	}
	return binary.LittleEndian.Uint32(primary[12:])&flagEdgeHolder != 0
}

// IsReplicaBlock reads the replica flag from a block's header prefix: true
// for the head block of a follower copy.
func IsReplicaBlock(primary []byte) bool {
	if len(primary) < HeaderSize {
		panic("holder: primary block prefix too small")
	}
	return binary.LittleEndian.Uint32(primary[12:])&flagReplica != 0
}

// NumReplicas reads the follower-group count from a holder's primary-block
// prefix.
func NumReplicas(primary []byte) int {
	if len(primary) < HeaderSize {
		panic("holder: primary block prefix too small")
	}
	return int(binary.LittleEndian.Uint32(primary[28:]))
}

// RewriteAsReplica turns a primary holder stream into the byte stream of one
// follower copy: the replica flag is set and the block table is re-pointed at
// the group's own continuation blocks (group[0] is the follower's head block
// and, like the primary, is not stored in the table). Everything else —
// content, homes, the full replica group list — is byte-identical, which is
// what lets a promotion or repair reconstruct the vertex from any follower.
// The input stream is not modified.
func RewriteAsReplica(stream []byte, group []fabric.DPtr) []byte {
	nb := NumBlocks(stream)
	if len(group) != nb {
		panic(fmt.Sprintf("holder: replica group has %d blocks, holder has %d", len(group), nb))
	}
	out := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint32(out[12:], binary.LittleEndian.Uint32(out[12:])|flagReplica)
	for i := 1; i < nb; i++ {
		SetTableEntry(out, i-1, group[i])
	}
	return out
}

// TableEntry returns the DPtr of continuation block i (0-based: entry 0 is
// the holder's second block) from the logical stream.
func TableEntry(buf []byte, i int) fabric.DPtr {
	return fabric.DPtr(binary.LittleEndian.Uint64(buf[HeaderSize+8*i:]))
}

// SetTableEntry writes the DPtr of continuation block i into the stream.
func SetTableEntry(buf []byte, i int, dp fabric.DPtr) {
	binary.LittleEndian.PutUint64(buf[HeaderSize+8*i:], uint64(dp))
}

// TableEntryOffset returns the logical offset of table entry i; callers use
// it to assert the streaming-read invariant (entry i inside block ≤ i).
func TableEntryOffset(i int) int { return HeaderSize + 8*i }
