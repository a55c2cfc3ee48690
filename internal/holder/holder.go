// Package holder implements the Logical Layout (LL) level of GDA (§5.4 of
// the paper): the serialization of vertex and edge "holder" objects into the
// fixed-size blocks of the BGDL level.
//
// A holder is a logically contiguous byte stream physically split across
// blocks (which need not be contiguous or even on one rank). The v1 stream
// layout follows Figure 3:
//
//	header      32 bytes: #blocks, #edges, entry-region size, kind/flags,
//	            #home blocks, and the application-level ID (vertices) or the
//	            endpoint DPtrs (edge holders)
//	block table (#blocks-1) DPtrs of the continuation blocks — the primary
//	            block's address is the vertex's identity and is not stored
//	homes       #homes DPtrs of former primary blocks now holding forwarding
//	            stubs (vertices only; populated by live migration)
//	replicas    #replicas groups of #blocks DPtrs: the follower copies
//	edges       #edges fixed-size lightweight-edge records (vertices only)
//	entries     label & property entries (package lpg wire format)
//	unused      slack up to #blocks · blockSize
//
// The v2 codec (v2.go) keeps the header and the fixed regions and turns the
// last two around — entries first, then varint edge runs — so that what a
// vertex *is* (labels, properties) can be read, and fetched, without touching
// who it knows: with fixed 16-byte records the entry offset is a
// multiplication, with varint runs it would be a walk over the whole
// adjacency. View is the zero-copy reader of either format; EntryBlocks tells
// a reader how much of a chain the labels and properties need.
//
// Every table entry i lands at logical offset 32+8i, which is always inside
// the first i+1 blocks, so a reader can fetch the primary block and then
// stream the continuation blocks in order without ever missing a table
// entry it needs next — one round trip per block, fully one-sided.
//
// Lightweight edges (§5.4.2) are stored inline in the source vertex's
// holder and carry at most one label. An edge with more labels or with
// properties is "heavy": its inline record points at a dedicated edge
// holder instead of at the neighbor vertex.
package holder

import (
	"encoding/binary"
	"fmt"

	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// HeaderSize is the fixed holder header size in bytes.
const HeaderSize = 32

// EdgeRecSize is the size of one inline edge record.
const EdgeRecSize = 16

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
	Neighbor rma.DPtr
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
	Vertex rma.DPtr
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
	Homes []rma.DPtr
	// Replicas lists the vertex's follower block groups (the primary chain is
	// not listed). Each group has exactly NumBlocks(v) DPtrs — the follower's
	// head block first, then its continuation blocks in stream order — and
	// holds a byte-identical copy of the holder stream, re-pointed at its own
	// blocks and flagged flagReplica (RewriteAsReplica). The group head's
	// lock word is the follower's version word; the commit fan-out keeps it
	// in lockstep with the primary's (follower word free at version v ⇒
	// follower content equals primary content at v). Empty for unreplicated
	// vertices.
	Replicas [][]rma.DPtr
	// IsReplica reports that this stream was decoded from a follower copy
	// rather than the primary chain (the flagReplica header bit). Follower
	// streams are read-only views: every mutation path goes through the
	// primary.
	IsReplica bool
	// Edges are the inline edge records in insertion order.
	Edges []EdgeRec
	// Labels are the vertex's label IDs in insertion order.
	Labels []lpg.LabelID
	// Props are the vertex's properties in insertion order.
	Props []lpg.Property
	// Codec records which wire format the stream was decoded from (the zero
	// value is CodecV1). Not encoded; re-encoding under a different codec is
	// exactly how migration and promotion convert holders between formats.
	Codec Codec
}

// Edge is the decoded logical form of a heavy-edge holder.
type Edge struct {
	// Origin and Target are the endpoint vertex DPtrs.
	Origin, Target rma.DPtr
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
	// flagV2 tags a stream encoded with the v2 codec (delta+varint edge
	// runs, varint entries — see v2.go). The decoders dispatch on it, so v1
	// and v2 holders coexist in one store.
	flagV2 = 1 << 3
	// flagInline marks a single-block v2 holder: no block table, no
	// continuation chain — a reader that sees it on the primary block knows
	// the whole holder is already in hand and skips the chain walk.
	flagInline = 1 << 4
)

// contentSizeVertex returns the logical byte size of v excluding slack.
func contentSizeVertex(v *Vertex, numBlocks int) int {
	entries := lpg.EndEntrySize
	for range v.Labels {
		entries += lpg.EntrySize(4)
	}
	for _, p := range v.Props {
		entries += lpg.EntrySize(len(p.Value))
	}
	// Each replica group stores one DPtr per block of the holder, so the
	// replica region participates in the block-count fixed point exactly as
	// the table does.
	return HeaderSize + 8*(numBlocks-1) + 8*len(v.Homes) + 8*len(v.Replicas)*numBlocks +
		EdgeRecSize*len(v.Edges) + entries
}

func contentSizeEdge(e *Edge, numBlocks int) int {
	entries := lpg.EndEntrySize
	for range e.Labels {
		entries += lpg.EntrySize(4)
	}
	for _, p := range e.Props {
		entries += lpg.EntrySize(len(p.Value))
	}
	// Edge holders carry one 8-byte direction word in place of edge records.
	return HeaderSize + 8*(numBlocks-1) + 8 + entries
}

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

// VertexBlocks returns how many blocks v needs at the given block size.
func VertexBlocks(v *Vertex, blockSize int) int {
	return blocksFor(func(n int) int { return contentSizeVertex(v, n) }, blockSize)
}

// EdgeBlocks returns how many blocks e needs at the given block size.
func EdgeBlocks(e *Edge, blockSize int) int {
	return blocksFor(func(n int) int { return contentSizeEdge(e, n) }, blockSize)
}

// EncodeVertex serializes v into a logical stream of exactly
// VertexBlocks(v)·blockSize bytes. The block table is zeroed; the caller
// fills it with SetTableEntry after acquiring the continuation blocks.
func EncodeVertex(v *Vertex, blockSize int) []byte {
	numBlocks := VertexBlocks(v, blockSize)
	buf := make([]byte, numBlocks*blockSize)
	entryRegion := lpg.EncodeEntries(v.Labels, v.Props)

	var flags uint32
	if v.IsReplica {
		flags |= flagReplica
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(numBlocks))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(v.Edges)))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(entryRegion)))
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
	for _, rec := range v.Edges {
		off += encodeEdgeRec(buf[off:], rec)
	}
	copy(buf[off:], entryRegion)
	return buf
}

// DecodeVertex parses a logical stream produced by EncodeVertex or the v2
// encoder, dispatching on the header's codec flag. It returns an error —
// never panics — on malformed input of either format.
func DecodeVertex(buf []byte) (*Vertex, error) {
	numBlocks, flags, err := checkHeader(buf)
	if err != nil {
		return nil, err
	}
	if flags&flagEdgeHolder != 0 {
		return nil, fmt.Errorf("holder: expected a vertex holder, found an edge holder")
	}
	if flags&flagV2 != 0 {
		return decodeVertexV2(buf, numBlocks, flags)
	}
	numEdges := int(binary.LittleEndian.Uint32(buf[4:]))
	entryBytes := int(binary.LittleEndian.Uint32(buf[8:]))
	numHomes := int(binary.LittleEndian.Uint32(buf[24:]))
	numReplicas := int(binary.LittleEndian.Uint32(buf[28:]))
	v := &Vertex{AppID: binary.LittleEndian.Uint64(buf[16:]), IsReplica: flags&flagReplica != 0}
	off, err := fixedRegionsEnd(buf, numBlocks, numHomes, numReplicas)
	if err != nil {
		return nil, err
	}
	rest := len(buf) - off - 8*numHomes - 8*numReplicas*numBlocks
	if numEdges > rest/EdgeRecSize || entryBytes > rest-numEdges*EdgeRecSize {
		return nil, fmt.Errorf("holder: truncated vertex holder (%d blocks, %d homes, %d replicas, %d edges, %d entry bytes, %d buffer)",
			numBlocks, numHomes, numReplicas, numEdges, entryBytes, len(buf))
	}
	if numHomes > 0 {
		v.Homes = make([]rma.DPtr, numHomes)
		for i := range v.Homes {
			v.Homes[i] = rma.DPtr(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	if numReplicas > 0 {
		v.Replicas = make([][]rma.DPtr, numReplicas)
		for g := range v.Replicas {
			group := make([]rma.DPtr, numBlocks)
			for i := range group {
				group[i] = rma.DPtr(binary.LittleEndian.Uint64(buf[off:]))
				off += 8
			}
			v.Replicas[g] = group
		}
	}
	v.Edges = make([]EdgeRec, numEdges)
	for i := range v.Edges {
		v.Edges[i] = decodeEdgeRec(buf[off:])
		off += EdgeRecSize
	}
	v.Labels, v.Props, err = lpg.SplitEntriesSafe(buf[off : off+entryBytes])
	if err != nil {
		return nil, err
	}
	return v, nil
}

// EncodeEdge serializes a heavy-edge holder.
func EncodeEdge(e *Edge, blockSize int) []byte {
	numBlocks := EdgeBlocks(e, blockSize)
	buf := make([]byte, numBlocks*blockSize)
	entryRegion := lpg.EncodeEntries(e.Labels, e.Props)

	binary.LittleEndian.PutUint32(buf[0:], uint32(numBlocks))
	binary.LittleEndian.PutUint32(buf[4:], 0)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(entryRegion)))
	binary.LittleEndian.PutUint32(buf[12:], flagEdgeHolder)
	binary.LittleEndian.PutUint64(buf[16:], uint64(e.Origin))
	binary.LittleEndian.PutUint64(buf[24:], uint64(e.Target))

	off := HeaderSize + 8*(numBlocks-1)
	binary.LittleEndian.PutUint32(buf[off:], uint32(e.Dir))
	off += 8
	copy(buf[off:], entryRegion)
	return buf
}

// DecodeEdge parses a logical stream produced by EncodeEdge or the v2
// encoder, dispatching on the header's codec flag. It returns an error —
// never panics — on malformed input of either format.
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
		Origin: rma.DPtr(binary.LittleEndian.Uint64(buf[16:])),
		Target: rma.DPtr(binary.LittleEndian.Uint64(buf[24:])),
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
	if flags&flagV2 != 0 {
		e.Labels, e.Props, err = lpg.SplitEntriesVar(buf[off : off+entryBytes])
	} else {
		e.Labels, e.Props, err = lpg.SplitEntriesSafe(buf[off : off+entryBytes])
	}
	if err != nil {
		return nil, err
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
	return numBlocks, flags, nil
}

func encodeEdgeRec(dst []byte, rec EdgeRec) int {
	binary.LittleEndian.PutUint64(dst[0:], uint64(rec.Neighbor))
	meta := uint32(rec.Dir) & 0x3
	if rec.Heavy {
		meta |= 1 << 2
	}
	binary.LittleEndian.PutUint32(dst[8:], meta)
	binary.LittleEndian.PutUint32(dst[12:], uint32(rec.Label))
	return EdgeRecSize
}

func decodeEdgeRec(src []byte) EdgeRec {
	meta := binary.LittleEndian.Uint32(src[8:])
	return EdgeRec{
		Neighbor: rma.DPtr(binary.LittleEndian.Uint64(src[0:])),
		Dir:      Direction(meta & 0x3),
		Heavy:    meta&(1<<2) != 0,
		Label:    lpg.LabelID(binary.LittleEndian.Uint32(src[12:])),
	}
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
func EncodeMoved(appID uint64, target rma.DPtr, blockSize int) []byte {
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
func MovedTarget(primary []byte) rma.DPtr {
	return rma.DPtr(binary.LittleEndian.Uint64(primary[16:]))
}

// MovedAppID returns the application ID recorded in a forwarding stub.
func MovedAppID(primary []byte) uint64 {
	return binary.LittleEndian.Uint64(primary[24:])
}

// Inline reads the single-block flag from a holder's primary-block prefix:
// true for a v2 holder whose whole stream fits its primary block, so a
// reader holding that block needs no table lookup and no chain walk.
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
func RewriteAsReplica(stream []byte, group []rma.DPtr) []byte {
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
func TableEntry(buf []byte, i int) rma.DPtr {
	return rma.DPtr(binary.LittleEndian.Uint64(buf[HeaderSize+8*i:]))
}

// SetTableEntry writes the DPtr of continuation block i into the stream.
func SetTableEntry(buf []byte, i int, dp rma.DPtr) {
	binary.LittleEndian.PutUint64(buf[HeaderSize+8*i:], uint64(dp))
}

// TableEntryOffset returns the logical offset of table entry i; callers use
// it to assert the streaming-read invariant (entry i inside block ≤ i).
func TableEntryOffset(i int) int { return HeaderSize + 8*i }
