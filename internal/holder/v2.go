package holder

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/rma"
)

// The v2 holder codec ("storage engine v2"): the header, block table, home
// list, and replica-group regions keep the fixed v1 layout — every in-place
// mutation the system performs on a stream (SetTableEntry, RewriteAsReplica,
// the replica flag OR) touches only those regions, so it works identically on
// both formats — while the two variable regions switch to delta+varint
// encodings and swap places:
//
//	header | table | homes | replicas | entries | edges | unused
//
//	entries  the package lpg varint entry format (no padding, no terminator)
//	edges    runs of consecutive records sharing (direction, heavy, label):
//	         uvarint run header (count<<3 | heavy<<2 | dir), uvarint label,
//	         the first neighbor DPtr as an absolute uvarint, every following
//	         neighbor as a zig-zag varint delta from its predecessor
//
// v1 keeps the paper's Figure 3 order (edges, then entries), where fixed
// 16-byte records make the entry offset a multiplication. A varint edge
// region has no such closed form — its length is only known by walking it,
// and the 32-byte header has no room for it — so v2 puts the entries first:
// their offset and length follow from the header alone, a reader that wants
// a vertex's labels or properties never touches (or even fetches) its
// adjacency, and an edge appended at the tail moves no property byte. The
// cost of a property read is then O(label/property bytes) whatever the
// degree; the edge runs are parsed, and validated, by the first walk that
// actually wants them.
//
// Records stay in insertion order — the edge UID contract (UID = record
// index, deletion is by index) forbids sorting — and the zig-zag deltas
// compress unsorted neighbors just as well when they share a rank, which is
// the common case hyper-partitioned placement produces: a run of same-rank
// neighbors costs 2–4 bytes per record instead of v1's fixed 16.
//
// A v2 stream is tagged with flagV2 in the header; DecodeVertex/DecodeEdge
// dispatch on the flag, so v1 and v2 holders coexist freely in one store and
// a store written under either codec is readable under the other. Every v2
// decode path returns an error on malformed input instead of panicking.

// Codec selects the holder wire format an engine writes. Decoding always
// auto-detects per stream, so the codec choice never affects readability.
type Codec uint8

const (
	// CodecV1 is the fixed-width format: 16-byte edge records, padded
	// 8-byte-header entries. The default and the ablation baseline.
	CodecV1 Codec = iota
	// CodecV2 is the compressed format: delta+varint edge runs, varint
	// entries, and the inline single-block flag.
	CodecV2
)

// String names the codec.
func (c Codec) String() string {
	switch c {
	case CodecV1:
		return "v1"
	case CodecV2:
		return "v2"
	default:
		return fmt.Sprintf("Codec(%d)", uint8(c))
	}
}

// ParseCodec parses a -holder-codec flag value.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "v1", "1", "":
		return CodecV1, nil
	case "v2", "2":
		return CodecV2, nil
	default:
		return CodecV1, fmt.Errorf("holder: unknown codec %q (want v1 or v2)", s)
	}
}

// edgesSizeV2 returns the encoded byte size of recs in the v2 run format
// without building the region.
func edgesSizeV2(recs []EdgeRec) int {
	size := 0
	for i := 0; i < len(recs); {
		r0 := recs[i]
		j := i + 1
		for j < len(recs) && recs[j].Dir == r0.Dir && recs[j].Heavy == r0.Heavy && recs[j].Label == r0.Label {
			j++
		}
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

// appendEdgesV2 encodes recs into the v2 run format.
func appendEdgesV2(dst []byte, recs []EdgeRec) []byte {
	for i := 0; i < len(recs); {
		r0 := recs[i]
		j := i + 1
		for j < len(recs) && recs[j].Dir == r0.Dir && recs[j].Heavy == r0.Heavy && recs[j].Label == r0.Label {
			j++
		}
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

// forEachEdgeV2 parses a v2 edge region in place, calling fn for each of the
// numEdges records in order until fn returns false, and returns how many
// bytes of the region it decoded — the whole region after a full walk, only
// the prefix an early stop needed. It never panics on corrupt input; records
// ahead of the corruption have been yielded by the time it is found.
func forEachEdgeV2(buf []byte, numEdges int, fn func(EdgeRec) bool) (consumed int, err error) {
	off, decoded := 0, 0
	for decoded < numEdges {
		hdr, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return off, fmt.Errorf("holder: malformed v2 run header at offset %d", off)
		}
		off += n
		count := int(hdr >> 3)
		if count <= 0 || count > numEdges-decoded {
			return off, fmt.Errorf("holder: v2 run of %d records, %d remaining", count, numEdges-decoded)
		}
		dir := Direction(hdr & 0x3)
		if dir > DirUndirected {
			return off, fmt.Errorf("holder: v2 run with direction %d", dir)
		}
		heavy := hdr&(1<<2) != 0
		label, n := binary.Uvarint(buf[off:])
		if n <= 0 || label > math.MaxUint32 {
			return off, fmt.Errorf("holder: malformed v2 run label at offset %d", off)
		}
		off += n
		first, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return off, fmt.Errorf("holder: malformed v2 neighbor at offset %d", off)
		}
		off += n
		nbr := first
		for k := 0; k < count; k++ {
			if k > 0 {
				delta, n := binary.Varint(buf[off:])
				if n <= 0 {
					return off, fmt.Errorf("holder: malformed v2 delta at offset %d", off)
				}
				off += n
				nbr = uint64(int64(nbr) + delta)
			}
			if !fn(EdgeRec{
				Neighbor: rma.DPtr(nbr),
				Dir:      dir,
				Heavy:    heavy,
				Label:    lpg.LabelID(label),
			}) {
				return off, nil
			}
		}
		decoded += count
	}
	return off, nil
}

// contentSizeVertexV2 returns the logical v2 byte size of v excluding slack,
// with the edge and entry region sizes precomputed by the caller (they do
// not depend on the block count, so the fixed point recomputes only the
// fixed-width regions).
func contentSizeVertexV2(v *Vertex, numBlocks, edgeBytes, entryBytes int) int {
	return HeaderSize + 8*(numBlocks-1) + 8*len(v.Homes) + 8*len(v.Replicas)*numBlocks +
		edgeBytes + entryBytes
}

// vertexBlocksV2 returns how many blocks v needs at the given block size
// under the v2 codec.
func vertexBlocksV2(v *Vertex, blockSize int) int {
	edgeBytes := edgesSizeV2(v.Edges)
	entryBytes := lpg.EntriesSizeVar(v.Labels, v.Props)
	return blocksFor(func(n int) int { return contentSizeVertexV2(v, n, edgeBytes, entryBytes) }, blockSize)
}

// encodeVertexV2 serializes v into a v2 logical stream of exactly
// vertexBlocksV2(v)·blockSize bytes. Like EncodeVertex, the block table is
// zeroed for the caller to fill.
func encodeVertexV2(v *Vertex, blockSize int) []byte {
	edgeBytes := edgesSizeV2(v.Edges)
	entryRegion := lpg.EncodeEntriesVar(v.Labels, v.Props)
	numBlocks := blocksFor(func(n int) int { return contentSizeVertexV2(v, n, edgeBytes, len(entryRegion)) }, blockSize)
	buf := make([]byte, numBlocks*blockSize)

	flags := uint32(flagV2)
	if v.IsReplica {
		flags |= flagReplica
	}
	if numBlocks == 1 {
		flags |= flagInline
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
	off += copy(buf[off:], entryRegion)
	// Append in place: buf[:off] has capacity for the whole stream, so the
	// varint appends land directly in the slack-backed buffer.
	edges := appendEdgesV2(buf[:off], v.Edges)
	if len(edges) != off+edgeBytes {
		panic(fmt.Sprintf("holder: v2 edge region of %d bytes, sized %d", len(edges)-off, edgeBytes))
	}
	return buf
}

// decodeVertexV2 parses a v2 logical stream; checkHeader has already
// validated the prefix and flags.
func decodeVertexV2(buf []byte, numBlocks int, flags uint32) (*Vertex, error) {
	numEdges := int(binary.LittleEndian.Uint32(buf[4:]))
	entryBytes := int(binary.LittleEndian.Uint32(buf[8:]))
	numHomes := int(binary.LittleEndian.Uint32(buf[24:]))
	numReplicas := int(binary.LittleEndian.Uint32(buf[28:]))
	v := &Vertex{AppID: binary.LittleEndian.Uint64(buf[16:]), IsReplica: flags&flagReplica != 0, Codec: CodecV2}
	off, err := fixedRegionsEnd(buf, numBlocks, numHomes, numReplicas)
	if err != nil {
		return nil, err
	}
	if numHomes > 0 {
		v.Homes = make([]rma.DPtr, 0, numHomes)
		for i := 0; i < numHomes; i++ {
			v.Homes = append(v.Homes, rma.DPtr(binary.LittleEndian.Uint64(buf[off:])))
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
	if entryBytes > len(buf)-off {
		return nil, fmt.Errorf("holder: truncated v2 entry region (%d bytes, %d left)", entryBytes, len(buf)-off)
	}
	v.Labels, v.Props, err = lpg.SplitEntriesVar(buf[off : off+entryBytes])
	if err != nil {
		return nil, err
	}
	off += entryBytes
	if numEdges > 0 {
		// Every record takes at least one byte, which bounds the allocation
		// a corrupt count could ask for.
		if numEdges > len(buf)-off {
			return nil, fmt.Errorf("holder: v2 holder claims %d edges in %d bytes", numEdges, len(buf)-off)
		}
		v.Edges = make([]EdgeRec, 0, numEdges)
		if _, err := forEachEdgeV2(buf[off:], numEdges, func(rec EdgeRec) bool {
			v.Edges = append(v.Edges, rec)
			return true
		}); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// fixedRegionsEnd bound-checks the fixed-width regions (table, homes,
// replica groups) against the buffer and returns the offset of the first
// variable region. Shared by both decoders; every arithmetic step is guarded
// so arbitrary header values cannot overflow into a false bound.
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

// EncodeVertexCodec serializes v under the given codec. CodecV1 produces the
// seed fixed-width format; CodecV2 the compressed format.
func EncodeVertexCodec(v *Vertex, blockSize int, c Codec) []byte {
	if c == CodecV2 {
		return encodeVertexV2(v, blockSize)
	}
	return EncodeVertex(v, blockSize)
}

// VertexBlocksCodec returns how many blocks v needs at the given block size
// under the given codec. It always agrees with len(EncodeVertexCodec)/blockSize.
func VertexBlocksCodec(v *Vertex, blockSize int, c Codec) int {
	if c == CodecV2 {
		return vertexBlocksV2(v, blockSize)
	}
	return VertexBlocks(v, blockSize)
}

// contentSizeEdgeV2 returns the logical v2 byte size of e excluding slack.
func contentSizeEdgeV2(e *Edge, numBlocks, entryBytes int) int {
	return HeaderSize + 8*(numBlocks-1) + 8 + entryBytes
}

// edgeBlocksV2 returns how many blocks e needs under the v2 codec.
func edgeBlocksV2(e *Edge, blockSize int) int {
	entryBytes := lpg.EntriesSizeVar(e.Labels, e.Props)
	return blocksFor(func(n int) int { return contentSizeEdgeV2(e, n, entryBytes) }, blockSize)
}

// encodeEdgeV2 serializes a heavy-edge holder under the v2 codec: the fixed
// endpoint header and direction word stay, the entry region goes varint.
func encodeEdgeV2(e *Edge, blockSize int) []byte {
	entryRegion := lpg.EncodeEntriesVar(e.Labels, e.Props)
	numBlocks := blocksFor(func(n int) int { return contentSizeEdgeV2(e, n, len(entryRegion)) }, blockSize)
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

// EncodeEdgeCodec serializes a heavy-edge holder under the given codec.
func EncodeEdgeCodec(e *Edge, blockSize int, c Codec) []byte {
	if c == CodecV2 {
		return encodeEdgeV2(e, blockSize)
	}
	return EncodeEdge(e, blockSize)
}

// EdgeBlocksCodec returns how many blocks e needs under the given codec.
func EdgeBlocksCodec(e *Edge, blockSize int, c Codec) int {
	if c == CodecV2 {
		return edgeBlocksV2(e, blockSize)
	}
	return EdgeBlocks(e, blockSize)
}
