// Package query is the declarative traversal/pattern-match front end over
// the transactional core: k-hop expansion with per-hop direction masks and
// label/property predicates, triangle and fixed-length simple-path motifs,
// plus a limit/projection step — the interactive-query taxonomy of
// "Demystifying Graph Databases" compiled onto the engine's future/batch
// API.
//
// The compiled executor (Run) turns every hop into ONE batched round: the
// frontier goes to core.Tx.ExpandFrontier, which dedups it, stamps the guard
// words and reads the holders — cached blocks locally, the rest as one
// vectored GET train per owner rank per round — into the transaction's
// pooled frontier arena, evaluates the hop's predicate in place on the
// encoded label/property entries, harvests the next frontier straight off
// the edge runs, and records one (vertex, version) pair per vertex for
// commit-time validation. A hop materializes no handle and allocates nothing per vertex;
// only vertex IDs travel between hops. The final round of a k-hop is one
// call (core.Tx.FilterNeighbors): it reads the layer before the last as a
// hop does, ORs the neighbors it harvests into the hop's paged bitmap over
// the DPtr space, less the layers before the last, and only filters the last
// layer, so it fetches each holder of that layer just up to the end of its
// entries — the primary block for all but mega-hubs — not its edge chain.
// Forwarding stubs, follower-served vertices and locking transactions fall
// back to one AssociateVertices batch inside the same call. A k-hop pattern
// therefore costs k+1 rounds regardless of frontier width, where the naive
// reference (RunNaive) pays one scalar AssociateVertex round-trip per
// frontier vertex.
//
// LIMIT is applied as a bounded top-k over the matched IDs in canonical
// order, and only the rows it keeps are built. A projection costs no round
// of its own: the final round hands back, with each ID it returns, the
// value of the projected property, copied out of the entries it has just
// read and matched (or out of the handle it saw the vertex through), so the
// rows are built without an association, and Commit validates the value as
// part of the read that matched. LIMIT also stops the last hop early, which
// reads its candidates straight off the bitmap, whose bit order is
// ascending DPtr order: a candidate is an 8-byte DPtr until the hop reads
// it. One forwarding word per owner rank, or a stamp, shows which DPtrs are
// forwarding stubs, resolved first; every other DPtr is its vertex's ID.
// The hop reads the next set bits after a cursor, a chunk at a time, until
// LIMIT matched IDs sort below the next set bit, and then clears the pages
// the harvest touched.
//
// Both executors return canonically sorted rows, so their results are
// bit-identical — the golden-equivalence contract the tests pin across
// replicated stores, migrated vertices, and optimistic and locking
// transactions.
package query

import (
	"errors"
	"fmt"
	"slices"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/lpg"
)

// Kind selects the match shape.
type Kind uint8

const (
	// KHop matches the vertices reached after exactly len(Hops) expansion
	// steps (BFS layering: a vertex reached at an earlier hop is not
	// re-reported at a later one). Rows carry one vertex.
	KHop Kind = iota
	// Triangle matches triangles through the source: pairs of neighbors
	// (b, c) of the source that are themselves adjacent, under Hops[0]'s
	// mask and predicate. Rows carry (src, b, c) with b < c.
	Triangle
	// Path matches simple paths of exactly len(Hops) edges rooted at the
	// source, each hop under its own mask and predicate; no vertex repeats
	// inside one path. Rows carry the full path, source first.
	Path
)

func (k Kind) String() string {
	switch k {
	case KHop:
		return "k-hop"
	case Triangle:
		return "triangle"
	case Path:
		return "path"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Hop is one expansion step: which edge directions to follow and which
// predicate the vertices reached by the step must satisfy (nil = all).
type Hop struct {
	Mask core.DirMask
	Cons *constraint.Constraint
}

// Pattern is a declarative match request rooted at one source vertex.
type Pattern struct {
	Kind Kind
	// Hops drives KHop and Path shapes hop by hop. Triangle uses Hops[0]
	// (mask + predicate on both far corners); it defaults to MaskAll/nil
	// when absent.
	Hops []Hop
	// Limit caps the rows returned, applied AFTER the canonical sort so a
	// limited result is a deterministic prefix; 0 means unlimited.
	Limit int
	// Project, when HasProject, attaches the named property of each row's
	// last vertex to the row.
	Project    lpg.PTypeID
	HasProject bool
}

// Row is one match: the witnessing vertices (length depends on Kind) and,
// under projection, the projected property of the last vertex.
type Row struct {
	Verts []fabric.DPtr
	Prop  []byte
	OK    bool // projection present on the vertex
}

// Result is a canonically ordered set of rows: sorted lexicographically by
// Verts, deduped, then cut to Pattern.Limit.
type Result struct {
	Rows []Row
}

// Errors returned by pattern validation.
var (
	ErrBadPattern = errors.New("query: bad pattern")
)

// MaxHops bounds a pattern's traversal depth.
const MaxHops = 16

// Validate rejects patterns the executors cannot run.
func (p *Pattern) Validate() error {
	switch p.Kind {
	case KHop, Path:
		if len(p.Hops) == 0 {
			return fmt.Errorf("%w: %s needs at least one hop", ErrBadPattern, p.Kind)
		}
	case Triangle:
		if len(p.Hops) > 1 {
			return fmt.Errorf("%w: triangle takes at most one hop spec", ErrBadPattern)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadPattern, uint8(p.Kind))
	}
	if len(p.Hops) > MaxHops {
		return fmt.Errorf("%w: %d hops exceeds the limit of %d", ErrBadPattern, len(p.Hops), MaxHops)
	}
	for i, h := range p.Hops {
		if h.Mask == 0 || h.Mask&^core.MaskAll != 0 {
			return fmt.Errorf("%w: hop %d has invalid direction mask %#x", ErrBadPattern, i, uint8(h.Mask))
		}
	}
	if p.Limit < 0 {
		return fmt.Errorf("%w: negative limit", ErrBadPattern)
	}
	return nil
}

// executor is what the two executors differ in: how a frontier is expanded
// (IDs in, IDs out), how a k-hop's final round filters and projects its last
// layer, and how the vertices whose own adjacency a shape walks are
// associated. The compiled one batches either into one round; the naive one
// pays a scalar association per vertex. Everything downstream — predicate
// filtering, dedup, harvest order, canonical sort — is shared, which is what
// makes the golden-equivalence guarantee structural rather than coincidental.
type executor struct {
	// expand filters frontier by cons and harvests the matched vertices'
	// distinct neighbors under mask (core.Tx.ExpandFrontier's contract).
	expand func(frontier []fabric.DPtr, mask core.DirMask, cons *constraint.Constraint) (matched, next []fabric.DPtr, err error)
	// final is a k-hop's final round: it expands frontier as expand does
	// and returns the neighbors, less the DPtrs exclude names, that satisfy
	// last, of which a LIMIT keeps the limit smallest, and, aligned with
	// them, their values of project (none when project is 0)
	// (core.Tx.FilterNeighbors' contract).
	final func(frontier []fabric.DPtr, cons *constraint.Constraint, mask core.DirMask, exclude []fabric.DPtr, last *constraint.Constraint, limit int, project lpg.PTypeID) ([]fabric.DPtr, []core.Projected, error)
	// associate returns a handle per vertex, aligned with dps; a vertex that
	// no longer exists is an ErrNotFound.
	associate func(dps []fabric.DPtr) ([]*core.VertexHandle, error)
}

// Run executes the pattern with the compiled frontier-batched plan: one
// batched round (one train per owner rank) per hop.
func Run(tx *core.Tx, src fabric.DPtr, p *Pattern) (*Result, error) {
	return run(src, p, compiled(tx))
}

// compiled is Run's executor on tx.
func compiled(tx *core.Tx) executor {
	return executor{
		expand:    tx.ExpandFrontier,
		final:     tx.FilterNeighbors,
		associate: func(dps []fabric.DPtr) ([]*core.VertexHandle, error) { return associateAll(tx, dps) },
	}
}

// associateAll is one AssociateVertices round in which a vertex that no
// longer exists is an error — the read set is stale — not a nil handle.
func associateAll(tx *core.Tx, dps []fabric.DPtr) ([]*core.VertexHandle, error) {
	hs, err := tx.AssociateVertices(dps)
	if err != nil {
		return nil, err
	}
	for i, h := range hs {
		if h == nil {
			return nil, fmt.Errorf("%w: vertex %v no longer exists", core.ErrNotFound, dps[i])
		}
	}
	return hs, nil
}

// RunNaive executes the pattern with the per-vertex reference walk: one
// scalar AssociateVertex per frontier vertex per hop. It is the golden
// reference Run is tested against, and the benchmark module's result check
// calls it.
func RunNaive(tx *core.Tx, src fabric.DPtr, p *Pattern) (*Result, error) {
	return run(src, p, executor{
		expand: func(frontier []fabric.DPtr, mask core.DirMask, cons *constraint.Constraint) (matched, next []fabric.DPtr, err error) {
			kept, next, err := naiveHop(tx, frontier, nil, mask, cons)
			return ids(kept), next, err
		},
		final: func(frontier []fabric.DPtr, cons *constraint.Constraint, mask core.DirMask, exclude []fabric.DPtr, last *constraint.Constraint, _ int, project lpg.PTypeID) ([]fabric.DPtr, []core.Projected, error) {
			_, next, err := naiveHop(tx, frontier, nil, mask, cons)
			if err != nil {
				return nil, nil, err
			}
			kept, _, err := naiveHop(tx, next, exclude, 0, last)
			if err != nil {
				return nil, nil, err
			}
			found := tuples{w: 1}
			for _, h := range kept {
				found.add(project, h, h.ID())
			}
			return found.v, found.props, nil
		},
		associate: func(dps []fabric.DPtr) ([]*core.VertexHandle, error) {
			hs := make([]*core.VertexHandle, len(dps))
			for i, dp := range dps {
				var err error
				if hs[i], err = tx.AssociateVertex(dp); err != nil {
					return nil, err
				}
			}
			return hs, nil
		},
	})
}

func run(src fabric.DPtr, p *Pattern, ex executor) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var (
		found tuples
		err   error
	)
	switch p.Kind {
	case KHop:
		found, err = runKHop(src, p, ex)
	case Triangle:
		found, err = runTriangle(src, p, ex)
	case Path:
		found, err = runPath(src, p, ex)
	}
	if err != nil {
		return nil, err
	}
	return finish(p, found), nil
}

// projection is the p-type whose values the rows carry: 0 (lpg.IDEmpty),
// which no entry has, unless the pattern projects.
func (p *Pattern) projection() lpg.PTypeID {
	if !p.HasProject {
		return 0
	}
	return p.Project
}

// tuples is a set of witness tuples of one width, stored flat: tuple i is
// v[i*w:(i+1)*w]. Every shape yields one width — 1 for k-hop, 3 for
// triangles, len(Hops)+1 for paths — so the executors carry IDs, never rows,
// and only the rows a result keeps are ever built. Under projection,
// props[i] is the projected value on tuple i's last vertex, which the shape
// read to match it; without, props is nil.
type tuples struct {
	w     int
	v     []fabric.DPtr
	props []core.Projected
}

func (t tuples) len() int { return len(t.v) / t.w }

func (t tuples) at(i int) []fabric.DPtr { return t.v[i*t.w : (i+1)*t.w] }

// add appends the tuple vs and, when project is not 0, the value of
// project on h, the handle of vs's last vertex.
func (t *tuples) add(project lpg.PTypeID, h *core.VertexHandle, vs ...fabric.DPtr) {
	t.v = append(t.v, vs...)
	if project != 0 {
		val, ok := h.Property(project)
		t.props = append(t.props, core.Projected{Value: val, OK: ok})
	}
}

// runKHop is BFS layering: round i expands the layer-i frontier (one train
// per rank under the compiled executor), filtering it by the predicate of the
// hop that reached it and harvesting the next layer under hop i's mask. The
// final round harvests the last layer and filters it, less the layers before
// it (its exclude set), under the pattern's LIMIT, in one call that never
// lists the layer. Visited vertices never re-enter a frontier, so a k-hop
// costs exactly k+1 rounds. Only IDs travel between.
func runKHop(src fabric.DPtr, p *Pattern, ex executor) (tuples, error) {
	// visited holds the layers before the next one, sorted.
	frontier, visited := []fabric.DPtr{src}, []fabric.DPtr{src}
	var cons *constraint.Constraint
	final := len(p.Hops) - 1
	for _, hop := range p.Hops[:final] {
		_, next, err := ex.expand(frontier, hop.Mask, cons)
		if err != nil {
			return tuples{}, err
		}
		// next is already distinct, so it only has to be told from the
		// layers before it.
		frontier = slices.DeleteFunc(next, func(nb fabric.DPtr) bool {
			_, seen := slices.BinarySearch(visited, nb)
			return seen
		})
		visited = append(visited, frontier...)
		slices.Sort(visited)
		cons = hop.Cons
	}
	hop := p.Hops[final]
	last, vals, err := ex.final(frontier, cons, hop.Mask, visited, hop.Cons, p.Limit, p.projection())
	return tuples{w: 1, v: last, props: vals}, err
}

// filterHandles is expand's filter step for the shapes that go on to walk
// each survivor's own adjacency: the distinct vertices among hs that satisfy
// cons, in order.
func filterHandles(hs []*core.VertexHandle, cons *constraint.Constraint) []*core.VertexHandle {
	kept := hs[:0]
	seen := make(map[fabric.DPtr]struct{}, len(hs))
	for _, h := range hs {
		if _, dup := seen[h.ID()]; dup {
			continue
		}
		seen[h.ID()] = struct{}{}
		if h.Matches(cons) {
			kept = append(kept, h)
		}
	}
	return kept
}

// runTriangle closes wedges: expand the source for its neighbors, associate
// them in one round, keep those matching the predicate, and report every
// matched pair that is itself adjacent under the same mask, projecting
// through the far corner's handle. Two rounds total.
func runTriangle(src fabric.DPtr, p *Pattern, ex executor) (tuples, error) {
	hop := Hop{Mask: core.MaskAll}
	if len(p.Hops) == 1 {
		hop = p.Hops[0]
	}
	_, nbs, err := ex.expand([]fabric.DPtr{src}, hop.Mask, nil)
	if err != nil {
		return tuples{}, err
	}
	corners := nbs[:0]
	for _, nb := range nbs {
		if nb != src {
			corners = append(corners, nb)
		}
	}
	hs, err := ex.associate(corners)
	if err != nil {
		return tuples{}, err
	}
	matched := filterHandles(hs, hop.Cons)
	inSet := make(map[fabric.DPtr]*core.VertexHandle, len(matched))
	for _, h := range matched {
		inSet[h.ID()] = h
	}
	found := tuples{w: 3}
	for _, hb := range matched {
		b := hb.ID()
		if err := hb.ForEachNeighbor(hop.Mask, func(c fabric.DPtr) {
			if c <= b {
				return // each closing edge reports once, b < c
			}
			if hc, ok := inSet[c]; ok {
				found.add(p.projection(), hc, src, b, c)
			}
		}); err != nil {
			return tuples{}, err
		}
	}
	return found.dedup(), nil
}

// runPath enumerates simple paths level by level: round i associates the
// distinct depth-i path tails in one train per rank, prunes paths whose tail
// fails the predicate of the hop that reached it, and extends the survivors
// under hop i's mask, skipping vertices already on the path. A path that
// survives the final depth projects through its tail's handle.
func runPath(src fabric.DPtr, p *Pattern, ex executor) (tuples, error) {
	paths := tuples{w: 1, v: []fabric.DPtr{src}}
	for i := 0; i <= len(p.Hops); i++ {
		var cons *constraint.Constraint
		if i > 0 {
			cons = p.Hops[i-1].Cons
		}
		// One association round for ALL tails at this depth.
		var tails []fabric.DPtr
		tailSeen := make(map[fabric.DPtr]struct{})
		for k := 0; k < paths.len(); k++ {
			t := paths.at(k)[paths.w-1]
			if _, dup := tailSeen[t]; !dup {
				tailSeen[t] = struct{}{}
				tails = append(tails, t)
			}
		}
		hs, err := ex.associate(tails)
		if err != nil {
			return tuples{}, err
		}
		byTail := make(map[fabric.DPtr]*core.VertexHandle, len(hs))
		for _, h := range filterHandles(hs, cons) {
			byTail[h.ID()] = h
		}
		// Keep the paths whose tail survived the predicate; below the final
		// depth, each of them extended by every neighbor not yet on it.
		next := tuples{w: paths.w}
		if i < len(p.Hops) {
			next.w++
		}
		for k := 0; k < paths.len(); k++ {
			path := paths.at(k)
			h, ok := byTail[path[paths.w-1]]
			if !ok {
				continue
			}
			if i == len(p.Hops) {
				next.add(p.projection(), h, path...)
				continue
			}
			if err := h.ForEachNeighbor(p.Hops[i].Mask, func(nb fabric.DPtr) {
				if !slices.Contains(path, nb) { // simple paths only
					next.v = append(append(next.v, path...), nb)
				}
			}); err != nil {
				return tuples{}, err
			}
		}
		paths = next
	}
	return paths.dedup(), nil
}

// naiveHop is core.Tx.ExpandFrontier's contract on handles, over the
// frontier less what exclude names (with mask 0, FilterFrontier's, every
// match returned): same dedup, filter and harvest order, but one scalar
// association round-trip per frontier vertex. It returns the matched
// vertices' handles.
func naiveHop(tx *core.Tx, frontier, exclude []fabric.DPtr, mask core.DirMask, cons *constraint.Constraint) (kept []*core.VertexHandle, next []fabric.DPtr, err error) {
	seenV := make(map[fabric.DPtr]struct{}, len(frontier))
	for _, dp := range frontier {
		if slices.Contains(exclude, dp) {
			continue
		}
		h, err := tx.AssociateVertex(dp)
		if err != nil {
			return nil, nil, err
		}
		if _, dup := seenV[h.ID()]; dup {
			continue
		}
		seenV[h.ID()] = struct{}{}
		if h.Matches(cons) {
			kept = append(kept, h)
		}
	}
	if mask == 0 {
		return kept, nil, nil
	}
	seenN := make(map[fabric.DPtr]struct{})
	for _, h := range kept {
		if err := h.ForEachNeighbor(mask, func(nb fabric.DPtr) {
			if _, dup := seenN[nb]; !dup {
				seenN[nb] = struct{}{}
				next = append(next, nb)
			}
		}); err != nil {
			return nil, nil, err
		}
	}
	return kept, next, nil
}

// ids is the IDs of hs, in order.
func ids(hs []*core.VertexHandle) []fabric.DPtr {
	var out []fabric.DPtr
	for _, h := range hs {
		out = append(out, h.ID())
	}
	return out
}

// finish puts the found tuples in canonical order — lexicographic — keeps the
// first Pattern.Limit of them, and only then builds rows: a limited result
// selects its rows with a bounded top-k instead of sorting, or even
// materializing, the rows it drops. Under projection each row takes the
// value its tuple carries, which the shape read with the vertex: building
// the rows reads and communicates nothing.
func finish(p *Pattern, found tuples) *Result {
	keep := found.len()
	if p.Limit > 0 && keep > p.Limit {
		keep = p.Limit
	}
	top := found.smallest(keep)
	rows := make([]Row, len(top))
	verts := make([]fabric.DPtr, 0, len(top)*found.w)
	for k, i := range top {
		verts = append(verts, found.at(int(i))...)
		rows[k].Verts = verts[len(verts)-found.w : len(verts) : len(verts)]
		if found.props != nil {
			rows[k].Prop, rows[k].OK = found.props[i].Value, found.props[i].OK
		}
	}
	return &Result{Rows: rows}
}

// smallest returns the indices of the k canonically smallest tuples, in
// canonical order. With k below the set's size it is a bounded top-k: one
// pass over the tuples against a max-heap of the k best so far — O(n log k)
// comparisons and k words of memory, where sorting all n would spend
// O(n log n) on rows the limit then drops.
func (t tuples) smallest(k int) []int32 {
	cmp := func(i, j int32) int { return slices.Compare(t.at(int(i)), t.at(int(j))) }
	less := func(i, j int32) bool { return cmp(i, j) < 0 }
	heap := make([]int32, 0, k)
	// down restores the max-heap below position i.
	down := func(i int) {
		for {
			big := i
			for c := 2*i + 1; c <= 2*i+2 && c < len(heap); c++ {
				if less(heap[big], heap[c]) {
					big = c
				}
			}
			if big == i {
				return
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	for i := int32(0); int(i) < t.len(); i++ {
		switch {
		case len(heap) < k:
			heap = append(heap, i)
			if len(heap) == k {
				for j := k/2 - 1; j >= 0; j-- {
					down(j)
				}
			}
		case k > 0 && less(i, heap[0]):
			heap[0] = i
			down(0)
		}
	}
	slices.SortFunc(heap, cmp)
	return heap
}

// dedup removes duplicate tuples (paths revisited through parallel edges,
// wedges closed by multi-edges) without disturbing order.
func (t tuples) dedup() tuples {
	seen := make(map[string]struct{}, t.len())
	out := tuples{w: t.w, v: t.v[:0], props: t.props[:0]}
	for i := 0; i < t.len(); i++ {
		k := vertsKey(t.at(i))
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.v = append(out.v, t.at(i)...)
		if t.props != nil {
			out.props = append(out.props, t.props[i])
		}
	}
	return out
}

func vertsKey(vs []fabric.DPtr) string {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = append(b,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}
