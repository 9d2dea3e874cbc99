package route

import (
	"fmt"
	"sort"

	"oarsmt/internal/errs"
	"oarsmt/internal/grid"
)

// OARMST builds an obstacle-avoiding rectilinear minimum spanning tree
// connecting all terminals with the maze-router-based Prim's algorithm of
// [14]: the tree starts at one terminal and is repeatedly extended by the
// cheapest maze-routed path from any point of the current tree to the
// nearest unconnected terminal. Because new paths may attach to any tree
// vertex — not only terminals — the construction creates Steiner branching
// implicitly.
//
// Terminals are deduplicated; at least one is required. The result is
// deterministic: terminals are seeded from the smallest VertexID and all
// Dijkstra ties break on vertex ID.
func (r *Router) OARMST(terminals []grid.VertexID) (*Tree, error) {
	mOARMSTBuilds.Inc()
	terms := dedupSorted(terminals)
	if len(terms) == 0 {
		return nil, fmt.Errorf("%w: route: OARMST needs at least one terminal", errs.ErrInvalidLayout)
	}
	for _, t := range terms {
		if r.g.Blocked(t) {
			return nil, fmt.Errorf("%w: route: terminal %v is blocked", errs.ErrInvalidLayout, r.g.CoordOf(t))
		}
	}

	if !r.BoundedExploration && r.Bounds == nil {
		tree, absorbed, err := r.oarmstIncremental(terms)
		if !absorbed {
			return tree, err
		}
		// An absorbed edge cost voids the incremental invariants; the
		// per-step loop below is exact for any costs.
	}
	return r.oarmstPerStep(terms)
}

// oarmstIncremental is the maze-Prim of OARMST with one label field and
// one heap kept across Prim steps: each step seeds only the vertices the
// previous path added at distance 0 and resumes the search, so a vertex
// is re-relaxed only where its distance to the grown tree improved (see
// settle for why the result matches a fresh search per step). absorbed
// reports a relaxation whose cost vanished in the label's rounding; the
// caller then rebuilds with the per-step loop.
func (r *Router) oarmstIncremental(terms []grid.VertexID) (tree *Tree, absorbed bool, err error) {
	r.nextEpoch()
	r.nextAuxEpoch()
	r.heap = r.heap[:0]
	r.ctxErr = nil
	for _, t := range terms[1:] {
		r.tag[t] = r.repoch
	}
	isTarget := func(v grid.VertexID) bool { return r.tag[v] == r.repoch }
	tree = newTree(terms[0])
	r.seed(terms[0])
	for range terms[1:] { // one Prim step joins one terminal
		if r.cancelled() || r.injectFault() {
			return nil, false, fmt.Errorf("route: OARMST: %w", r.ctxErr)
		}
		t, ok, absorbed := r.settle(isTarget, true)
		if absorbed {
			return nil, true, nil
		}
		if !ok {
			if r.ctxErr != nil {
				return nil, false, fmt.Errorf("route: OARMST: %w", r.ctxErr)
			}
			// Report a deterministic representative of the unreachable
			// set: the smallest terminal still tagged.
			worst := terms[1]
			for _, v := range terms[1:] {
				if isTarget(v) {
					worst = v
					break
				}
			}
			return nil, false, &ErrUnreachable{Terminal: worst, Coord: r.g.CoordOf(worst)}
		}
		r.tag[t] = 0
		for _, v := range tree.addPath(r.g, r.trace(t)) {
			r.seed(v)
		}
	}
	return tree, false, nil
}

// oarmstPerStep is the maze-Prim of OARMST with a fresh multi-source
// search per Prim step. It serves bounded exploration, whose windows
// change every step, searches under caller-set Bounds, and builds that
// meet an absorbed edge cost.
func (r *Router) oarmstPerStep(terms []grid.VertexID) (*Tree, error) {
	tree := newTree(terms[0])
	remaining := make(map[grid.VertexID]struct{}, len(terms)-1)
	for _, t := range terms[1:] {
		remaining[t] = struct{}{}
	}

	// The Dijkstra frontier is seeded with every tree vertex; the source
	// list is maintained incrementally as paths join the tree.
	sources := []grid.VertexID{terms[0]}
	for len(remaining) > 0 {
		if r.cancelled() {
			return nil, fmt.Errorf("route: OARMST: %w", r.ctxErr)
		}
		isTarget := func(v grid.VertexID) bool {
			_, isTerm := remaining[v]
			return isTerm
		}
		var path []grid.VertexID
		var ok bool
		if r.BoundedExploration {
			// Bounded exploration ([14]): window = tree box inflated to
			// reach the nearest remaining terminal plus the margin.
			treeBounds := BoundsOf(r.g, sources)
			dmin := -1
			//oarsmt:allow detmap(pure min-reduction over window distances; result is independent of visit order)
			for v := range remaining {
				if d := windowDistance(treeBounds, r.g.CoordOf(v)); dmin < 0 || d < dmin {
					dmin = d
				}
			}
			window := treeBounds.Inflate(dmin+r.BoundMargin, r.g)
			r.Bounds = &window
			path, _, ok = r.ShortestToTarget(sources, isTarget)
			r.Bounds = nil
		}
		if !ok {
			if r.ctxErr != nil {
				return nil, fmt.Errorf("route: OARMST: %w", r.ctxErr)
			}
			path, _, ok = r.ShortestToTarget(sources, isTarget)
		}
		if !ok {
			if r.ctxErr != nil {
				return nil, fmt.Errorf("route: OARMST: %w", r.ctxErr)
			}
			// Report a deterministic representative of the unreachable set.
			var worst grid.VertexID = -1
			//oarsmt:allow detmap(pure min-scan for the smallest unreachable terminal; order-insensitive)
			for v := range remaining {
				if worst == -1 || v < worst {
					worst = v
				}
			}
			return nil, &ErrUnreachable{Terminal: worst, Coord: r.g.CoordOf(worst)}
		}
		sources = append(sources, tree.addPath(r.g, path)...)
		delete(remaining, path[0]) // path[0] is the reached terminal
	}
	return tree, nil
}

// SteinerResult is the outcome of a Steiner-point-guided tree construction.
type SteinerResult struct {
	Tree *Tree
	// Kept holds the irredundant Steiner points that survived in the final
	// tree (degree >= 3, paper §2.1); sorted ascending.
	Kept []grid.VertexID
	// Dropped holds the requested Steiner points that were removed as
	// redundant or rejected as invalid (blocked / duplicate of a pin).
	Dropped []grid.VertexID
}

// SteinerTree implements the OARMST router of paper §3.1: build the
// spanning tree over pins plus the selected Steiner points, remove
// redundant Steiner points (degree < 3 in the routed tree), and
// reconstruct the spanning tree over the pins and the remaining
// irredundant Steiner points. Removal and reconstruction repeat until no
// Steiner point is redundant (the set shrinks monotonically, so this
// terminates).
//
// Invalid Steiner points — blocked vertices or vertices that coincide with
// a pin or another Steiner point — are dropped up front rather than
// reported as errors, because a learned selector may legitimately propose
// them.
func (r *Router) SteinerTree(pins, steiner []grid.VertexID) (*SteinerResult, error) {
	ps := dedupSorted(pins)
	if len(ps) == 0 {
		return nil, fmt.Errorf("%w: route: SteinerTree needs at least one pin", errs.ErrInvalidLayout)
	}
	pinSet := make(map[grid.VertexID]struct{}, len(ps))
	for _, p := range ps {
		pinSet[p] = struct{}{}
	}

	res := &SteinerResult{}
	// Obstacles can seal off pockets of free vertices; a Steiner point in
	// a pocket could never join the tree, so reachability from the pins is
	// part of validity.
	reachable := r.reachableFrom(ps[0])
	if r.ctxErr != nil {
		return nil, fmt.Errorf("route: SteinerTree: %w", r.ctxErr)
	}
	sps := make([]grid.VertexID, 0, len(steiner))
	for _, s := range dedupSorted(steiner) {
		if _, isPin := pinSet[s]; isPin || r.g.Blocked(s) || !reachable[s] {
			res.Dropped = append(res.Dropped, s)
			continue
		}
		sps = append(sps, s)
	}

	for {
		terms := make([]grid.VertexID, 0, len(ps)+len(sps))
		terms = append(terms, ps...)
		terms = append(terms, sps...)
		tree, err := r.OARMST(terms)
		if err != nil {
			return nil, err
		}
		deg := tree.Degrees()
		kept := sps[:0]
		for _, s := range sps {
			if deg[s] >= 3 {
				kept = append(kept, s)
			} else {
				res.Dropped = append(res.Dropped, s)
			}
		}
		if len(kept) == len(sps) || len(sps) == 0 {
			res.Tree = tree
			res.Kept = append([]grid.VertexID(nil), kept...)
			sort.Slice(res.Dropped, func(i, j int) bool { return res.Dropped[i] < res.Dropped[j] })
			return res, nil
		}
		sps = append([]grid.VertexID(nil), kept...)
	}
}

// windowDistance is the grid-space distance from a coordinate to a bounds
// window over the H and V axes (0 when inside).
func windowDistance(b Bounds, c grid.Coord) int {
	d := 0
	if c.H < b.HLo {
		d = max(d, b.HLo-c.H)
	}
	if c.H > b.HHi {
		d = max(d, c.H-b.HHi)
	}
	if c.V < b.VLo {
		d = max(d, b.VLo-c.V)
	}
	if c.V > b.VHi {
		d = max(d, c.V-b.VHi)
	}
	return d
}

// reachableFrom returns the set of free vertices reachable from the given
// vertex over unblocked edges (BFS, O(V+E)).
func (r *Router) reachableFrom(from grid.VertexID) []bool {
	reached := make([]bool, r.g.NumVertices())
	if r.g.Blocked(from) {
		return reached
	}
	reached[from] = true
	queue := []grid.VertexID{from}
	var buf []grid.Neighbor
	visits := 0
	for len(queue) > 0 {
		visits++
		if visits%ctxCheckInterval == 0 && r.cancelled() {
			return reached // partial; callers must consult r.ctxErr
		}
		v := queue[0]
		queue = queue[1:]
		buf = r.g.Neighbors(v, buf[:0])
		for _, nb := range buf {
			if !reached[nb.ID] {
				reached[nb.ID] = true
				queue = append(queue, nb.ID)
			}
		}
	}
	return reached
}

func dedupSorted(vs []grid.VertexID) []grid.VertexID {
	out := append([]grid.VertexID(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
