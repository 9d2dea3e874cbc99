package route

import (
	"math"
	"sort"

	"oarsmt/internal/grid"
)

// Retrace performs path-assessed retracing in the spirit of [14]: for each
// terminal that dangles on a degree-1 path, the path from the terminal to
// its first branch point (or to another terminal) is ripped up and the
// terminal is re-routed against the remaining tree; the reroute is kept
// only when it is strictly cheaper. Passes repeat until a pass finds no
// improvement or maxPasses is reached.
//
// The input tree is not modified; the (possibly improved) result is
// returned together with the number of passes that found an improvement.
func (r *Router) Retrace(t *Tree, terminals []grid.VertexID, maxPasses int) (*Tree, int) {
	if maxPasses < 1 || len(t.Edges) == 0 {
		return t, 0
	}
	mRetracePasses.Inc()
	adj := make(map[grid.VertexID][]grid.VertexID, t.NumVertices())
	for _, e := range t.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	termSet := make(map[grid.VertexID]struct{}, len(terminals))
	for _, term := range terminals {
		termSet[term] = struct{}{}
	}
	terms := dedupSorted(terminals)
	cmin := minEdgeCost(r.g)

	improvedPasses := 0
	for pass := 0; pass < maxPasses; pass++ {
		if r.cancelled() {
			// A cancelled retrace returns the best tree found so far; the
			// tree builders surface the deadline, retracing never has to.
			break
		}
		improved := false
		for _, term := range terms {
			if len(adj[term]) != 1 {
				continue // internal terminal: nothing dangles
			}
			path, pathCost := danglingPath(r.g, adj, termSet, term)
			if len(path) < 2 {
				continue
			}
			removePath(adj, path)
			sources := make([]grid.VertexID, 0, len(adj))
			for v, ns := range adj {
				if v == term {
					// The detached terminal must not seed the search, or
					// the "reroute" would trivially reach itself at zero
					// cost and leave it disconnected.
					continue
				}
				if len(ns) > 0 || isTerm(termSet, v) {
					sources = append(sources, v)
				}
			}
			// Deterministic source order (map iteration is random).
			sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
			newPath, newCost, ok := r.reroute(sources, term, cmin)
			if ok && newCost < pathCost-1e-9 {
				addPathAdj(adj, newPath)
				improved = true
			} else {
				addPathAdj(adj, path)
			}
		}
		if !improved {
			break
		}
		improvedPasses++
	}
	if improvedPasses == 0 {
		return t, 0
	}

	// Rebuild the tree over sorted edges: inserting in adjacency-map order
	// would make both Edges order and the float Cost accumulation (addition
	// is not associative) vary run to run.
	edges := make([]Edge, 0, len(t.Edges))
	for v, ns := range adj {
		for _, w := range ns {
			if v < w {
				edges = append(edges, Edge{A: v, B: w})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		return edges[i].A < edges[j].A || (edges[i].A == edges[j].A && edges[i].B < edges[j].B)
	})
	out := newTree(terms[0])
	for _, e := range edges {
		out.addEdge(r.g, e.A, e.B)
	}
	return out, improvedPasses
}

// reroute returns the cheapest path from sources to the detached terminal
// term, bit-identical to ShortestToTarget(sources, v == term), with the
// same one fault point and one search count.
//
// It first runs a reverse search from term out to its distance to the
// nearest source, widened by a float slack, and then restricts the
// forward search to that ball. Every vertex on a cheapest source-to-term
// path lies in the ball (its distance to term is at most the path's), and
// so does every vertex that achieves such a vertex's label, so the forward
// search pops them in the same (dist, id) order and picks the same
// predecessors. That argument needs every relaxation below the ball
// radius to raise its label; when the cheapest edge cost cmin could be
// absorbed at that magnitude, the forward search runs unrestricted.
func (r *Router) reroute(sources []grid.VertexID, term grid.VertexID, cmin float64) ([]grid.VertexID, float64, bool) {
	r.ctxErr = nil
	if r.injectFault() {
		return nil, 0, false
	}
	isTarget := func(v grid.VertexID) bool { return v == term }
	if r.Bounds != nil {
		return r.search(sources, isTarget)
	}
	r.nextAuxEpoch()
	for _, s := range sources {
		r.tag[s] = r.repoch
	}
	radius, ok := r.reverseBall(term)
	if !ok {
		mSearches.Inc() // the forward search this reroute stands for
		return nil, 0, false
	}
	if !(cmin > math.Nextafter(radius, math.Inf(1))-radius) {
		return r.search(sources, isTarget)
	}
	r.ball, r.ballR = true, radius
	defer func() { r.ball = false }()
	return r.search(sources, isTarget)
}

// reverseBall runs a Dijkstra from term over the reverse labels rdist and
// settles every vertex within radius of term. The radius is term's
// distance to the nearest tagged vertex, widened by the worst relative
// rounding gap between a forward and a reverse float sum over a path of at
// most NumVertices edges (about 4·n·2⁻⁵³; the slack doubles it). ok is
// false when no tagged vertex is reachable or the context is cancelled.
func (r *Router) reverseBall(term grid.VertexID) (radius float64, ok bool) {
	slack := float64(r.g.NumVertices()) * 0x1p-50
	r.heap = r.heap[:0]
	r.rseen[term] = r.repoch
	r.rdist[term] = 0
	r.heap.push(pair{0, term})
	radius = math.Inf(1)
	pops, relaxations := 0, 0
	defer func() {
		mHeapPops.Add(int64(pops))
		mRelaxations.Add(int64(relaxations))
	}()
	for len(r.heap) > 0 {
		pops++
		if pops%ctxCheckInterval == 0 && r.cancelled() {
			return 0, false
		}
		p := r.heap.pop()
		if p.d > r.rdist[p.id] { // stale entry
			continue
		}
		if p.d > radius {
			break
		}
		if !ok && r.tag[p.id] == r.repoch {
			radius, ok = p.d+p.d*slack, true
		}
		r.nbrBuf = r.g.Neighbors(p.id, r.nbrBuf[:0])
		for _, nb := range r.nbrBuf {
			w := nb.ID
			nd := p.d + nb.Cost
			if nd <= radius && (r.rseen[w] != r.repoch || nd < r.rdist[w]) {
				relaxations++
				r.rseen[w] = r.repoch
				r.rdist[w] = nd
				r.heap.push(pair{nd, w})
			}
		}
	}
	return radius, ok
}

// minEdgeCost returns a lower bound on every edge cost of the graph: the
// cheapest interval times the smallest layer scale, or the via cost
// (+Inf for a graph without edges).
func minEdgeCost(g *grid.Graph) float64 {
	minOf := func(s []float64) float64 {
		m := math.Inf(1)
		for _, v := range s {
			m = min(m, v)
		}
		return m
	}
	lo := math.Inf(1)
	if g.M > 1 {
		lo = g.ViaCost
	}
	hs, vs := 1.0, 1.0
	if g.HScale != nil {
		hs = minOf(g.HScale)
	}
	if g.VScale != nil {
		vs = minOf(g.VScale)
	}
	if len(g.DX) > 0 {
		lo = min(lo, minOf(g.DX)*hs)
	}
	if len(g.DY) > 0 {
		lo = min(lo, minOf(g.DY)*vs)
	}
	return lo
}

// danglingPath walks from a degree-1 terminal through degree-2
// non-terminal vertices and returns the vertex sequence (terminal first,
// anchor last) and the cost of its edges. The anchor — a branch point,
// another terminal, or a higher-degree vertex — stays in the tree.
func danglingPath(g *grid.Graph, adj map[grid.VertexID][]grid.VertexID, termSet map[grid.VertexID]struct{}, term grid.VertexID) ([]grid.VertexID, float64) {
	path := []grid.VertexID{term}
	cost := 0.0
	prev := grid.VertexID(-1)
	cur := term
	for {
		var next grid.VertexID = -1
		for _, n := range adj[cur] {
			if n != prev {
				next = n
				break
			}
		}
		if next < 0 {
			break
		}
		cost += g.EdgeCost(cur, next)
		path = append(path, next)
		if len(adj[next]) != 2 || isTerm(termSet, next) {
			break // anchor reached
		}
		prev, cur = cur, next
	}
	return path, cost
}

func isTerm(termSet map[grid.VertexID]struct{}, v grid.VertexID) bool {
	_, ok := termSet[v]
	return ok
}

func removePath(adj map[grid.VertexID][]grid.VertexID, path []grid.VertexID) {
	for i := 0; i+1 < len(path); i++ {
		removeAdj(adj, path[i], path[i+1])
		removeAdj(adj, path[i+1], path[i])
	}
}

func removeAdj(adj map[grid.VertexID][]grid.VertexID, a, b grid.VertexID) {
	ns := adj[a]
	for i, n := range ns {
		if n == b {
			ns[i] = ns[len(ns)-1]
			adj[a] = ns[:len(ns)-1]
			return
		}
	}
}

func addPathAdj(adj map[grid.VertexID][]grid.VertexID, path []grid.VertexID) {
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if !hasAdj(adj, a, b) {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
}

func hasAdj(adj map[grid.VertexID][]grid.VertexID, a, b grid.VertexID) bool {
	for _, n := range adj[a] {
		if n == b {
			return true
		}
	}
	return false
}
