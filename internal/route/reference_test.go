package route

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"oarsmt/internal/errs"
	"oarsmt/internal/grid"
)

// This file keeps the per-step tree construction as a reference: a fresh
// multi-source ShortestToTarget per Prim step, and an unrestricted reroute
// per dangling terminal in Retrace. The production builders must agree
// with it bit for bit: edges in order, cost bits, improved-pass counts and
// error values.

// refOARMST is the maze-router Prim of OARMST with one fresh search from
// every tree vertex per step.
func refOARMST(r *Router, terminals []grid.VertexID) (*Tree, error) {
	terms := dedupSorted(terminals)
	if len(terms) == 0 {
		return nil, fmt.Errorf("%w: route: OARMST needs at least one terminal", errs.ErrInvalidLayout)
	}
	for _, t := range terms {
		if r.g.Blocked(t) {
			return nil, fmt.Errorf("%w: route: terminal %v is blocked", errs.ErrInvalidLayout, r.g.CoordOf(t))
		}
	}
	tree := newTree(terms[0])
	remaining := map[grid.VertexID]bool{}
	for _, t := range terms[1:] {
		remaining[t] = true
	}
	sources := []grid.VertexID{terms[0]}
	for len(remaining) > 0 {
		path, _, ok := r.ShortestToTarget(sources, func(v grid.VertexID) bool { return remaining[v] })
		if !ok {
			if r.ctxErr != nil {
				return nil, fmt.Errorf("route: OARMST: %w", r.ctxErr)
			}
			worst := terms[len(terms)-1]
			for _, v := range terms[1:] {
				if remaining[v] && v < worst {
					worst = v
				}
			}
			return nil, &ErrUnreachable{Terminal: worst, Coord: r.g.CoordOf(worst)}
		}
		sources = append(sources, tree.addPath(r.g, path)...)
		delete(remaining, path[0])
	}
	return tree, nil
}

// refSteinerTree is SteinerTree over refOARMST.
func refSteinerTree(r *Router, pins, steiner []grid.VertexID) (*SteinerResult, error) {
	ps := dedupSorted(pins)
	if len(ps) == 0 {
		return nil, fmt.Errorf("%w: route: SteinerTree needs at least one pin", errs.ErrInvalidLayout)
	}
	pinSet := map[grid.VertexID]bool{}
	for _, p := range ps {
		pinSet[p] = true
	}
	res := &SteinerResult{}
	reachable := r.reachableFrom(ps[0])
	var sps []grid.VertexID
	for _, s := range dedupSorted(steiner) {
		if pinSet[s] || r.g.Blocked(s) || !reachable[s] {
			res.Dropped = append(res.Dropped, s)
			continue
		}
		sps = append(sps, s)
	}
	for {
		tree, err := refOARMST(r, append(append([]grid.VertexID(nil), ps...), sps...))
		if err != nil {
			return nil, err
		}
		deg := tree.Degrees()
		var kept []grid.VertexID
		for _, s := range sps {
			if deg[s] >= 3 {
				kept = append(kept, s)
			} else {
				res.Dropped = append(res.Dropped, s)
			}
		}
		if len(kept) == len(sps) {
			res.Tree = tree
			res.Kept = append([]grid.VertexID(nil), kept...)
			sort.Slice(res.Dropped, func(i, j int) bool { return res.Dropped[i] < res.Dropped[j] })
			return res, nil
		}
		sps = kept
	}
}

// refRetrace is Retrace with every reroute an unrestricted search from
// all remaining tree vertices.
func refRetrace(r *Router, t *Tree, terminals []grid.VertexID, maxPasses int) (*Tree, int) {
	if maxPasses < 1 || len(t.Edges) == 0 {
		return t, 0
	}
	adj := map[grid.VertexID][]grid.VertexID{}
	for _, e := range t.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	termSet := map[grid.VertexID]struct{}{}
	for _, term := range terminals {
		termSet[term] = struct{}{}
	}
	terms := dedupSorted(terminals)
	improvedPasses := 0
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for _, term := range terms {
			if len(adj[term]) != 1 {
				continue
			}
			path, pathCost := danglingPath(r.g, adj, termSet, term)
			if len(path) < 2 {
				continue
			}
			removePath(adj, path)
			var sources []grid.VertexID
			for v, ns := range adj {
				if v != term && (len(ns) > 0 || isTerm(termSet, v)) {
					sources = append(sources, v)
				}
			}
			sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
			newPath, newCost, ok := r.ShortestToTarget(sources, func(v grid.VertexID) bool { return v == term })
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
	var edges []Edge
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

// sameTree reports the first difference between two construction
// outcomes, or "" when they are bit-identical.
func sameTree(got, want *Tree, gotErr, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if !reflect.DeepEqual(gotErr, wantErr) {
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		return ""
	}
	if got.Root != want.Root {
		return fmt.Sprintf("root %d, reference %d", got.Root, want.Root)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Sprintf("cost %v (%#x), reference %v (%#x)",
			got.Cost, math.Float64bits(got.Cost), want.Cost, math.Float64bits(want.Cost))
	}
	if !reflect.DeepEqual(got.Edges, want.Edges) {
		return fmt.Sprintf("edges %v, reference %v", got.Edges, want.Edges)
	}
	return ""
}

// costMode picks the edge costs of a differential case.
type costMode int

const (
	costUniform    costMode = iota // every step 1, integer via: maximal ties
	costFractional                 // a few tenths: exact ties that float sums break by order
	costAbsorbing                  // 1e-18 beside 1 and 1e18: additions that vanish
)

func (c costMode) String() string {
	return [...]string{"uniform", "fractional", "absorbing"}[c]
}

// pickCost draws one edge cost for the mode.
func (c costMode) pickCost(rng *rand.Rand) float64 {
	switch c {
	case costFractional:
		return float64(1+rng.Intn(4)) / 10
	case costAbsorbing:
		return [...]float64{1e-18, 1, 1e18}[rng.Intn(3)]
	}
	return 1
}

// diffCase is a random grid with terminals and candidate Steiner points.
type diffCase struct {
	g       *grid.Graph
	pins    []grid.VertexID
	steiner []grid.VertexID
}

// randomCase builds a grid of up to maxSide×maxSide×3 with costs of the
// mode, random vertex and edge blocks, optional layer scales, and pins and
// Steiner candidates on free vertices.
func randomCase(rng *rand.Rand, mode costMode, maxSide int) diffCase {
	h, v, m := 1+rng.Intn(maxSide), 1+rng.Intn(maxSide), 1+rng.Intn(3)
	dx := make([]float64, h-1)
	for i := range dx {
		dx[i] = mode.pickCost(rng)
	}
	dy := make([]float64, v-1)
	for i := range dy {
		dy[i] = mode.pickCost(rng)
	}
	via := float64(1 + rng.Intn(3))
	if mode != costUniform {
		via = mode.pickCost(rng)
	}
	g := grid.MustNew(h, v, m, dx, dy, via)
	if mode == costFractional && rng.Intn(2) == 0 {
		hs, vs := make([]float64, m), make([]float64, m)
		for i := range hs {
			hs[i], vs[i] = mode.pickCost(rng), mode.pickCost(rng)
		}
		if err := g.SetLayerScales(hs, vs); err != nil {
			panic(err)
		}
	}
	n := g.NumVertices()
	for i := rng.Intn(n/4 + 1); i > 0; i-- {
		g.Block(grid.VertexID(rng.Intn(n)))
	}
	for i := rng.Intn(n/8 + 1); i > 0 && h > 1; i-- {
		g.BlockEdgeX(rng.Intn(h-1), rng.Intn(v), rng.Intn(m))
	}
	var c diffCase
	c.g = g
	for i := 1 + rng.Intn(7); i > 0; i-- {
		if id := grid.VertexID(rng.Intn(n)); !g.Blocked(id) {
			c.pins = append(c.pins, id)
		}
	}
	for i := rng.Intn(5); i > 0; i-- {
		c.steiner = append(c.steiner, grid.VertexID(rng.Intn(n)))
	}
	return c
}

// checkCase runs OARMST, SteinerTree and Retrace (on a bounded-exploration
// tree with margin 0, which leaves detours to repair, and on the Steiner
// tree) against the reference and returns the first mismatch.
func checkCase(c diffCase) string {
	if len(c.pins) == 0 {
		return ""
	}
	r, ref := NewRouter(c.g), NewRouter(c.g)
	got, gotErr := r.OARMST(c.pins)
	want, wantErr := refOARMST(ref, c.pins)
	if d := sameTree(got, want, gotErr, wantErr); d != "" {
		return "OARMST: " + d
	}
	gst, gotErr := r.SteinerTree(c.pins, c.steiner)
	wst, wantErr := refSteinerTree(ref, c.pins, c.steiner)
	if gotErr != nil || wantErr != nil {
		if d := sameTree(nil, nil, gotErr, wantErr); d != "" {
			return "SteinerTree: " + d
		}
		return ""
	}
	if d := sameTree(gst.Tree, wst.Tree, nil, nil); d != "" {
		return "SteinerTree: " + d
	}
	if !reflect.DeepEqual(gst.Kept, wst.Kept) || !reflect.DeepEqual(gst.Dropped, wst.Dropped) {
		return fmt.Sprintf("SteinerTree: kept/dropped %v/%v, reference %v/%v", gst.Kept, gst.Dropped, wst.Kept, wst.Dropped)
	}
	bounded := NewRouter(c.g)
	bounded.BoundedExploration = true
	detour, err := bounded.OARMST(c.pins)
	if err != nil {
		return "bounded OARMST: " + err.Error()
	}
	for _, in := range []*Tree{detour, gst.Tree} {
		gt, gp := r.Retrace(in, c.pins, 3)
		wt, wp := refRetrace(ref, in, c.pins, 3)
		if d := sameTree(gt, wt, nil, nil); d != "" {
			return "Retrace: " + d
		}
		if gp != wp {
			return fmt.Sprintf("Retrace: %d improved passes, reference %d", gp, wp)
		}
	}
	return ""
}

// TestConstructMatchesReference compares the incremental OARMST, the
// SteinerTree built on it and the ball-bounded Retrace with the per-step
// reference on seeded random grids of every cost mode: many small grids,
// then fewer large obstacle-dense ones with more pins, where searches run
// long and a retrace ball is a small part of the grid.
func TestConstructMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		mode              costMode
		maxSide, morePins int
		trials, short     int
	}{
		{costUniform, 9, 0, 1500, 300},
		{costFractional, 9, 0, 1500, 300},
		{costAbsorbing, 9, 0, 1500, 300},
		{costUniform, 40, 20, 40, 8},
		{costFractional, 40, 20, 40, 8},
	} {
		trials := tc.trials
		if testing.Short() {
			trials = tc.short
		}
		rng := rand.New(rand.NewSource(int64(11 + tc.mode + costMode(tc.maxSide))))
		for trial := 0; trial < trials; trial++ {
			c := randomCase(rng, tc.mode, tc.maxSide)
			for i := rng.Intn(tc.morePins + 1); i > 0; i-- {
				if id := grid.VertexID(rng.Intn(c.g.NumVertices())); !c.g.Blocked(id) {
					c.pins = append(c.pins, id)
				}
			}
			if d := checkCase(c); d != "" {
				t.Fatalf("%v, side ≤ %d, trial %d: %s", tc.mode, tc.maxSide, trial, d)
			}
		}
	}
}

// TestOARMSTAbsorbedCostNoPrevCycle is the regression case for edge costs
// that vanish in a label's rounding. On this 2×3 grid with (0,0) blocked,
// the 1e-18 and 1 steps behind the one 1e18 step add nothing, so (1,1),
// (0,1), (0,2) and (1,2) all get the label 1e18. Moving prev to the
// smaller achiever over those edges would point (0,1) and (0,2) at each
// other, and the path to (1,2) would trace through them forever (trace
// panics on such a cycle). The incremental build must stop at the
// absorbed edge and fall back to the per-step loop.
func TestOARMSTAbsorbedCostNoPrevCycle(t *testing.T) {
	g := grid.MustNew(2, 3, 1, []float64{1e-18}, []float64{1e18, 1}, 1)
	g.Block(g.Index(0, 0, 0))
	pins := []grid.VertexID{g.Index(1, 0, 0), g.Index(1, 2, 0)}
	r := NewRouter(g)
	if _, absorbed, _ := r.oarmstIncremental(dedupSorted(pins)); !absorbed {
		t.Error("the incremental build did not report the absorbed relaxation")
	}
	got, err := r.OARMST(pins)
	want, wantErr := refOARMST(NewRouter(g), pins)
	if d := sameTree(got, want, err, wantErr); d != "" {
		t.Fatal(d)
	}
}

// fuzzPalette holds the edge costs a fuzz case picks from: integers for
// ties, tenths for rounding, 1e-18 and 1e18 for absorbed additions.
var fuzzPalette = [8]float64{1, 2, 3, 0.1, 0.2, 0.3, 1e-18, 1e18}

// fuzzCase decodes a differential case from fuzz data, one byte per
// field, reading zeros once the data runs out: H, V and M (up to 8×8×3);
// a palette index per X interval, Y interval and the via; one block bit
// per vertex, eight to a byte; a pin count (1–6) and the pins; a Steiner
// candidate count (0–4) and the candidates. Pins may be blocked, so the
// error paths are compared too.
func fuzzCase(data []byte) diffCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	h, v, m := 1+next()%8, 1+next()%8, 1+next()%3
	dx := make([]float64, h-1)
	for i := range dx {
		dx[i] = fuzzPalette[next()%8]
	}
	dy := make([]float64, v-1)
	for i := range dy {
		dy[i] = fuzzPalette[next()%8]
	}
	g := grid.MustNew(h, v, m, dx, dy, fuzzPalette[next()%8])
	n := g.NumVertices()
	for i := 0; i < n; i += 8 {
		mask := next()
		for k := 0; k < 8 && i+k < n; k++ {
			if mask>>k&1 == 1 {
				g.Block(grid.VertexID(i + k))
			}
		}
	}
	c := diffCase{g: g}
	for i := 1 + next()%6; i > 0; i-- {
		c.pins = append(c.pins, grid.VertexID(next()%n))
	}
	for i := next() % 5; i > 0; i-- {
		c.steiner = append(c.steiner, grid.VertexID(next()%n))
	}
	return c
}

// FuzzConstructMatchesReference builds a small grid from fuzzer-chosen
// dimensions, costs, blocks and terminals and checks OARMST, SteinerTree
// and Retrace against the per-step reference.
func FuzzConstructMatchesReference(f *testing.F) {
	// The absorbed-cost regression grid of TestOARMSTAbsorbedCostNoPrevCycle.
	f.Add([]byte{1, 2, 0, 6, 7, 0, 0, 1, 1, 3, 5})
	// Uniform 8×8×2, a few blocks, five pins and two candidates.
	f.Add([]byte{7, 7, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		0x11, 0, 0x42, 0, 0x80, 0, 0, 0x24, 0, 0, 0, 0x18, 0, 0, 0, 0,
		4, 3, 60, 99, 17, 122, 2, 40, 77})
	// Tenths on a 6×5×3 grid.
	f.Add([]byte{5, 4, 2, 3, 4, 5, 3, 4, 3, 4, 5, 4, 3, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 5, 1, 88, 45, 23, 70, 3, 12, 50, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := checkCase(fuzzCase(data)); d != "" {
			t.Fatal(d)
		}
	})
}
