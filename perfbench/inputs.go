package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/route"
	"oarsmt/wire"
)

// The layout sets are fixed: each layout comes from layout.SubsetSpecs()
// with its own generator seed. Per-layout cost varies several-fold (a T128
// route takes 2.5 to 17 s), so sets redrawn per run would make the spread
// between runs exceed any useful bound. The workload seed instead picks
// the order of requests and, on the serve workloads, each request's
// orientation: one of the 16 rotations and reflections the service must
// treat alike, so the program sees different graphs and pin numberings on
// every seed.
const (
	t128Seed  = 1    // route-t128: T128 generator seeds t128Seed..+t128Count-1
	t128Count = 4    //
	hotSeed   = 1000 // serve-hot pool: T32 generator seeds hotSeed..+hotPool-1
	hotPool   = 32   // twice the worker's -cache, so half the hits come from the store
	coldSeed  = 2000 // serve-cold stream: T32 generator seeds coldSeed, coldSeed+1, ...
	warmSeed  = 9000 // warm-up layouts, never measured
)

// genLayout returns the layout of the named subset made by the generator
// seed.
func genLayout(subset string, genSeed int64) (*layout.Instance, error) {
	spec, ok := layout.SubsetByName(subset)
	if !ok {
		return nil, fmt.Errorf("unknown subset %s", subset)
	}
	in, err := layout.Random(rand.New(rand.NewSource(genSeed)), spec.Spec)
	if err != nil {
		return nil, fmt.Errorf("generate %s seed %d: %w", subset, genSeed, err)
	}
	in.Name = fmt.Sprintf("%s-%d", subset, genSeed)
	return in, nil
}

// warmLayout returns a layout of the subset with the most routing layers
// the subset allows, so a warm-up grows the selector's buffers to their
// largest size.
func warmLayout(subset string, genSeed int64) (*layout.Instance, error) {
	spec, _ := layout.SubsetByName(subset)
	s := spec.Spec
	s.MinM = s.MaxM
	in, err := layout.Random(rand.New(rand.NewSource(genSeed)), s)
	if err != nil {
		return nil, fmt.Errorf("generate warm-up %s: %w", subset, err)
	}
	in.Name = fmt.Sprintf("%s-warm-%d", subset, genSeed)
	return in, nil
}

// orient returns the layout under one of the 16 augmentations.
func orient(in *layout.Instance, a grid.Aug) *layout.Instance {
	g := in.Graph
	ng := a.Apply(g)
	pins := make([]grid.VertexID, len(in.Pins))
	for i, p := range in.Pins {
		pins[i] = ng.IndexOf(a.ApplyCoord(g.H, g.V, g.M, g.CoordOf(p)))
	}
	return &layout.Instance{Name: in.Name, Graph: ng, Pins: pins}
}

// request is one layout as the client sends it.
type request struct {
	id   int // index into the workload's fixed layout set
	in   *layout.Instance
	json []byte
}

func newRequest(id int, in *layout.Instance) (*request, error) {
	var buf bytes.Buffer
	if err := layout.EncodeInstance(&buf, in); err != nil {
		return nil, fmt.Errorf("encode %s: %w", in.Name, err)
	}
	return &request{id: id, in: in, json: buf.Bytes()}, nil
}

// checkServed maps a served answer's wire edges back onto the request's
// graph and validates the tree they form: every pin spanned, connected,
// acyclic, no blocked edge, and the cost the response states.
func checkServed(in *layout.Instance, resp *wire.RouteResponse) error {
	g := in.Graph
	if resp.Degraded {
		return fmt.Errorf("%s: degraded answer", in.Name)
	}
	if len(resp.Edges) == 0 {
		return fmt.Errorf("%s: answer carries no edges", in.Name)
	}
	t := route.NewTreeAt(in.Pins[0])
	for _, e := range resp.Edges {
		a, b := grid.Coord{H: e[0].H, V: e[0].V, M: e[0].M}, grid.Coord{H: e[1].H, V: e[1].V, M: e[1].M}
		if !g.InBounds(a) || !g.InBounds(b) {
			return fmt.Errorf("%s: edge %v-%v out of bounds", in.Name, a, b)
		}
		t.AddPath(g, []grid.VertexID{g.IndexOf(a), g.IndexOf(b)})
	}
	if err := t.Validate(g, in.Pins); err != nil {
		return fmt.Errorf("%s: %w", in.Name, err)
	}
	if !sameCost(t.Cost, resp.Cost) {
		return fmt.Errorf("%s: edges cost %v, answer states %v", in.Name, t.Cost, resp.Cost)
	}
	return nil
}

// sameCost compares tree costs summed in different edge orders.
func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a))
}

// responseOf shapes an in-process tree as the wire answer the service
// would give, so the in-process cache probes can install it.
func responseOf(in *layout.Instance, t *route.Tree) *wire.RouteResponse {
	g := in.Graph
	resp := &wire.RouteResponse{Name: in.Name, Cost: t.Cost, NumEdges: len(t.Edges), UsedSteiner: true}
	for _, e := range t.Edges {
		a, b := g.CoordOf(e.A), g.CoordOf(e.B)
		resp.Edges = append(resp.Edges, [2]wire.Coord3{{H: a.H, V: a.V, M: a.M}, {H: b.H, V: b.V, M: b.M}})
	}
	return resp
}
