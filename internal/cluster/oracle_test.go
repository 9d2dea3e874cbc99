package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"sort"
	"testing"

	"oarsmt/client"
	"oarsmt/internal/core"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/serve"
	"oarsmt/wire"
)

// TestCrossTierOracle is the cross-tier correctness oracle: every tier
// that can answer a route — a fresh batch route, a memory hit, a disk hit
// after a restart over the same store directory, an install through
// /v1/replicate, and a coordinator forward — must answer every one of the
// 16 orientations of a layout with exactly the in-process Router.Route
// reference: the bit-identical cost and, after undoing the orientation's
// augmentation, the same edge set.
func TestCrossTierOracle(t *testing.T) {
	ctx := context.Background()
	augs := grid.AllAugmentations()
	sizes := [][4]int{{6, 8, 2, 4}, {7, 5, 3, 5}, {8, 8, 2, 5}}

	type oracle struct {
		in    *layout.Instance
		cost  float64
		edges []edgeKey
	}
	ref := core.NewRouter(testSelector(t))
	var cases []oracle
	for i, sz := range sizes {
		in, err := layout.Random(rand.New(rand.NewSource(int64(700+i))), layout.RandomSpec{
			H: sz[0], V: sz[1], MinM: sz[2], MaxM: sz[2],
			MinPins: sz[3], MaxPins: sz[3],
			MinObstacles: 4, MaxObstacles: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.Route(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		var edges []edgeKey
		for _, e := range res.Tree.Edges {
			edges = append(edges, newEdgeKey(in.Graph.CoordOf(e.A), in.Graph.CoordOf(e.B)))
		}
		cases = append(cases, oracle{in: in, cost: res.Tree.Cost, edges: sortEdges(edges)})
	}

	// check compares one tier's answer for orientation a of case c with
	// the reference.
	check := func(tier string, c oracle, a grid.Aug, resp *wire.RouteResponse) {
		t.Helper()
		if resp.Cost != c.cost {
			t.Errorf("%s %s %+v: cost %v, reference %v", tier, c.in.Name, a, resp.Cost, c.cost)
		}
		if got := undoEdges(c.in.Graph, a, resp.Edges); !equalEdges(got, c.edges) {
			t.Errorf("%s %s %+v: edge set differs from the reference (%d edges, want %d)",
				tier, c.in.Name, a, len(got), len(c.edges))
		}
	}

	// Fresh, then memory hits, on a service with a store directory.
	dir := t.TempDir()
	svc, err := serve.NewService(serve.Config{Selector: testSelector(t), StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]*wire.RouteResponse, len(cases))
	for i, c := range cases {
		resp, err := svc.Submit(ctx, c.in)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			t.Fatalf("fresh %s: first route claims a cache hit", c.in.Name)
		}
		check("fresh", c, augs[0], resp)
		fresh[i] = resp
	}
	for _, c := range cases {
		for _, a := range augs {
			resp, err := svc.Submit(ctx, augmentLayout(c.in, a))
			if err != nil {
				t.Fatal(err)
			}
			if !resp.CacheHit || resp.StoreHit {
				t.Fatalf("memory %s %+v: cacheHit=%v storeHit=%v", c.in.Name, a, resp.CacheHit, resp.StoreHit)
			}
			check("memory", c, a, resp)
		}
	}
	svc.Close()

	// Disk hits: a restarted service over the same directory, answering
	// every orientation from the records it loaded.
	warm, err := serve.NewService(serve.Config{Selector: testSelector(t), StoreDir: dir, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(warm.Close)
	for _, c := range cases {
		for _, a := range augs {
			resp, err := warm.Submit(ctx, augmentLayout(c.in, a))
			if err != nil {
				t.Fatal(err)
			}
			if !resp.StoreHit {
				t.Fatalf("disk %s %+v: missed the store after restart", c.in.Name, a)
			}
			check("disk", c, a, resp)
		}
	}
	if got := warm.Stats().Inferences; got != 0 {
		t.Errorf("disk tier spent %d inferences, want 0", got)
	}

	// Replica installs: a cold worker receives each fresh answer through
	// /v1/replicate and must then serve every orientation from it.
	replica := newServeWorker(t)
	rcl, err := client.New(client.Config{BaseURL: replica.URL})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		ack, err := rcl.Replicate(ctx, wire.ReplicateRequest{Layout: encodeLayout(t, c.in), Response: *fresh[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !ack.Installed {
			t.Fatalf("replicate %s: declined by a cold worker", c.in.Name)
		}
		for _, a := range augs {
			resp, err := rcl.Route(ctx, augmentLayout(c.in, a), &client.RouteOptions{Edges: true})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.CacheHit {
				t.Fatalf("replicate %s %+v: installed route missed", c.in.Name, a)
			}
			check("replicate", c, a, resp)
		}
	}

	// Coordinator forwards: the identity orientation routes fresh on its
	// shard, every orientation then follows it there.
	coord := newTestCoord(t, Config{HedgeDelay: -1})
	for _, id := range []string{"w1", "w2"} {
		w := newServeWorker(t)
		if _, err := coord.register(registerReq(id, w.URL)); err != nil {
			t.Fatal(err)
		}
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	ccl, err := client.New(client.Config{BaseURL: front.URL})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		for k, a := range append([]grid.Aug{augs[0]}, augs...) {
			resp, err := ccl.Route(ctx, augmentLayout(c.in, a), &client.RouteOptions{Edges: true})
			if err != nil {
				t.Fatal(err)
			}
			if resp.CacheHit != (k > 0) {
				t.Fatalf("coordinator %s %+v (request %d): cacheHit=%v", c.in.Name, a, k, resp.CacheHit)
			}
			check("coordinator", c, a, resp)
		}
	}
}

// edgeKey is an undirected grid edge with its endpoints in sorted order.
type edgeKey [2]grid.Coord

func newEdgeKey(a, b grid.Coord) edgeKey {
	if lessCoord(b, a) {
		a, b = b, a
	}
	return edgeKey{a, b}
}

func lessCoord(a, b grid.Coord) bool {
	if a.H != b.H {
		return a.H < b.H
	}
	if a.V != b.V {
		return a.V < b.V
	}
	return a.M < b.M
}

func sortEdges(es []edgeKey) []edgeKey {
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return lessCoord(es[i][0], es[j][0])
		}
		return lessCoord(es[i][1], es[j][1])
	})
	return es
}

func equalEdges(a, b []edgeKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// undoEdges maps wire edges answered for orientation a of a layout over g
// back into g's own coordinates.
func undoEdges(g *grid.Graph, a grid.Aug, edges [][2]wire.Coord3) []edgeKey {
	back := make(map[grid.Coord]grid.Coord, g.NumVertices())
	for id := 0; id < g.NumVertices(); id++ {
		c := g.CoordOf(grid.VertexID(id))
		back[a.ApplyCoord(g.H, g.V, g.M, c)] = c
	}
	out := make([]edgeKey, 0, len(edges))
	for _, e := range edges {
		p := back[grid.Coord{H: e[0].H, V: e[0].V, M: e[0].M}]
		q := back[grid.Coord{H: e[1].H, V: e[1].V, M: e[1].M}]
		out = append(out, newEdgeKey(p, q))
	}
	return sortEdges(out)
}

// augmentLayout returns orientation a of the instance.
func augmentLayout(in *layout.Instance, a grid.Aug) *layout.Instance {
	g := in.Graph
	ng := a.Apply(g)
	pins := make([]grid.VertexID, len(in.Pins))
	for i, p := range in.Pins {
		pins[i] = ng.IndexOf(a.ApplyCoord(g.H, g.V, g.M, g.CoordOf(p)))
	}
	return &layout.Instance{Name: in.Name, Graph: ng, Pins: pins}
}

func encodeLayout(t *testing.T, in *layout.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := layout.EncodeInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
