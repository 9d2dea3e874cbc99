package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"oarsmt/internal/core"
	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/models"
	"oarsmt/internal/obs"
	"oarsmt/internal/route"
	"oarsmt/internal/serve"
	"oarsmt/wire"
)

// workCounters are the route package's exact work counts, read as
// obs.Snapshot deltas around each traced route.
var workCounters = []string{"route.searches", "route.heap_pops", "route.relaxations", "route.oarmst_builds"}

// routeTrace holds the traced pass's construction results.
type routeTrace struct {
	routes     int
	inferences int
	counts     map[string]int64
	wallMS     map[int]float64 // request id -> traced route wall time
}

// traceRoutes routes each layout twice under spans. First it composes
// Router.Route from the router's public calls, the way core.Router.Construct
// does with guarded acceptance: a core.route root over selector.propose,
// route.steiner, route.retrace and core.guard, so the root's self time is
// what those calls do not account for. Then it times Router.Construct on
// the same proposal as core.construct. Both trees must cost what want
// holds for the request (when present).
func traceRoutes(tr *tracer, r *core.Router, reqs []*request, want map[int]float64, rep *report) (*routeTrace, error) {
	ctx := context.Background()
	rt := &routeTrace{counts: map[string]int64{}, wallMS: map[int]float64{}}
	for _, q := range reqs {
		in := q.in
		before := obs.Snapshot().Counters
		t0 := time.Now()
		root := tr.start("core.route", 0, q.id)
		var sps []grid.VertexID
		var inf int
		tr.do("selector.propose", root, q.id, func() { sps, inf = r.Propose(in) })
		rr := route.NewRouter(in.Graph)
		rr.SetContext(ctx)
		var st *route.SteinerResult
		var err error
		tr.do("route.steiner", root, q.id, func() { st, err = rr.SteinerTree(in.Pins, sps) })
		if err != nil {
			return nil, fmt.Errorf("%s: steiner tree: %w", in.Name, err)
		}
		tree := st.Tree
		tr.do("route.retrace", root, q.id, func() { tree, _ = rr.Retrace(tree, in.Pins, r.RetracePasses) })
		var plain *route.Tree
		tr.do("core.guard", root, q.id, func() {
			if plain, err = rr.OARMST(in.Pins); err == nil {
				plain, _ = rr.Retrace(plain, in.Pins, r.RetracePasses)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: guard: %w", in.Name, err)
		}
		if plain.Cost < tree.Cost {
			tree = plain
		}
		tr.end(root)
		rt.wallMS[q.id] = ms(time.Since(t0))
		after := obs.Snapshot().Counters
		for _, c := range workCounters {
			rt.counts[c] += after[c] - before[c]
		}
		rt.routes++
		rt.inferences += inf

		var res *core.Result
		tr.do("core.construct", 0, q.id, func() { res, err = r.Construct(ctx, in, sps, inf, 0) })
		if err != nil {
			return nil, fmt.Errorf("%s: construct: %w", in.Name, err)
		}
		for i, t := range []*route.Tree{tree, res.Tree} {
			name := []string{"composed route", "Router.Construct"}[i]
			if err := t.Validate(in.Graph, in.Pins); err != nil {
				rep.fail("%s: %s: %v", in.Name, name, err)
			}
			if c, ok := want[q.id]; ok && !sameCost(t.Cost, c) {
				rep.fail("%s: %s costs %v, the measured answer %v", in.Name, name, t.Cost, c)
			}
		}
	}
	return rt, nil
}

// setRouteLayers reports the construction and selector rows. Times are
// means per call, so on one request the rows under core.route add up to
// core.route_ms.
func setRouteLayers(rep *report, lt map[string]layerTime, rt *routeTrace) {
	n := float64(max(rt.routes, 1))
	rep.set("selector.propose_ms", lt["selector.propose"].meanMS(), "Router.Propose")
	rep.set("selector.inferences", float64(rt.inferences)/n, "per route")
	rep.set("route.steiner_ms", lt["route.steiner"].meanMS(), "route.Router.SteinerTree")
	rep.set("route.retrace_ms", lt["route.retrace"].meanMS(), "route.Router.Retrace")
	rep.set("core.guard_ms", lt["core.guard"].meanMS(), "plain OARMST + Retrace")
	rep.set("core.construct_ms", lt["core.construct"].meanMS(), "Router.Construct")
	rep.set("core.route_ms", lt["core.route"].meanMS(), "traced route wall time")
	rep.set("core.unaccounted_ms", lt["core.route"].selfMS(), "core.route minus its children")
	for _, c := range workCounters {
		rep.set(c, float64(rt.counts[c])/n, "per route, obs.Snapshot delta")
	}
}

// probeServeLayers times the serving layers in process on the workload's
// layouts and their answers: layout decode, canonical hashing, the wire
// codec round trip, and Service.Submit hits from the memory LRU and from
// the disk store. It returns each request's memory-hit time.
func probeServeLayers(tr *tracer, work string, reqs []*request, resps map[int]*wire.RouteResponse, rep *report) (map[int]float64, error) {
	ctx := context.Background()
	for _, q := range reqs {
		var in *layout.Instance
		var err error
		tr.do("layout.decode", 0, q.id, func() { in, err = layout.Decode(bytes.NewReader(q.json)) })
		if err != nil || in.NumPins() != q.in.NumPins() {
			rep.fail("%s: decode: %v", q.in.Name, err)
		}
		tr.do("serve.canonical", 0, q.id, func() { _ = serve.CanonicalKey(q.in) })
		tr.do("wire.codec", 0, q.id, func() { err = codecRoundTrip(q.json, resps[q.id]) })
		if err != nil {
			rep.fail("%s: wire codec: %v", q.in.Name, err)
		}
	}

	dir, err := os.MkdirTemp(work, "probe-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	hitMS := map[int]float64{}
	for _, tier := range []string{"serve.hit", "store.hit"} {
		sel, err := models.New()
		if err != nil {
			return nil, err
		}
		svc, err := serve.NewService(serve.Config{Selector: sel, CacheSize: len(reqs), StoreDir: dir})
		if err != nil {
			return nil, err
		}
		for _, q := range reqs {
			if tier == "serve.hit" {
				if _, err := svc.Install(q.in, resps[q.id]); err != nil {
					rep.fail("%s: install: %v", q.in.Name, err)
					continue
				}
			}
			var resp *wire.RouteResponse
			t0 := time.Now()
			tr.do(tier, 0, q.id, func() { resp, err = svc.Submit(ctx, q.in) })
			if tier == "serve.hit" {
				hitMS[q.id] = ms(time.Since(t0))
			}
			switch {
			case err != nil:
				rep.fail("%s: %s submit: %v", q.in.Name, tier, err)
			case !resp.CacheHit || resp.StoreHit != (tier == "store.hit"):
				rep.fail("%s: %s probe missed its tier (cacheHit=%v storeHit=%v)", q.in.Name, tier, resp.CacheHit, resp.StoreHit)
			case !sameCost(resp.Cost, resps[q.id].Cost):
				rep.fail("%s: %s probe costs %v, want %v", q.in.Name, tier, resp.Cost, resps[q.id].Cost)
			}
		}
		svc.Close() // lands the installed routes in the store for the next tier
	}
	return hitMS, nil
}

// codecRoundTrip encodes and decodes a route request and its answer the
// way client and daemon do.
func codecRoundTrip(layoutJSON []byte, resp *wire.RouteResponse) error {
	b, err := json.Marshal(wire.RouteRequest{Layout: layoutJSON, Edges: true})
	if err != nil {
		return err
	}
	var req wire.RouteRequest
	if err := json.Unmarshal(b, &req); err != nil {
		return err
	}
	if b, err = json.Marshal(resp); err != nil {
		return err
	}
	var back wire.RouteResponse
	return json.Unmarshal(b, &back)
}

func setServeLayers(rep *report, lt map[string]layerTime) {
	rep.set("layout.decode_ms", lt["layout.decode"].meanMS(), "layout.Decode, paid by coordinator and worker")
	rep.set("serve.canonical_ms", lt["serve.canonical"].meanMS(), "serve.CanonicalKey, paid by coordinator and worker")
	rep.set("wire.codec_ms", lt["wire.codec"].meanMS(), "RouteRequest+RouteResponse JSON round trip")
	rep.set("serve.hit_ms", lt["serve.hit"].meanMS(), "in-process Service.Submit memory-LRU hit")
	rep.set("store.hit_ms", lt["store.hit"].meanMS(), "in-process Service.Submit store hit")
}
