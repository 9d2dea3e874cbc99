package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"oarsmt/internal/core"
	"oarsmt/internal/models"
	"oarsmt/wire"
)

// runRouteT128 is the paper's Table 3 case: the fixed T128 set routed in
// process with Router.Route and the pretrained selector, one caller in a
// closed loop. The set is routed whole on every run, whatever --seconds
// says, so the window never decides which layouts count.
func runRouteT128(o options, rep *report) error {
	var reqs []*request
	for i := 0; i < t128Count; i++ {
		in, err := genLayout("T128", t128Seed+int64(i))
		if err != nil {
			return err
		}
		q, err := newRequest(i, in)
		if err != nil {
			return err
		}
		reqs = append(reqs, q)
	}
	// The seed orders the routes but leaves every layout as generated:
	// the selector is not rotation-equivariant, and on four layouts the
	// orientation alone moved the median route time by up to 20%.
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	warm, err := warmLayout("T128", warmSeed)
	if err != nil {
		return err
	}

	// Set-up: load the selector and run one warm-up proposal, which grows
	// the inference buffers (the first T128 proposal is ~1.5x the next).
	var setups []float64
	var r *core.Router
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		sel, err := models.New()
		if err != nil {
			return err
		}
		r = core.NewRouter(sel)
		r.Propose(warm)
		setups = append(setups, time.Since(t0).Seconds())
		rep.phase(fmt.Sprintf("warmup-%d", k+1), 1, 1, 0)
	}

	ctx := context.Background()
	var lat []float64
	var routeTotal time.Duration
	var costSum float64
	want := map[int]float64{}
	resps := map[int]*wire.RouteResponse{}
	failed := 0
	for _, q := range reqs {
		t0 := time.Now()
		res, err := r.Route(ctx, q.in)
		d := time.Since(t0)
		switch {
		case err != nil:
			rep.fail("%s: route: %v", q.in.Name, err)
		case res.Degraded:
			rep.fail("%s: degraded route", q.in.Name)
		default:
			if err := res.Tree.Validate(q.in.Graph, q.in.Pins); err != nil {
				rep.fail("%s: %v", q.in.Name, err)
				break
			}
			fmt.Printf("route %s %.1f ms cost %.0f\n", q.in.Name, ms(d), res.Tree.Cost)
			lat = append(lat, ms(d))
			routeTotal += d
			costSum += res.Tree.Cost
			want[q.id] = res.Tree.Cost
			resps[q.id] = responseOf(q.in, res.Tree)
			continue
		}
		failed++
	}
	rep.phase("measure", len(reqs), len(reqs)-failed, failed)

	if !o.trace {
		slowest := 0.0
		for _, l := range lat {
			slowest = max(slowest, l)
		}
		rep.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups: selector load + warm-up proposal", setupRepeats))
		// The mean, as Table 3 reports it: on four routes the median is the
		// mean of the middle two, and one slowed route moved it 13%.
		rep.set("latency_ms", mean(lat), fmt.Sprintf("mean route of %d", len(lat)))
		rep.set("tail_ms", slowest, fmt.Sprintf("slowest of %d routes: too few samples for a percentile with %d beyond", len(lat), minBeyond))
		rep.set("throughput_rps", float64(len(lat))/routeTotal.Seconds(), "routes per second, one caller")
		rep.set("tree_cost", costSum, fmt.Sprintf("sum over the %d-layout set", len(lat)))
		hwm, err := vmHWM("self")
		if err != nil {
			return err
		}
		rep.set("peak_rss_mb", hwm, "VmHWM of the benchmark process")
		return nil
	}

	tr := newTracer()
	rt, err := traceRoutes(tr, r, reqs, want, rep)
	if err != nil {
		return err
	}
	if _, err := probeServeLayers(tr, o.work, reqs, resps, rep); err != nil {
		return err
	}
	lt := layers(tr.spans)
	setRouteLayers(rep, lt, rt)
	setServeLayers(rep, lt)
	traced := 0.0
	for _, w := range rt.wallMS {
		traced += w
	}
	rep.set("trace.overhead_share", traced/ms(routeTotal)-1, "traced core.route over untraced Router.Route, minus 1")
	for _, name := range []string{"cluster.hop_ms", "client.route_ms", "serve.twice_paid_share", "serve.mem_hit_share", "store.hit_share",
		"serve.evictions_per_req", "serve.queue_ms", "serve.mean_batch", "store.writes", "store.compactions",
		"loadgen.lag_ms", "cluster.retries", "cluster.hedges", "cluster.shed"} {
		rep.set(name, 0, "no daemons in this workload")
	}
	return tr.write(filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)))
}
