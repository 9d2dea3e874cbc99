package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"oarsmt/client"
	"oarsmt/internal/core"
	"oarsmt/internal/grid"
	"oarsmt/internal/models"
	"oarsmt/wire"
)

const (
	// callers is how many requests the benchmark keeps in flight: one per
	// core, from one process.
	callers = 2
	// hotSeqLen is the length of the seeded serve-hot request sequence;
	// a run that sends more wraps around.
	hotSeqLen = 1 << 16
	// coldRate is serve-cold's mean arrival rate, about half of the ~13/s
	// a worker completes when cold T32 routes (~75 ms) arrive back to back.
	coldRate = 6.5
	// coldSchedSeed fixes serve-cold's arrival schedule, so every run
	// offers the same load whatever the workload seed.
	coldSchedSeed = 7
	// coldWarm is how many never-measured layouts warm the cold worker up.
	coldWarm = 4
	// hotWindows is how many sub-windows serve-hot's figures are medians
	// over; each holds well over 100 requests, so each has a p90 tail.
	hotWindows = 5
	// hotThink is each serve-hot caller's pause between an answer and its
	// next request. Without it the load generator, coordinator and worker
	// saturate both cores, and every figure tracked the CPU time the shared
	// host took away (spreads of 12-23% between runs).
	hotThink = 10 * time.Millisecond
	// hopPairs is how many coordinator/direct request pairs the hop probe
	// alternates.
	hopPairs = 32
)

var routeOpts = &client.RouteOptions{Edges: true}

// checkFunc validates one served answer, or records why there was none.
type checkFunc func(q *request, resp *wire.RouteResponse, err error) error

// send routes one request through the client under an optional span.
func send(ctx context.Context, tr *tracer, cl *client.Client, q *request, due time.Time, check checkFunc) sample {
	s := sample{due: due, req: q, sent: time.Now(), traced: tr != nil}
	id := tr.start("client.route", 0, q.id)
	resp, err := cl.RouteJSON(ctx, q.json, routeOpts)
	tr.end(id)
	s.done = time.Now()
	if check(q, resp, err) == nil {
		s.ok, s.resp = true, resp
	}
	return s
}

// closedLoop runs callers that each send their next request hotThink
// after the previous one is answered, until the window closes. next gives
// the j-th request of the sequence.
func closedLoop(ctx context.Context, tr *tracer, cl *client.Client, window time.Duration, next func(j int) *request, check checkFunc) []sample {
	var j atomic.Int64
	end := time.Now().Add(window)
	out := make([][]sample, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		//oarsmt:allow rawgo(benchmark load generator: one caller per connection, joined below)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				k := int(j.Add(1) - 1)
				out[c] = append(out[c], send(ctx, alternate(tr, k), cl, next(k), time.Now(), check))
				time.Sleep(hotThink)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// openLoop sends reqs[i] when due[i] (an offset from now) comes, from at
// most callers connections; a request whose turn comes while both are busy
// is sent late, and its latency still counts from when it was due.
func openLoop(ctx context.Context, tr *tracer, cl *client.Client, due []time.Duration, reqs []*request, check checkFunc) []sample {
	var j atomic.Int64
	start := time.Now()
	out := make([]sample, len(due))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		//oarsmt:allow rawgo(benchmark load generator: one sender per connection, joined below)
		go func() {
			defer wg.Done()
			for {
				i := int(j.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				out[i] = send(ctx, alternate(tr, i), cl, reqs[i], at, check)
			}
		}()
	}
	wg.Wait()
	return out
}

// alternate traces every other request of a traced pass, so its traced
// and untraced requests share one window and the difference between them
// is the tracing overhead.
func alternate(tr *tracer, i int) *tracer {
	if i%2 == 0 {
		return nil
	}
	return tr
}

// splitTraced separates a traced pass's untraced and traced requests.
func splitTraced(samples []sample) (plain, traced []sample) {
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	return plain, traced
}

// phaseReport prints and counts a phase and returns its summary; a failed
// sample's error was already recorded by check.
func phaseReport(rep *report, name string, samples []sample) phaseStats {
	ps := summarise(samples)
	rep.phase(name, ps.sent, ps.ok, ps.failed)
	return ps
}

// checker wraps checkServed with the report and an optional per-request
// expected cost; a failed request is recorded too.
func checker(rep *report, mu *sync.Mutex, want map[int]float64) checkFunc {
	return func(q *request, resp *wire.RouteResponse, err error) error {
		if err != nil {
			err = fmt.Errorf("%s: %w", q.in.Name, err)
		} else {
			err = checkServed(q.in, resp)
		}
		if err == nil && want != nil {
			if c, ok := want[q.id]; !ok || !sameCost(resp.Cost, c) {
				err = fmt.Errorf("%s: served cost %v, warm-up recorded %v", q.in.Name, resp.Cost, c)
			}
		}
		if err != nil {
			mu.Lock()
			rep.fail("%v", err)
			mu.Unlock()
		}
		return err
	}
}

// setUp starts the cluster setupRepeats times, each time running warm on
// it, and keeps the last one. It returns the set-up times in seconds.
func setUp(o options, rep *report, warm func(c *cluster) []sample) (*cluster, []float64, error) {
	var setups []float64
	for k := 1; ; k++ {
		t0 := time.Now()
		c, err := startCluster(o)
		if err != nil {
			return nil, nil, err
		}
		ps := phaseReport(rep, fmt.Sprintf("warmup-%d", k), warm(c))
		setups = append(setups, time.Since(t0).Seconds())
		if k == setupRepeats {
			c.printFlags()
			return c, setups, nil
		}
		c.stop()
		if ps.failed > 0 {
			return nil, nil, fmt.Errorf("warm-up failed %d of %d requests", ps.failed, ps.sent)
		}
	}
}

// statDelta runs f and returns the daemons' counter changes over it.
func statDelta(ctx context.Context, c *cluster, f func()) (w wire.Stats, cs wire.ClusterStats, err error) {
	w0, c0, err := c.counters(ctx)
	if err != nil {
		return w, cs, err
	}
	f()
	w1, c1, err := c.counters(ctx)
	if err != nil {
		return w, cs, err
	}
	w = wire.Stats{
		Submitted:        w1.Submitted - w0.Submitted,
		CacheHits:        w1.CacheHits - w0.CacheHits,
		StoreServed:      w1.StoreServed - w0.StoreServed,
		CacheEvictions:   w1.CacheEvictions - w0.CacheEvictions,
		Batches:          w1.Batches - w0.Batches,
		BatchedJobs:      w1.BatchedJobs - w0.BatchedJobs,
		StoreWrites:      w1.StoreWrites - w0.StoreWrites,
		StoreCompactions: w1.StoreCompactions - w0.StoreCompactions,
	}
	cs = wire.ClusterStats{Retries: c1.Retries - c0.Retries, Hedges: c1.Hedges - c0.Hedges, Shed: c1.Shed - c0.Shed}
	if cs.Retries+cs.Hedges+cs.Shed > 0 {
		fmt.Printf("NOTE: cluster retries=%d hedges=%d shed=%d during the measured phase; this run measured more than the plain path\n",
			cs.Retries, cs.Hedges, cs.Shed)
	}
	return w, cs, nil
}

// setEndToEnd reports the serve workloads' set-up time, tree cost and
// memory; each workload sets its own latency, tail and throughput.
func setEndToEnd(rep *report, c *cluster, setups []float64, cost float64, costNote string) error {
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups: daemons, registration, warm-up", len(setups)))
	rep.set("tree_cost", cost, costNote)
	rss, err := c.peakRSS()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, "VmHWM of coordinator + worker")
	return nil
}

// setServeCounters reports the ratios and counts read from the daemons.
func setServeCounters(rep *report, w wire.Stats, cs wire.ClusterStats) {
	base := float64(max(w.Submitted, 1))
	note := fmt.Sprintf("of %d worker requests", w.Submitted)
	rep.set("serve.mem_hit_share", float64(w.CacheHits)/base, note)
	rep.set("store.hit_share", float64(w.StoreServed)/base, note)
	rep.set("serve.evictions_per_req", float64(w.CacheEvictions)/base, note)
	meanBatch := 0.0
	if w.Batches > 0 {
		meanBatch = float64(w.BatchedJobs) / float64(w.Batches)
	}
	rep.set("serve.mean_batch", meanBatch, fmt.Sprintf("%d jobs in %d batches", w.BatchedJobs, w.Batches))
	rep.set("store.writes", float64(w.StoreWrites), "")
	rep.set("store.compactions", float64(w.StoreCompactions), "")
	rep.set("cluster.retries", float64(cs.Retries), "expected 0")
	rep.set("cluster.hedges", float64(cs.Hedges), "expected 0")
	rep.set("cluster.shed", float64(cs.Shed), "expected 0")
}

// probeHop sends each request alternately via the coordinator and straight
// to the worker; both answer from the worker's cache, so the difference of
// the mean latencies is what the coordinator hop adds.
func probeHop(ctx context.Context, rep *report, c *cluster, reqs []*request, check checkFunc) float64 {
	var via, direct []sample
	for i := 0; i < hopPairs; i++ {
		q := reqs[i%len(reqs)]
		via = append(via, send(ctx, nil, c.viaCoord, q, time.Now(), check))
		direct = append(direct, send(ctx, nil, c.direct, q, time.Now(), check))
	}
	pv := phaseReport(rep, "hop-probe-via-coordinator", via)
	pd := phaseReport(rep, "hop-probe-direct", direct)
	return mean(pv.latencies) - mean(pd.latencies)
}

// warmRouter loads a selector into an in-process router and warms it up on
// the subset's largest layout, for the traced pass's reference routes.
func warmRouter() (*core.Router, error) {
	sel, err := models.New()
	if err != nil {
		return nil, err
	}
	r := core.NewRouter(sel)
	warm, err := warmLayout("T32", warmSeed)
	if err != nil {
		return nil, err
	}
	r.Propose(warm)
	return r, nil
}

// queueMS is the median over samples of latency minus the in-process time
// of the same layout.
func queueMS(samples []sample, ref map[int]float64) float64 {
	var d []float64
	for _, s := range samples {
		if r, ok := ref[s.req.id]; ok && s.ok {
			d = append(d, s.latencyMS()-r)
		}
	}
	return median(d)
}

// runServeHot is repeat traffic through client -> coordinator -> worker:
// two closed-loop callers send pool layouts, each in a seeded one of its
// 16 orientations. Every answer comes from the worker's memory LRU or its
// store, so decode, canonical hashing, the cache tiers and the hop do the
// work and the selector does none.
func runServeHot(o options, rep *report) error {
	augs := grid.AllAugmentations()
	rng := rand.New(rand.NewSource(o.seed))
	variants := make([][]*request, hotPool)
	warmReqs := make([]*request, hotPool)
	for i := range variants {
		base, err := genLayout("T32", hotSeed+int64(i))
		if err != nil {
			return err
		}
		for _, a := range augs {
			q, err := newRequest(i, orient(base, a))
			if err != nil {
				return err
			}
			variants[i] = append(variants[i], q)
		}
		warmReqs[i] = variants[i][rng.Intn(len(augs))]
	}
	seq := make([]*request, hotSeqLen)
	for j := range seq {
		seq[j] = variants[rng.Intn(hotPool)][rng.Intn(len(augs))]
	}
	next := func(j int) *request { return seq[j%len(seq)] }

	ctx := context.Background()
	var mu sync.Mutex
	warmCost := map[int]float64{}
	warmResp := map[int]*wire.RouteResponse{}
	c, setups, err := setUp(o, rep, func(c *cluster) []sample {
		check := checker(rep, &mu, nil)
		var out []sample
		for _, q := range warmReqs {
			s := send(ctx, nil, c.viaCoord, q, time.Now(), check)
			if s.ok {
				warmCost[q.id], warmResp[q.id] = s.resp.Cost, s.resp
			}
			out = append(out, s)
		}
		return out
	})
	if err != nil {
		return err
	}
	defer c.stop()
	check := checker(rep, &mu, warmCost)
	costSum := 0.0
	for _, v := range warmCost {
		costSum += v
	}

	window := time.Duration(o.seconds) * time.Second
	if !o.trace {
		var samples []sample
		if _, _, err := statDelta(ctx, c, func() {
			samples = closedLoop(ctx, nil, c.viaCoord, window, next, check)
		}); err != nil {
			return err
		}
		ps := phaseReport(rep, "measure", samples)
		lat, tailMS, rate, pct, ok := windowed(samples, ps.first, window, hotWindows)
		if !ok {
			return fmt.Errorf("too few samples (%d) for a tail in each of %d sub-windows", ps.sent, hotWindows)
		}
		if p, v, beyond, ok := tail(ps.latencies); ok {
			fmt.Printf("whole window: median %.4g ms, p%g %.4g ms (%d beyond), %.4g completions/s\n",
				median(ps.latencies), p, v, beyond, ps.throughput())
		}
		note := fmt.Sprintf("median over %d sub-windows of %.0f s, %d requests", hotWindows, window.Seconds()/hotWindows, ps.sent)
		rep.set("latency_ms", lat, "median latency; "+note)
		rep.set("tail_ms", tailMS, fmt.Sprintf("p%g; %s", pct, note))
		rep.set("throughput_rps", rate, "completions per second; "+note)
		return setEndToEnd(rep, c, setups, costSum, fmt.Sprintf("sum of warm-up costs over the %d-layout pool", hotPool))
	}

	tr := newTracer()
	var samples []sample
	w, cs, err := statDelta(ctx, c, func() {
		samples = closedLoop(ctx, tr, c.viaCoord, window, next, check)
	})
	if err != nil {
		return err
	}
	plain, traced := splitTraced(samples)
	pp, tp := phaseReport(rep, "measure-untraced", plain), phaseReport(rep, "measure-traced", traced)
	hop := probeHop(ctx, rep, c, warmReqs, check)

	r, err := warmRouter()
	if err != nil {
		return err
	}
	rt, err := traceRoutes(tr, r, warmReqs, warmCost, rep)
	if err != nil {
		return err
	}
	hitMS, err := probeServeLayers(tr, o.work, warmReqs, warmResp, rep)
	if err != nil {
		return err
	}
	lt := layers(tr.spans)
	setRouteLayers(rep, lt, rt)
	setServeLayers(rep, lt)
	setServeCounters(rep, w, cs)
	rep.set("cluster.hop_ms", hop, fmt.Sprintf("mean of %d via coordinator minus direct to worker", hopPairs))
	rep.set("client.route_ms", lt["client.route"].meanMS(), "traced client.Route")
	twice := 2 * (lt["serve.canonical"].meanMS() + lt["layout.decode"].meanMS())
	rep.set("serve.twice_paid_share", twice/lt["client.route"].meanMS(),
		"2 x (serve.canonical_ms + layout.decode_ms) over client.route_ms")
	rep.set("serve.queue_ms", queueMS(traced, hitMS), "median of latency minus in-process memory hit")
	rep.set("loadgen.lag_ms", 0, "closed loop: requests are sent when due")
	rep.set("trace.overhead_share", median(tp.latencies)/median(pp.latencies)-1, "traced over untraced requests' median latency, minus 1")
	return tr.write(filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)))
}

// runServeCold is fresh traffic through the same cluster: every request is
// a never-seen T32 layout, sent on a fixed open-loop schedule of
// exponential gaps at coldRate. Arrivals overlap, so the worker queues and
// batches; the selector dominates and the store takes writes.
func runServeCold(o options, rep *report) error {
	due := schedule(coldSchedSeed, coldRate, time.Duration(o.seconds)*time.Second)
	// Every run sends the same layouts in the same order, whatever the
	// seed: on an open loop, which layouts meet the schedule's bursts
	// decides the queueing, and seeded orientations or a seeded order moved
	// the median latency by 30% and 20% between seeds.
	var stream []*request
	for j := range due {
		in, err := genLayout("T32", coldSeed+int64(j))
		if err != nil {
			return err
		}
		q, err := newRequest(j, in)
		if err != nil {
			return err
		}
		stream = append(stream, q)
	}
	var warm []*request
	for k := 0; k < coldWarm; k++ {
		in, err := warmLayout("T32", warmSeed+1+int64(k))
		if err != nil {
			return err
		}
		q, err := newRequest(-1-k, in)
		if err != nil {
			return err
		}
		warm = append(warm, q)
	}

	ctx := context.Background()
	var mu sync.Mutex
	check := checker(rep, &mu, nil)
	c, setups, err := setUp(o, rep, func(c *cluster) []sample {
		var out []sample
		for _, q := range warm {
			out = append(out, send(ctx, nil, c.viaCoord, q, time.Now(), check))
		}
		return out
	})
	if err != nil {
		return err
	}
	defer c.stop()

	if !o.trace {
		var samples []sample
		if _, _, err := statDelta(ctx, c, func() {
			samples = openLoop(ctx, nil, c.viaCoord, due, stream, check)
		}); err != nil {
			return err
		}
		ps := phaseReport(rep, "measure", samples)
		rep.set("latency_ms", median(ps.latencies), fmt.Sprintf("median of %d, from due time", len(ps.latencies)))
		if p, v, beyond, ok := tail(ps.latencies); ok {
			rep.set("tail_ms", v, fmt.Sprintf("p%g of %d, %d beyond", p, len(ps.latencies), beyond))
		} else {
			return fmt.Errorf("too few samples (%d) for a tail with %d beyond", len(ps.latencies), minBeyond)
		}
		rep.set("throughput_rps", ps.throughput(), fmt.Sprintf("%d completions from first due time to last completion, %.2f s", ps.ok, ps.last.Sub(ps.first).Seconds()))
		cost := 0.0
		for _, s := range samples {
			if s.ok {
				cost += s.resp.Cost
			}
		}
		return setEndToEnd(rep, c, setups, cost, fmt.Sprintf("sum over the %d-layout set", len(samples)))
	}

	tr := newTracer()
	var samples []sample
	w, cs, err := statDelta(ctx, c, func() {
		samples = openLoop(ctx, tr, c.viaCoord, due, stream, check)
	})
	if err != nil {
		return err
	}
	plain, traced := splitTraced(samples)
	pp, tp := phaseReport(rep, "measure-untraced", plain), phaseReport(rep, "measure-traced", traced)
	var served []*request
	want := map[int]float64{}
	resps := map[int]*wire.RouteResponse{}
	for _, s := range traced {
		if s.ok {
			served = append(served, s.req)
			want[s.req.id], resps[s.req.id] = s.resp.Cost, s.resp
		}
	}
	// The last answers are still in the worker's 16-entry LRU.
	hop := probeHop(ctx, rep, c, served[max(0, len(served)-8):], check)

	r, err := warmRouter()
	if err != nil {
		return err
	}
	rt, err := traceRoutes(tr, r, served, want, rep)
	if err != nil {
		return err
	}
	if _, err := probeServeLayers(tr, o.work, served, resps, rep); err != nil {
		return err
	}
	lt := layers(tr.spans)
	setRouteLayers(rep, lt, rt)
	setServeLayers(rep, lt)
	setServeCounters(rep, w, cs)
	rep.set("cluster.hop_ms", hop, fmt.Sprintf("mean of %d via coordinator minus direct to worker", hopPairs))
	rep.set("client.route_ms", lt["client.route"].meanMS(), "traced client.Route, from send")
	rep.set("serve.twice_paid_share", 2*(lt["serve.canonical"].meanMS()+lt["layout.decode"].meanMS())/lt["client.route"].meanMS(),
		"2 x (serve.canonical_ms + layout.decode_ms) over client.route_ms")
	rep.set("serve.queue_ms", queueMS(traced, rt.wallMS), "median of due-time latency minus in-process route")
	rep.set("loadgen.lag_ms", median(tp.lags), "median generator lateness, traced pass")
	rep.set("trace.overhead_share", median(tp.latencies)/median(pp.latencies)-1, "traced over untraced requests' median latency, minus 1")
	return tr.write(filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)))
}
