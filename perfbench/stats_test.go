package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"oarsmt/wire"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
		ok     bool
	}{
		{n: 19, ok: false}, // even the median has only 9 beyond
		{n: 20, pct: 50, value: 10, beyond: 10, ok: true}, // median: 10 beyond
		{n: 99, pct: 50, value: 50, beyond: 49, ok: true}, // p90 would leave 9
		{n: 100, pct: 90, value: 90, beyond: 10, ok: true},
		{n: 117, pct: 90, value: 106, beyond: 11, ok: true},
		{n: 999, pct: 90, value: 900, beyond: 99, ok: true},
		{n: 1000, pct: 99, value: 990, beyond: 10, ok: true},
		{n: 10000, pct: 99.9, value: 9990, beyond: 10, ok: true},
	} {
		pct, v, beyond, ok := tail(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || v != tc.value || beyond != tc.beyond {
			t.Errorf("n=%d: got p%g=%g with %d beyond (ok=%v), want p%g=%g with %d beyond (ok=%v)",
				tc.n, pct, v, beyond, ok, tc.pct, tc.value, tc.beyond, tc.ok)
		}
	}
}

func TestTailDoesNotReorderInput(t *testing.T) {
	xs := []float64{5, 1, 4}
	tail(xs)
	median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestSampleTimesFromDue(t *testing.T) {
	due := time.Unix(100, 0)
	s := sample{due: due, sent: due.Add(5 * time.Millisecond), done: due.Add(25 * time.Millisecond), ok: true}
	if got := s.latencyMS(); got != 25 {
		t.Errorf("latency %v ms, want 25 (timed from due, not from sent)", got)
	}
	if got := s.lagMS(); got != 5 {
		t.Errorf("lag %v ms, want 5", got)
	}
}

func TestFailedRequestCountsAsMissing(t *testing.T) {
	due := time.Unix(100, 0)
	at := func(i int, ok bool) sample {
		d := due.Add(time.Duration(i) * time.Second)
		return sample{due: d, sent: d, done: d.Add(10 * time.Millisecond), ok: ok}
	}
	ps := summarise([]sample{at(0, true), at(1, false), at(2, false)})
	if ps.sent != 3 || ps.ok != 1 || ps.failed != 2 {
		t.Fatalf("sent/ok/failed = %d/%d/%d, want 3/1/2", ps.sent, ps.ok, ps.failed)
	}
	if m := median(ps.latencies); !math.IsInf(m, 1) {
		t.Errorf("median %v with two of three requests failed, want +Inf", m)
	}
	if got, want := ps.throughput(), 1/2.01; math.Abs(got-want) > 1e-9 {
		t.Errorf("throughput %v, want %v: only successes count", got, want)
	}
}

// TestOpenLoopChargesWaitToLateRequests sends three requests due at once
// through two connections to a server that takes 50 ms each: the third
// waits for a free connection, so it is sent late and its latency, timed
// from when it was due, includes the wait.
func TestOpenLoopChargesWaitToLateRequests(t *testing.T) {
	const delay = 50 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		_ = json.NewEncoder(w).Encode(wire.RouteResponse{Cost: 1})
	}))
	defer srv.Close()
	cl, err := newClient(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []*request{{id: 0, json: []byte(`{}`)}, {id: 1, json: []byte(`{}`)}, {id: 2, json: []byte(`{}`)}}
	ok := func(_ *request, _ *wire.RouteResponse, err error) error { return err }
	samples := openLoop(context.Background(), nil, cl, make([]time.Duration, 3), reqs, ok)
	ps := summarise(samples)
	if ps.ok != 3 {
		t.Fatalf("%d of 3 succeeded", ps.ok)
	}
	late := 0
	for _, s := range samples {
		if s.lagMS() >= ms(delay) {
			late++
			if s.latencyMS() < 2*ms(delay) {
				t.Errorf("late request latency %v ms, want at least %v", s.latencyMS(), 2*ms(delay))
			}
		}
	}
	if late != 1 {
		t.Errorf("%d requests sent late, want 1 (two connections for three requests)", late)
	}
}

// TestWindowedIgnoresOneSlowSubWindow feeds five one-second sub-windows of
// 100 requests each, one of them slowed tenfold: the medians over the
// sub-windows stay at the steady values.
func TestWindowedIgnoresOneSlowSubWindow(t *testing.T) {
	start := time.Unix(100, 0)
	var samples []sample
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			lat := time.Duration(i+1) * time.Millisecond
			if w == 2 {
				lat *= 10
			}
			sent := start.Add(time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond)
			samples = append(samples, sample{due: sent, sent: sent, done: sent.Add(lat), ok: true})
		}
	}
	lat, tailMS, rate, pct, ok := windowed(samples, start, 5*time.Second, 5)
	if !ok || pct != 90 {
		t.Fatalf("ok=%v pct=%v, want a p90 tail in every sub-window", ok, pct)
	}
	if lat != 50.5 || tailMS != 90 || rate != 100 {
		t.Errorf("latency %v, tail %v, rate %v; want 50.5, 90, 100", lat, tailMS, rate)
	}
	// A failed request is a missing answer: it leaves the completion rate
	// and counts as an infinite latency in its sub-window.
	samples[0].ok = false
	if _, _, rate, _, _ = windowed(samples, start, 5*time.Second, 5); rate != 100 {
		t.Errorf("rate %v with one failure in one sub-window, want the median 100", rate)
	}
}

func TestScheduleIsFixedAndInWindow(t *testing.T) {
	a := schedule(7, 6.5, 20*time.Second)
	b := schedule(7, 6.5, 20*time.Second)
	if len(a) != len(b) || len(a) < 80 || len(a) > 180 {
		t.Fatalf("schedule lengths %d, %d: want equal and near 130", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= 20*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("due[%d] = %v: schedule not fixed, in window and ordered", i, a[i])
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
	}
	lt := layers(spans)
	if got := lt["root"].self; got != 40 {
		t.Errorf("root self %v, want 40 (100 minus the union 10-50, 60-70, 90-100)", got)
	}
	if a := lt["a"]; a.calls != 2 || a.total != 30 || a.self != 30 {
		t.Errorf("a = %+v, want 2 calls, 30 total and self", a)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) {
			t.Errorf("invalid metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range []string{"", ".lead", "_lead", "a b", "a/b", "ms%", "é", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// the ones the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
