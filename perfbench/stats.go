package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"oarsmt/wire"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at, highest
// first. A fixed ladder keeps the reported percentile the same from run to
// run while the sample count moves a little.
var tailLadder = []float64{99.9, 99, 90, 50}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPct returns the highest ladder percentile that leaves at least
// minBeyond of n samples strictly above its nearest-rank position, and how
// many it leaves; ok is false when even the median leaves fewer.
func tailPct(n int) (pct float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if b := n - nearestRank(p, n); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// nearestRank is the 1-based rank of percentile p among n samples.
func nearestRank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile returns the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	return sortedCopy(xs)[nearestRank(p, len(xs))-1]
}

// tail returns the tail percentile of xs by tailPct, its value and how
// many samples lie beyond it.
func tail(xs []float64) (pct, value float64, beyond int, ok bool) {
	pct, beyond, ok = tailPct(len(xs))
	if !ok {
		return 0, 0, 0, false
	}
	return pct, percentile(xs, pct), beyond, true
}

// schedule returns the due offsets of an open-loop arrival process:
// exponential gaps at the given mean rate (per second) from a fixed seed,
// up to but excluding the window's end.
func schedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// sample is one request's outcome in a measured phase. due is when the
// request should have been sent, sent when it was, done when its answer
// was in. A failed or refused request has ok false and counts as missing
// every latency figure.
type sample struct {
	due, sent, done time.Time
	ok              bool
	req             *request
	resp            *wire.RouteResponse
	traced          bool // sent under a span in a traced pass
}

// latencyMS is the request's latency timed from when it was due, so a
// stall also charges the requests it delayed.
func (s sample) latencyMS() float64 { return ms(s.done.Sub(s.due)) }

// lagMS is how late the generator sent the request.
func (s sample) lagMS() float64 { return ms(s.sent.Sub(s.due)) }

// phaseStats summarises one measured phase.
type phaseStats struct {
	sent, ok, failed int
	latencies        []float64 // +Inf for a failed request: it missed every limit
	lags             []float64
	first, last      time.Time // first due time, last completion
}

func summarise(samples []sample) phaseStats {
	var ps phaseStats
	for _, s := range samples {
		ps.sent++
		if ps.first.IsZero() || s.due.Before(ps.first) {
			ps.first = s.due
		}
		if s.done.After(ps.last) {
			ps.last = s.done
		}
		ps.lags = append(ps.lags, s.lagMS())
		if !s.ok {
			ps.failed++
			ps.latencies = append(ps.latencies, math.Inf(1))
			continue
		}
		ps.ok++
		ps.latencies = append(ps.latencies, s.latencyMS())
	}
	return ps
}

// throughput is successful completions per second of the phase's window,
// from the first due time to the last completion.
func (ps phaseStats) throughput() float64 {
	w := ps.last.Sub(ps.first).Seconds()
	if w <= 0 {
		return 0
	}
	return float64(ps.ok) / w
}

// windowed summarises a closed-loop phase robustly against bursts of
// lost CPU on a shared host: it splits the samples by send time into k
// equal sub-windows of the window and returns, over the sub-windows, the
// median of their median latencies, of their tails and of their completion
// rates. The tail percentile is the one tailPct gives the smallest
// sub-window, so every sub-window reports the same percentile. A stall
// that covers fewer than half the sub-windows does not move these figures;
// the failure count still shows failed requests.
func windowed(samples []sample, start time.Time, window time.Duration, k int) (lat, tailMS, rate, pct float64, ok bool) {
	parts := make([][]float64, k)
	done := make([]int, k)
	for _, s := range samples {
		i := int(s.sent.Sub(start) * time.Duration(k) / window)
		if i < 0 || i >= k {
			continue
		}
		if s.ok {
			parts[i] = append(parts[i], s.latencyMS())
			done[i]++
		} else {
			parts[i] = append(parts[i], math.Inf(1))
		}
	}
	smallest := len(samples)
	for _, p := range parts {
		smallest = min(smallest, len(p))
	}
	if pct, _, ok = tailPct(smallest); !ok {
		return 0, 0, 0, 0, false
	}
	var lats, tails, rates []float64
	for i, p := range parts {
		lats = append(lats, median(p))
		tails = append(tails, percentile(p, pct))
		rates = append(rates, float64(done[i])/(window.Seconds()/float64(k)))
	}
	return median(lats), median(tails), median(rates), pct, true
}

// validName reports whether a metric name is made of letters, digits, '_',
// '.' and '-', starts with a letter or digit, and is at most 64 long.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case (r == '_' || r == '.' || r == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}
