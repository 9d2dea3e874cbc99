// Command perfbench is the repository's benchmark. It runs one workload
// against the code as it stands, checks every answer, and prints its
// metrics by name with their units; the last line of its output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it through run.sh from the checkout root, which builds this program
// and the routing daemon first:
//
//	bash perfbench/run.sh --workload route-t128 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs a
// traced pass and prints the per-layer metrics instead. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the router sees; every workload
// reports all of them with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"tree_cost", "cost"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced pass's metrics; every workload reports all of
// them with --trace 1, as 0 where the workload does not run the layer
// (README.md lists which apply where).
var perLayer = []metricDef{
	{"selector.propose_ms", "ms"},
	{"selector.inferences", "count"},
	{"route.steiner_ms", "ms"},
	{"route.retrace_ms", "ms"},
	{"core.guard_ms", "ms"},
	{"core.construct_ms", "ms"},
	{"core.route_ms", "ms"},
	{"core.unaccounted_ms", "ms"},
	{"route.searches", "count"},
	{"route.heap_pops", "count"},
	{"route.relaxations", "count"},
	{"route.oarmst_builds", "count"},
	{"layout.decode_ms", "ms"},
	{"serve.canonical_ms", "ms"},
	{"wire.codec_ms", "ms"},
	{"serve.hit_ms", "ms"},
	{"store.hit_ms", "ms"},
	{"cluster.hop_ms", "ms"},
	{"client.route_ms", "ms"},
	{"serve.twice_paid_share", "ratio"},
	{"serve.mem_hit_share", "ratio"},
	{"store.hit_share", "ratio"},
	{"serve.evictions_per_req", "ratio"},
	{"serve.queue_ms", "ms"},
	{"serve.mean_batch", "count"},
	{"store.writes", "count"},
	{"store.compactions", "count"},
	{"loadgen.lag_ms", "ms"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.shed", "count"},
	{"trace.overhead_share", "ratio"},
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, the last set-up is the one measured.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string // path of the oarsmt-serve binary
	work     string // scratch directory inside the checkout
}

// report collects a run's outcome.
type report struct {
	attempted, failed int
	wrong             []string
	values            map[string]float64
	notes             map[string]string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

// maxWrong caps how many wrong answers a run lists.
const maxWrong = 20

// fail records a wrong or missing answer.
func (r *report) fail(format string, args ...any) {
	if len(r.wrong) == maxWrong {
		r.wrong = append(r.wrong, "(further wrong answers not listed)")
	}
	if len(r.wrong) < maxWrong {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// phase prints and counts one phase's requests.
func (r *report) phase(name string, sent, ok, failed int) {
	fmt.Printf("phase %s sent=%d ok=%d failed=%d\n", name, sent, ok, failed)
	r.attempted += sent
	r.failed += failed
}

type workload struct {
	name string
	run  func(options, *report) error
}

var workloads = []workload{
	{"route-t128", runRouteT128},
	{"serve-hot", runServeHot},
	{"serve-cold", runServeCold},
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: route-t128, serve-hot or serve-cold")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured window of the serve workloads, in seconds")
	traceN := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", ".bench_build/oarsmt-serve", "oarsmt-serve binary")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for stores and traces")
	flag.Parse()
	o.trace = *traceN == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(o options) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 2 {
		return fmt.Errorf("--seconds %d: want at least 2", o.seconds)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	fmt.Printf("machine cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("workload %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)

	rep := newReport()
	if err := w.run(o, rep); err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail("%s is not finite", d.name)
			v = -1
		}
		fmt.Printf("metric %s %.6g %s", d.name, v, d.unit)
		if n := rep.notes[d.name]; n != "" {
			fmt.Printf(" (%s)", n)
		}
		fmt.Println()
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, msg := range rep.wrong {
		fmt.Println("WRONG:", msg)
	}
	correct := len(rep.wrong) == 0 && rep.failed == 0
	b, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !correct {
		os.Exit(1)
	}
	return nil
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
