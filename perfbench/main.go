// Command perfbench is the repository benchmark: one command that runs a
// named workload for a fixed time, checks the program's outputs, and prints
// every metric by name with its unit. The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload day|serve-churn|serve-warm \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: it records spans around calls into each layer's
// public functions, writes them as trace-event JSON to
// .bench_build/perfbench-trace-<workload>-<seed>.json, and reports the
// per-layer metrics. A run whose output checks fail exits with status 1 and
// prints no result. BASELINE.md records why each workload exists, which
// end-to-end metric each layer metric should move, and the first baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"spacecdn/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with tracing
// off, reported on every workload. throughput_rps is sim_rps on day and
// capacity_rps on serve-*; latency_p50_ms is open-loop request latency on
// serve-* and wall time per simulated step on day. Tail latencies are not
// gated: on a 2-vCPU virtual machine that shares its host with other
// tenants, open-loop p90 and p99 moved by 1.5x to 2x between runs of the
// same code, so they are per-layer metrics (serve.latency_p90_ms,
// serve.latency_p99_ms) and printed on every run (see BASELINE.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports every one;
// a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"traffic.next_batch_ms", "ms"},
	{"constellation.snapshot_ms", "ms"},
	{"constellation.isl_graph_ms", "ms"},
	{"spacecdn.new_epoch_ms", "ms"},
	{"serve.epoch_swap_p50_ms", "ms"},
	{"serve.epoch_swap_p99_ms", "ms"},
	{"constellation.best_visible_us", "us"},
	{"routing.nearest_in_set_us", "us"},
	{"routing.bfs_per_req", "count"},
	{"routing.bfs_us", "us"},
	{"constellation.path_tree_cold_us", "us"},
	{"constellation.path_tree_warm_us", "us"},
	{"constellation.path_memo_hit_ratio", "ratio"},
	{"routing.dijkstra_per_req", "count"},
	{"routing.dijkstra_us", "us"},
	{"lsn.resolve_path_cold_us", "us"},
	{"lsn.resolve_path_warm_us", "us"},
	{"lsn.resolve_path_cold_share", "ratio"},
	{"spacecdn.path_self_share", "ratio"},
	{"faults.view_at_us", "us"},
	{"spacecdn.degraded_share", "ratio"},
	{"spacecdn.resolve_all_ms", "ms"},
	{"spacecdn.resolve_at_us.overhead", "us"},
	{"spacecdn.resolve_at_us.isl", "us"},
	{"spacecdn.resolve_at_us.ground", "us"},
	{"serve.resolve_once_us", "us"},
	{"spacecdn.allocs_per_req", "count"},
	{"spacecdn.space_share", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"lifecycle.origin_fetch_ratio", "ratio"},
	{"lifecycle.fresh_share", "ratio"},
	{"serve.http_overhead_us", "us"},
	{"serve.stale_ratio", "ratio"},
	{"serve.latency_p90_ms", "ms"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.first_of_pair_share", "ratio"},
	{"telemetry.overhead_us", "us"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_pause_p99_ms", "ms"},
	{"loadgen.send_lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.conns_opened", "count"},
	{"trace.overhead_pct", "%"},
}

// report is what one workload run hands back to main.
type report struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64
	spans             []span
	notes             []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// shares notes each listed layer's self time as a share of the summed
// duration of the spans named whole.
func (r *report) shares(label string, self map[string]layerTimes, whole string, names []string) {
	total := self[whole].total
	if total <= 0 {
		return
	}
	parts := make([]string, 0, len(names))
	for _, n := range names {
		if t, ok := self[n]; ok {
			parts = append(parts, fmt.Sprintf("%s %.3f", n, float64(t.own)/float64(total)))
		}
	}
	r.notef("%s self-time shares of %s: %s", label, whole, strings.Join(parts, ", "))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: day, serve-churn or serve-warm")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds one run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.workload != "day" && o.workload != "serve-churn" && o.workload != "serve-warm":
		return o, fmt.Errorf("unknown workload %q (want day, serve-churn or serve-warm)", o.workload)
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its metrics; any error means a check
// failed and nothing was printed as a result.
func run(w io.Writer, o options) error {
	return runWith(w, o, runWorkload)
}

func runWorkload(o options) (*report, error) {
	budget := time.Duration(o.seconds) * time.Second
	traced := o.trace == 1
	switch o.workload {
	case "day":
		return dayWorkload(dayOptions(o.seed), budget, traced)
	case "serve-churn":
		return serveWorkload(serveOptions(o.seed, true), budget, traced)
	default:
		return serveWorkload(serveOptions(o.seed, false), budget, traced)
	}
}

func runWith(w io.Writer, o options, workload func(options) (*report, error)) error {
	traced := o.trace == 1
	rep, err := workload(o)
	if err != nil {
		return err
	}
	// A mean or quantile of no samples reads NaN: a layer the workload does
	// not exercise reads 0, but an end-to-end metric must be measured.
	for n, v := range rep.e2e {
		if math.IsNaN(v) {
			return fmt.Errorf("%s: no samples", n)
		}
	}
	for n, v := range rep.layers {
		if math.IsNaN(v) {
			rep.layers[n] = 0
		}
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layers
		path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-trace-%s-%d.json", o.workload, o.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := writePerfetto(path, "perfbench "+o.workload, rep.spans); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d spans written to %s\n", len(rep.spans), path)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := finite(vals[d.name])
		out.Metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.name, v, d.unit)
	}
	if unknown := unlisted(vals, defs); len(unknown) > 0 {
		return fmt.Errorf("metrics measured but not declared: %v", unknown)
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// unlisted returns measured metric names missing from defs, sorted.
func unlisted(vals map[string]float64, defs []metricDef) []string {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
	}
	var out []string
	for n := range vals {
		if !known[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// dayWorkload runs the day workload. The untraced run measures the
// end-to-end metrics over the whole budget; the traced run spends half the
// budget untraced and half traced, and reports the difference in sim_rps
// as the tracing overhead.
func dayWorkload(o dayOpts, budget time.Duration, traced bool) (*report, error) {
	rep := newReport()
	if !traced {
		d, err := runDay(o, budget, nil, nil)
		if err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = d.tally.requests, d.tally.errors
		rep.e2e["setup_s"] = stats.Median(d.setups)
		rep.e2e["throughput_rps"] = d.rps()
		rep.e2e["latency_p50_ms"] = stats.Quantile(d.dayP50, 0.25)
		rep.e2e["heap_live_mb"] = d.heapMB
		rep.notef("day: sim_rps %.1f 1/s (reported as throughput_rps; upper quartile of %d days) over %d requests, %d steps, %.2f s of day loop",
			d.rps(), len(d.dayRPS), d.tally.requests, len(d.stepMs), d.loop.Seconds())
		rep.notef("day: %d generated requests from clients beyond %.0f degrees of latitude left out (%.5f of generated)",
			d.uncovered, maxClientLat, ratio(float64(d.uncovered), float64(d.uncovered+d.tally.requests)))
		rep.notef("day: error_ratio %.6f (%d resolution errors); step wall time p50 %.3f ms, p90 %.3f ms (lower quartiles of the per-day figures); setup_s median of %d set-ups, quartiles %.5f to %.5f s",
			ratio(float64(d.tally.errors), float64(d.tally.requests)), d.tally.errors,
			rep.e2e["latency_p50_ms"], stats.Quantile(d.dayP90, 0.25), len(d.setups),
			stats.Quantile(d.setups, 0.25), stats.Quantile(d.setups, 0.75))
	} else {
		plain, err := runDay(o, budget/2, nil, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		d, err := runDay(o, budget/2, tr, rep.layers)
		if err != nil {
			return nil, err
		}
		rep.attempted = plain.tally.requests + d.tally.requests
		rep.failed = plain.tally.errors + d.tally.errors
		rep.spans = tr.spans
		rep.layers["trace.overhead_pct"] = 100 * (plain.rps() - d.rps()) / plain.rps()
		rep.notef("day traced: sim_rps untraced %.1f traced %.1f 1/s", plain.rps(), d.rps())
		self := selfTimes(tr.spans)
		rep.shares("day request", self, "spacecdn.resolve", []string{"faults.view_at", "constellation.masked",
			"constellation.best_visible", "routing.nearest_in_set", "constellation.path_tree", "lsn.resolve_path", "spacecdn.resolve"})
		// Shares of an unprobed step's wall time: per-step layer means over
		// the mean unprobed step.
		step := self["day.step"]
		if step.count > 0 {
			stepMs := msOf(step.total) / float64(step.count)
			perStep := func(name string) float64 {
				return ratio(msOf(self[name].own), float64(self["day.step"].count+self["day.step_probed"].count)) / stepMs
			}
			rep.notef("day step wall-time shares (unprobed steps, %.2f ms mean): traffic.next_batch %.3f, constellation.snapshot %.3f, constellation.isl_graph %.3f, spacecdn.place %.3f, spacecdn.resolve_all %.3f",
				stepMs, perStep("traffic.next_batch"), perStep("constellation.snapshot"), perStep("constellation.isl_graph"),
				perStep("spacecdn.place"), meanMs(self["spacecdn.resolve_all"])/stepMs)
		}
	}
	if err := checkWorkerInvariance(o); err != nil {
		return nil, err
	}
	rep.notef("day: result digest of the first %d steps identical at 1 and 2 workers", o.digestSteps)
	return rep, nil
}
