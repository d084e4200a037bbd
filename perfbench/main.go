// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload for a fixed wall-clock window, checks every output it
// produced, and prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set. With --trace 1 the
// run records spans around the benchmark's own calls into each layer and
// prints the per-layer set instead. README.md defines every metric.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs, with the reason it is
// in the benchmark.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{
		name: "cycles-otem",
		why:  "the paper's MPC controller over UDDS, US06 and HWFET; the replan is 99.8% of route time, so replan, optimizer and cell-model changes show here at full strength",
		run:  runCycles,
	},
	{
		name: "fleet-parallel",
		why:  "a Parallel-baseline fleet that never runs the MPC: route synthesis, the batched plant step, the bus solve, thermal, sketches and the worker pool",
		run:  runFleet,
	},
	{
		name: "serve-mix",
		why:  "closed-loop otem-serve traffic dominated by cheap cache misses, so decode, cache keys, admission, caching and encoding are a real share of each request",
		run:  runServe,
	},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the --trace 0 metric set, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"success_share", "ratio"},
	{"peak_rss_mb", "MB"},
	{"qloss_pct", "%"},
	{"energy_kj", "kJ"},
}

// perLayer is the --trace 1 metric set, reported on every workload. A
// metric taken from the spans of a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"core.replans", "count"},
	{"core.replan_ms_mean", "ms"},
	{"core.replan_share", "ratio"},
	{"core.hold_us_mean", "us"},
	{"core.new_us", "us"},
	{"sim.plant_us_per_step", "us"},
	{"battery.aging_rate_ns", "ns"},
	{"battery.resistance_ns", "ns"},
	{"battery.ocv_ns", "ns"},
	{"runtime.allocs_per_step", "count"},
	{"drivecycle.synth_us_per_vehicle", "us"},
	{"sim.batch_lane_steps_per_s", "1/s"},
	{"hees.bus_solve_ns_per_lane", "ns"},
	{"cooling.step_ns", "ns"},
	{"fleet.sketch_add_ns", "ns"},
	{"fleet.serial_work_per_s", "1/s"},
	{"runner.scaling_efficiency", "ratio"},
	{"runtime.allocs_per_vehicle", "count"},
	{"runtime.gc_cycles", "count"},
	{"serve.hit_share", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.miss_ms_p50", "ms"},
	{"serve.miss_ms_p90", "ms"},
	{"serve.trace_ms_p50", "ms"},
	{"serve.plan_ms_p50", "ms"},
	{"otem.run_ms_p50", "ms"},
	{"otem.encode_ms_p50", "ms"},
	{"hmpc.plan_ms_p50", "ms"},
	{"canon.key_us", "us"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.response_mb", "MB"},
	{"runtime.alloc_mb_per_request", "MB"},
	{"trace.overhead_pct", "%"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	window  time.Duration // the measured window of one run
	trace   bool
	workers int // load-generating goroutines: min(NumCPU, GOMAXPROCS)
	size    sizes
}

// outcome is a workload's report: operations attempted and failed, the
// output-check problems behind the failures, and the metric values.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// failOp counts one failed operation and keeps its first problems for
// the report on standard error.
func (o *outcome) failOp(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) successShare() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.attempted-o.failed) / float64(o.attempted)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command and returns its exit code: 0 when every
// output check passed, 1 when a check failed (the result line is still
// printed), 2 when the run could not be set up (nothing is printed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window, seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	smoke := fs.Bool("smoke", false, "tiny sizes, for the benchmark's own tests")
	pins := fs.Bool("pins", false, "print the fleet-parallel digest pins of the current simulator and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	if *pins {
		if err := printPins(stdout, sz); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		size:    sz,
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(w, cfg)})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(prov))

	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res, err := assemble(out, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// assemble attaches units to the workload's values and insists that it
// reported exactly the declared metric set, every value finite.
func assemble(out *outcome, defs []metricDef) (resultJSON, error) {
	res := resultJSON{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if len(out.metrics) != len(defs) {
		var extra []string
		for k := range out.metrics {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return res, fmt.Errorf("undeclared metrics %v", extra)
	}
	return res, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// provenance records where and how a run was made.
func provenance(w *workload, cfg runConfig) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]any{
		"workload":   w.name,
		"why":        w.why,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    cfg.workers,
		"go_version": runtime.Version(),
		"commit":     commit,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"trace":      cfg.trace,
		"smoke":      cfg.size.smoke,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, or returns
// GOARCH where that file does not exist.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
