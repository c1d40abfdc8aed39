// Command perfbench is divflow's benchmark: one program that generates its
// inputs from a seed, runs one of three workloads against the solver
// library or the divflowd service in-process, checks every output exactly,
// and prints its metrics as a single JSON line.
//
//	perfbench --workload offline-solve --seed 7 --seconds 30 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics, measured with
// tracing off; every workload reports the same names. With --trace 1 the
// workload runs twice on the same inputs, first untraced and then with spans
// and a CPU profile, and the line carries every per-layer metric plus the
// tracing overhead; the spans, the profile and the per-layer attribution
// table are written under --out.
//
// The exit code is 0 only when every output check passed. See README.md for
// the workloads, the metrics and the layer map.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// expectedJSON holds the recorded optimal objectives of the offline
// instance pool (see offline.go).
//
//go:embed expected.json
var expectedJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	expected map[string]string
	log      io.Writer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*options) (*outcome, error){
	"offline-solve":  runOffline,
	"online-backlog": runOnline,
	"http-mixed":     runHTTP,
}

// run is main without the process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{log: stderr}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured duration of one run")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: timed run")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "trace"), "directory for the traced run's spans and profile")
	record := fs.Bool("record", false, "solve the offline pool and print its objectives as expected.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordExpected(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	if err := json.Unmarshal(expectedJSON, &o.expected); err != nil {
		fmt.Fprintln(stderr, "perfbench: expected objectives:", err)
		return 1
	}

	res, err := runner(o)
	if err == nil && len(res.problems) == 0 {
		err = res.complete(o.trace)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", o.workload, p)
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports: operations attempted and failed,
// the output checks that did not hold, and its metrics.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (r *outcome) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a failed output check.
func (r *outcome) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// resultLine is the JSON object printed as the last line of stdout.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *outcome) line() resultLine {
	return resultLine{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// endToEnd maps each end-to-end metric to its unit. Every workload reports
// each of them in a timed run, with the meaning README.md gives it there;
// BENCHMARK.json lists the same names as end_to_end.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MB",
	"ops_per_s":   "1/s",
	"op_ms_p50":   "ms",
}

// perLayer maps each per-layer metric to its unit; BENCHMARK.json lists the
// same names as per_layer. A traced run reports all of them: one of a layer
// or path its workload does not exercise reads 0.
func perLayer() map[string]string {
	m := map[string]string{
		// Workload-specific end-to-end figures, from the untraced pass.
		"div_solves_per_s": "1/s", "pre_solves_per_s": "1/s", "jobs_per_s": "1/s",
		"plan_ms_p50": "ms", "plan_ms_p95": "ms",
		"submit_ms_p50": "ms", "submit_ms_p99": "ms", "read_ms_p50": "ms", "read_ms_p99": "ms",
		"max_weighted_flow": "s", "mean_flow_s": "s",
		// offline-solve
		"core.milestones": "count", "core.milestones_ms": "ms",
		"core.solve_ms_div": "ms", "core.solve_ms_pre": "ms", "core.lp_solves": "count",
		"schedule.validate_ms": "ms", "alloc_mb_per_solve": "MB",
		// offline-solve and online-backlog
		"lp.float_verified": "count", "lp.crossovers": "count", "lp.fallbacks": "count",
		"lp.warm_hits": "count", "lp.warm_hit_ratio": "ratio",
		// online-backlog
		"server.router.submit_ms_p50": "ms", "server.router.submit_ms_p95": "ms",
		"server.shard.admit_wait_ms_p50": "ms", "server.shard.admit_wait_ms_p95": "ms",
		"sim.events": "count", "sim.lp_solves": "count", "sim.plan_cache_hits": "count",
		"sim.cache_hit_ratio": "ratio", "core.solve_s_total": "s", "core.solve_ms_p99": "ms",
		"core.solve_share": "ratio", "server.backlog_max": "count", "sim.cost_exponent": "slope",
		"alloc_mb_per_job": "MB",
		// http-mixed
		"net.rtt_self_ms_p50": "ms", "shardlink.calls_per_submit": "count", "server.steals": "count",
		"server.shard.submit_admit_ms_p50": "ms", "server.shard.submit_admit_ms_p99": "ms",
		"core.admission_checks": "count", "core.admission_rejects": "count", "core.counter_offers": "count",
		"wal.appends_per_submit": "count", "wal.snapshots": "count",
		"obs.journal_events_per_submit": "count", "server.router.tenant_shed": "count",
		"server.deadlines_missed": "count", "gen.late_ms_p99": "ms",
		// every workload
		"trace_overhead_pct": "%",
	}
	for _, route := range apiRoutes {
		m["server.api.handler_ms_p50."+route] = "ms"
		m["server.api.handler_ms_p99."+route] = "ms"
	}
	for _, name := range cpuShareNames() {
		m[name] = "%"
	}
	return m
}

// complete holds a finished run's metrics against the table of its mode: a
// timed run must have measured every end-to-end metric, and a traced run
// reports every per-layer metric, 0 for those its workload has no part in.
// A metric outside the table is an error either way.
func (r *outcome) complete(trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer()
	}
	for name, m := range r.metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s in %s is not in the metric table", name, m.Unit)
		}
	}
	for name, unit := range want {
		if _, ok := r.metrics[name]; ok {
			continue
		}
		if !trace {
			return fmt.Errorf("end-to-end metric %s was not measured", name)
		}
		r.set(name, 0, unit)
	}
	return nil
}

// errNoWork reports a run too short to complete a single operation.
var errNoWork = errors.New("no operation completed; raise --seconds")
