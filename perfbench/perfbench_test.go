package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/big"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInputsRepeatForASeed pins the generators: one seed always yields
// byte-identical inputs, and another seed changes them.
func TestInputsRepeatForASeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"offline-solve": func(seed int64) any {
			tasks, err := offlineInputs(seed, 8)
			if err != nil {
				t.Fatal(err)
			}
			return tasks
		},
		"online-backlog": func(seed int64) any { return onlineInputs(seed, 30) },
		"http-mixed":     func(seed int64) any { return httpInputs(seed, 30) },
	}
	for name, gen := range gens {
		a, b, other := encode(t, gen(7)), encode(t, gen(7)), encode(t, gen(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

// TestOnlineBacklogRepeats drives one seed's online-backlog stream twice and
// requires the quality metrics and the solver counts to repeat exactly, so
// count-based comparisons between versions are valid.
func TestOnlineBacklogRepeats(t *testing.T) {
	jobs := onlineInputs(3, 1)
	type summary struct {
		mwf, mean                float64
		solves, hits, events, lp int
	}
	var runs []summary
	for i := 0; i < 2; i++ {
		s, err := newOnlineServer()
		if err != nil {
			t.Fatal(err)
		}
		res := newOutcome()
		p := onlineRun(res, s, jobs, nil)
		if p == nil || len(res.problems) > 0 {
			t.Fatalf("run %d failed its checks: %v", i, res.problems)
		}
		mwf, mean := p.objective()
		runs = append(runs, summary{mwf, mean, p.final.LPSolves, p.final.PlanCacheHits, p.final.Events, p.final.Solver.Total()})
	}
	if runs[0] != runs[1] {
		t.Fatalf("one seed, two runs: %+v vs %+v", runs[0], runs[1])
	}
	if runs[0].solves != len(jobs) {
		t.Errorf("%d LP solves for %d one-at-a-time arrivals", runs[0].solves, len(jobs))
	}
}

// TestOnlineFailureIsCounted drives a server that is already closed: the
// refused submission counts as a failed operation and a failed check, so
// the run still reports its result, with "correct": false.
func TestOnlineFailureIsCounted(t *testing.T) {
	s, err := newOnlineServer()
	if err != nil {
		t.Fatal(err)
	}
	s.srv.Close()
	res := newOutcome()
	if p := onlineRun(res, s, onlineInputs(3, 1), nil); p != nil {
		t.Fatal("drive of a closed server returned a pass")
	}
	if line := res.line(); line.Correct || line.Failed != 1 || line.Attempted == 0 {
		t.Fatalf("closed server reported %+v, problems %v", line, res.problems)
	}
}

// TestWrongExpectedFailsTheRun checks that a recorded objective the solver
// does not reproduce makes the command exit non-zero, while the committed
// records pass.
func TestWrongExpectedFailsTheRun(t *testing.T) {
	args := []string{"--workload", "offline-solve", "--seed", "5", "--seconds", "0.5", "--trace", "0"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("committed records: exit %d\n%s", code, errb.String())
	}

	var rec map[string]string
	if err := json.Unmarshal(expectedJSON, &rec); err != nil {
		t.Fatal(err)
	}
	for k, v := range rec {
		r, _ := new(big.Rat).SetString(v)
		rec[k] = r.Add(r, big.NewRat(1, 1)).RatString()
	}
	committed := expectedJSON
	t.Cleanup(func() { expectedJSON = committed })
	expectedJSON = encode(t, rec)
	out.Reset()
	errb.Reset()
	if code := run(args, &out, &errb); code == 0 {
		t.Fatalf("wrong records: exit 0\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "recorded") || !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("wrong records not reported:\nstdout %s\nstderr %s", out.String(), errb.String())
	}
}

// TestManifestMatchesMetricTables holds BENCHMARK.json at the repository
// root against the metric tables the runs report from: the same names, in
// the same units, for the end-to-end and the per-layer metrics.
func TestManifestMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var manifest struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key     string
		entries []entry
		table   map[string]string
	}{{"end_to_end", manifest.EndToEnd, endToEnd}, {"per_layer", manifest.PerLayer, perLayer()}} {
		listed := map[string]string{}
		for _, e := range c.entries {
			listed[e.Name] = e.Unit
		}
		if len(listed) != len(c.entries) {
			t.Errorf("%s lists a metric twice", c.key)
		}
		for name, unit := range c.table {
			if listed[name] != unit {
				t.Errorf("%s: %s in %s is reported, BENCHMARK.json has %q", c.key, name, unit, listed[name])
			}
		}
		for name := range listed {
			if _, ok := c.table[name]; !ok {
				t.Errorf("%s: BENCHMARK.json lists %s, which no run reports", c.key, name)
			}
		}
	}
}

// TestTimedRunsReportEveryEndToEndMetric runs each workload briefly and
// requires its result line to carry exactly the end-to-end metrics.
func TestTimedRunsReportEveryEndToEndMetric(t *testing.T) {
	for _, name := range workloadNames() {
		var out, errb bytes.Buffer
		args := []string{"--workload", name, "--seed", "4", "--seconds", "0.5", "--trace", "0"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, errb.String())
		}
		var line resultLine
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatalf("%s: result line: %v", name, err)
		}
		if len(line.Metrics) != len(endToEnd) || !line.Correct || line.Attempted == 0 {
			t.Errorf("%s: result line %+v", name, line)
		}
		for m, unit := range endToEnd {
			if got, ok := line.Metrics[m]; !ok || got.Unit != unit || got.Value <= 0 {
				t.Errorf("%s: %s reads %+v, want a positive value in %s", name, m, got, unit)
			}
		}
	}
}

// TestFoldShares checks the flat fold on hand-made samples: the innermost
// frame's import path picks the layer, any GC or allocator frame wins, and
// the shares add up to 100%.
func TestFoldShares(t *testing.T) {
	shares, err := foldShares([]profSample{
		{value: 30, frames: []string{"math/big.nat.mul", "divflow/internal/lp.(*tableau).pivot"}},
		{value: 20, frames: []string{"divflow/internal/lp.(*tableau).pivot"}},
		{value: 25, frames: []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "math/big.nat.make"}},
		{value: 25, frames: []string{"encoding/json.(*decodeState).object"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu.math_big": 30, "cpu.lp": 20, "cpu.runtime_gc": 25, "cpu.encoding_json": 25}
	for name, v := range shares {
		if v != want[name] {
			t.Errorf("%s = %.1f%%, want %.1f%%", name, v, want[name])
		}
	}
}

// TestParseTraces reads a hand-made go tool pprof -traces listing: a
// header, label lines, inlined frames and sample times in nanoseconds.
func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 30000000ns ( 3.00%)
-----------+-------------------------------------------------------
10000000ns   math/big.nat.norm (inline)
             math/big.nat.divW
             main.main
-----------+-------------------------------------------------------
 other:  label
20000000ns   time.Now
             main.main
-----------+-------------------------------------------------------
`
	got := parseTraces([]byte(out))
	want := []profSample{
		{value: 10e6, frames: []string{"math/big.nat.norm", "math/big.nat.divW", "main.main"}},
		{value: 20e6, frames: []string{"time.Now", "main.main"}},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].value != want[i].value || strings.Join(got[i].frames, " ") != strings.Join(want[i].frames, " ") {
			t.Errorf("sample %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCPUShares folds a real CPU profile through writeTrace: a math/big loop
// and a longer spin under the load generator's profiler label, which must
// be left out of the shares.
func TestCPUShares(t *testing.T) {
	prof, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	x, z := big.NewInt(3), new(big.Int)
	e, m := big.NewInt(65537), big.NewInt(1_000_000_007)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		z.Exp(x, e, m)
	}
	pprof.Do(context.Background(), pprof.Labels(profileRole, roleDispatcher), func(context.Context) {
		for end := time.Now().Add(600 * time.Millisecond); time.Now().Before(end); {
		}
	})
	dir := t.TempDir()
	shares, err := writeTrace(dir, newTracer(), prof.stop())
	if err != nil {
		t.Fatal(err)
	}
	// Counted, the spin would be two thirds of the profile, in cpu.other.
	if got := shares["cpu.math_big"] + shares["cpu.runtime_gc"]; got < 60 {
		t.Errorf("math/big loop is %.0f%% of the shares, want most: %v", got, shares)
	}
	for _, name := range []string{"spans.json", "layers.json", "cpu.pprof", "cpu_shares.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
}

// TestPromQuantile checks the /metrics reader against a hand-made
// histogram: 10 samples in (0, 0.1] and 10 in (0.1, 0.2].
func TestPromQuantile(t *testing.T) {
	text := `# TYPE h histogram
h_bucket{shard="0",le="0.1"} 10
h_bucket{shard="0",le="0.2"} 10
h_bucket{shard="0",le="+Inf"} 10
h_bucket{shard="1",le="0.1"} 0
h_bucket{shard="1",le="0.2"} 10
h_bucket{shard="1",le="+Inf"} 10
h_sum{shard="0"} 0.5
h_sum{shard="1"} 1.5
`
	samples, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := promSum(samples, "h_sum"); got != 2 {
		t.Errorf("sum = %v, want 2", got)
	}
	if got := promQuantile(samples, "h", 50); got != 0.1 {
		t.Errorf("p50 = %v, want 0.1", got)
	}
	if got := promQuantile(samples, "h", 75); got < 0.149 || got > 0.151 {
		t.Errorf("p75 = %v, want 0.15", got)
	}
}
