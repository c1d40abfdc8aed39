package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"path/filepath"
	"time"

	"divflow/internal/core"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/workload"
)

// The offline-solve workload loops over seeded workload.Generate instances
// with no server in the way, alternating the two exact max-weighted-flow
// solvers of the paper:
//
//   - "div": core.MinMaxWeightedFlow (Theorem 2) on uniform divisible
//     instances of 32 jobs on 4 machines with 2 databanks and overloaded
//     arrivals;
//   - "pre": core.MinMaxWeightedFlowPreemptive (Section 4.4, System (5)) on
//     unrelated-cost instances of 16 jobs.
//
// The instances come from a fixed pool whose optimal objectives are recorded
// in expected.json (regenerate with --record); the seed picks the order in
// which a run walks the pool. Every schedule goes through the exact validator
// of its execution model and every objective must equal the recorded one.

// poolSize is the number of recorded instances of each kind. A run of the
// default length solves most of the pool, so the instance mix — and with it
// the solve rate — differs little from seed to seed.
const poolSize = 48

// traceSolves is how many instances of each kind a traced pass solves: a
// fixed list, so the traced counts are exact and repeat for a seed.
const traceSolves = 12

// solveKind is one half of the workload.
type solveKind struct {
	name  string // "div" or "pre"
	mode  schedule.Model
	solve func(*model.Instance) (*core.Result, error)
	span  string // the traced span around the solver call
	cfg   func(k int) workload.Config
}

var solveKinds = [2]solveKind{
	{
		name: "div", mode: schedule.Divisible, solve: core.MinMaxWeightedFlow,
		span: "core.MinMaxWeightedFlow",
		cfg: func(k int) workload.Config {
			return workload.Config{Jobs: 32, Machines: 4, Databanks: 2, Replication: 2,
				MeanInterarrival: 0.25, MinSize: 1, MaxSize: 20, MinSpeed: 1, MaxSpeed: 4,
				Seed: int64(1000 + k)}
		},
	},
	{
		name: "pre", mode: schedule.Preemptive, solve: core.MinMaxWeightedFlowPreemptive,
		span: "core.MinMaxWeightedFlowPreemptive",
		cfg: func(k int) workload.Config {
			return workload.Config{Jobs: 16, Machines: 4, Databanks: 2, Replication: 2,
				MeanInterarrival: 0.25, MinSize: 1, MaxSize: 20, MinSpeed: 1, MaxSpeed: 4,
				Unrelated: true, Seed: int64(2000 + k)}
		},
	},
}

// solveTask is one generated input: an instance and where it came from.
type solveTask struct {
	Kind int             `json:"kind"` // index into solveKinds
	Pool int             `json:"pool"` // pool index, the key of its recorded objective
	Inst *model.Instance `json:"instance"`
}

func (t solveTask) key() string { return fmt.Sprintf("%s/%d", solveKinds[t.Kind].name, t.Pool) }

// offlineInputs generates a run's task sequence: div and pre alternate, each
// kind walking seeded permutations of its pool, one permutation after the
// other, for n tasks.
func offlineInputs(seed int64, n int) ([]solveTask, error) {
	rng := rand.New(rand.NewSource(seed))
	var orders [2][]int
	var insts [2]map[int]*model.Instance
	out := make([]solveTask, 0, n)
	for i := 0; i < n; i++ {
		k := i % 2
		if len(orders[k]) == 0 {
			orders[k] = rng.Perm(poolSize)
		}
		p := orders[k][0]
		orders[k] = orders[k][1:]
		if insts[k] == nil {
			insts[k] = map[int]*model.Instance{}
		}
		inst := insts[k][p]
		if inst == nil {
			var err error
			if inst, err = workload.Generate(solveKinds[k].cfg(p)); err != nil {
				return nil, err
			}
			insts[k][p] = inst
		}
		out = append(out, solveTask{Kind: k, Pool: p, Inst: inst})
	}
	return out, nil
}

// maxOfflineTasks bounds a timed run's task list; at the measured 0.2–0.45 s
// per solve no run of a permitted length gets near it.
const maxOfflineTasks = 4 * poolSize

// solveStats accumulates one kind's solves.
type solveStats struct {
	n                                int
	solveTime                        time.Duration
	solveMS                          []float64 // each solve's wall time
	milestones, lpSolves             int
	floatVerified, crossovers, falls int
	warmHits, warmMisses             int
}

// solveOne runs one task: the solver call (timed into st), then the
// exact validator and the recorded-objective check. Checks that fail are
// recorded on res. Spans go to tr (nil in a timed pass) under a root span
// for the task.
func solveOne(o *options, res *outcome, tr *tracer, req int64, t solveTask, st *solveStats) {
	kind := solveKinds[t.Kind]
	root := tr.begin("offline.solve."+kind.name, -1, req)
	defer tr.end(root)
	if tr != nil {
		// The milestone enumeration runs inside the solve too; calling it on
		// its own in the traced pass times the layer without opening the
		// solver.
		sp := tr.begin("core.Milestones", root, req)
		core.Milestones(t.Inst)
		tr.end(sp)
	}
	res.attempted++
	sp := tr.begin(kind.span, root, req)
	start := time.Now()
	r, err := kind.solve(t.Inst)
	d := time.Since(start)
	tr.end(sp)
	if err != nil {
		res.failed++
		res.fail("%s: solver: %v", t.key(), err)
		return
	}
	st.n++
	st.solveTime += d
	st.solveMS = append(st.solveMS, ms(d))
	st.milestones += r.NumMilestones
	st.lpSolves += r.LPSolves
	st.floatVerified += r.Solver.FloatVerified
	st.crossovers += r.Solver.Crossovers
	st.falls += r.Solver.Fallbacks
	st.warmHits += r.Solver.WarmHits
	st.warmMisses += r.Solver.WarmMisses

	sp = tr.begin("schedule.Validate", root, req)
	err = r.Schedule.Validate(t.Inst, kind.mode, nil)
	tr.end(sp)
	if err != nil {
		res.fail("%s: schedule invalid: %v", t.key(), err)
	}
	want, ok := new(big.Rat).SetString(o.expected[t.key()])
	switch {
	case !ok:
		res.fail("%s: no recorded objective", t.key())
	case r.Objective.Cmp(want) != 0:
		res.fail("%s: objective %s, recorded %s", t.key(), r.Objective.RatString(), want.RatString())
	}
}

func runOffline(o *options) (*outcome, error) {
	n := maxOfflineTasks
	if o.trace {
		n = 2 * traceSolves
	}
	tasks, setupS, err := medianSetup(func() ([]solveTask, error) {
		return offlineInputs(o.seed, n)
	}, func([]solveTask) {})
	if err != nil {
		return nil, err
	}
	res := newOutcome()
	if o.trace {
		return res, traceOffline(o, res, tasks)
	}

	var per [2]solveStats
	start := time.Now()
	for i, t := range tasks {
		// The first two tasks, one of each kind, always run.
		if i >= 2 && time.Since(start).Seconds() >= o.seconds {
			break
		}
		solveOne(o, res, nil, int64(i), t, &per[t.Kind])
	}
	if per[0].n == 0 || per[1].n == 0 {
		return nil, errNoWork
	}
	fmt.Fprintf(o.log, "offline-solve: %d div and %d pre solves in %.1fs\n", per[0].n, per[1].n, time.Since(start).Seconds())
	res.set("setup_s", setupS, "s")
	res.set("ops_per_s", float64(per[0].n+per[1].n)/(per[0].solveTime+per[1].solveTime).Seconds(), "1/s")
	res.set("op_ms_p50", pct(append(per[0].solveMS, per[1].solveMS...), 50), "ms")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

// traceOffline solves the fixed task list twice, untraced and then traced,
// and reports the per-layer metrics of the traced pass. The tracing overhead
// compares the wall time of the two whole passes, spans and profiler
// included.
func traceOffline(o *options, res *outcome, tasks []solveTask) error {
	var plain [2]solveStats
	start := time.Now()
	for i, t := range tasks {
		solveOne(o, res, nil, int64(i), t, &plain[t.Kind])
	}
	plainTime := time.Since(start)

	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	var per [2]solveStats
	alloc0 := allocMB()
	start = time.Now()
	for i, t := range tasks {
		solveOne(o, res, tr, int64(i), t, &per[t.Kind])
	}
	tracedTime := time.Since(start)
	allocated := allocMB() - alloc0
	shares, err := writeTrace(filepath.Join(o.out, fmt.Sprintf("offline-solve-seed%d", o.seed)), tr, prof.stop())
	if err != nil {
		return err
	}

	rate := func(s solveStats) float64 { return float64(s.n) / s.solveTime.Seconds() }
	res.set("div_solves_per_s", rate(plain[0]), "1/s") // from the untraced pass
	res.set("pre_solves_per_s", rate(plain[1]), "1/s")
	sum := func(f func(*solveStats) int) float64 { return float64(f(&per[0]) + f(&per[1])) }
	solves := sum(func(s *solveStats) int { return s.n })
	res.set("core.milestones", sum(func(s *solveStats) int { return s.milestones }), "count")
	res.set("core.milestones_ms", pct(tr.durations("core.Milestones"), 50), "ms")
	res.set("core.solve_ms_div", pct(tr.durations(solveKinds[0].span), 50), "ms")
	res.set("core.solve_ms_pre", pct(tr.durations(solveKinds[1].span), 50), "ms")
	res.set("core.lp_solves", sum(func(s *solveStats) int { return s.lpSolves }), "count")
	res.set("lp.float_verified", sum(func(s *solveStats) int { return s.floatVerified }), "count")
	res.set("lp.crossovers", sum(func(s *solveStats) int { return s.crossovers }), "count")
	res.set("lp.fallbacks", sum(func(s *solveStats) int { return s.falls }), "count")
	warm := sum(func(s *solveStats) int { return s.warmHits })
	res.set("lp.warm_hits", warm, "count")
	res.set("lp.warm_hit_ratio", ratio(warm, warm+sum(func(s *solveStats) int { return s.warmMisses })), "ratio")
	res.set("schedule.validate_ms", pct(tr.durations("schedule.Validate"), 50), "ms")
	res.set("alloc_mb_per_solve", ratio(allocated, solves), "MB")
	setShares(res, shares)
	res.set("trace_overhead_pct", 100*(tracedTime.Seconds()/plainTime.Seconds()-1), "%")
	return nil
}

// recordExpected solves the whole pool of both kinds and writes the optimal
// objectives in expected.json's format.
func recordExpected(w io.Writer) error {
	rec := map[string]string{}
	for k, kind := range solveKinds {
		for p := 0; p < poolSize; p++ {
			inst, err := workload.Generate(kind.cfg(p))
			if err != nil {
				return err
			}
			r, err := kind.solve(inst)
			if err != nil {
				return fmt.Errorf("%s/%d: %w", kind.name, p, err)
			}
			if err := r.Schedule.Validate(inst, kind.mode, nil); err != nil {
				return fmt.Errorf("%s/%d: %w", kind.name, p, err)
			}
			rec[solveTask{Kind: k, Pool: p}.key()] = r.Objective.RatString()
		}
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
