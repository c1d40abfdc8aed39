package sim

import (
	"testing"

	"divflow/internal/schedule"
	"divflow/internal/workload"
)

// heuristicPolicies are the solver-free policies the fuzz harness drives:
// none of them divides a job across machines, so their traces must satisfy
// the stricter Preemptive validator (no cross-machine overlap per job) on
// top of the Divisible one.
var heuristicPolicies = map[string]func() Policy{
	"fcfs":         func() Policy { return NewFCFS() },
	"mct":          func() Policy { return NewMCT() },
	"srpt":         func() Policy { return NewSRPT() },
	"greedy-wflow": func() Policy { return NewGreedyWeightedFlow() },
}

// runAndValidate replays the policy on the instance through sim.Run (and so
// through sim.Engine) and validates the executed trace with the exact
// validators, catching queue-bookkeeping bugs (stale served prefixes,
// double assignments, ineligible placements) on whatever the generator
// produced.
func runAndValidate(t *testing.T, name string, mk func() Policy, cfg workload.Config) {
	t.Helper()
	inst, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("%s: generate(%+v): %v", name, cfg, err)
	}
	res, err := Run(inst, mk())
	if err != nil {
		t.Fatalf("%s on %+v: %v", name, cfg, err)
	}
	if err := res.Schedule.Validate(inst, schedule.Divisible, nil); err != nil {
		t.Fatalf("%s on %+v: divisible validation: %v", name, cfg, err)
	}
	if err := res.Schedule.Validate(inst, schedule.Preemptive, nil); err != nil {
		t.Fatalf("%s on %+v: preemptive validation: %v", name, cfg, err)
	}
	if res.MaxWeightedFlow.Sign() <= 0 || res.Makespan.Sign() <= 0 {
		t.Fatalf("%s on %+v: degenerate metrics: maxWF=%v makespan=%v",
			name, cfg, res.MaxWeightedFlow, res.Makespan)
	}
	// Every completion respects the release: flows are positive.
	flows, err := res.Schedule.Flows(inst)
	if err != nil {
		t.Fatalf("%s on %+v: %v", name, cfg, err)
	}
	for j, f := range flows {
		if f.Sign() <= 0 {
			t.Fatalf("%s on %+v: job %d has flow %v, want > 0", name, cfg, j, f.RatString())
		}
	}
}

// fuzzConfig derives a bounded workload shape from raw fuzz inputs.
func fuzzConfig(seed int64, jobs, machines, databanks, replication, interarrival uint8) workload.Config {
	cfg := workload.Default()
	cfg.Seed = seed
	cfg.Jobs = 1 + int(jobs%30)
	cfg.Machines = 1 + int(machines%6)
	cfg.Databanks = int(databanks % 5) // 0 = unconstrained jobs
	cfg.Replication = 1 + int(replication%3)
	cfg.MeanInterarrival = float64(interarrival % 8)
	return cfg
}

// FuzzPolicyEngine drives every heuristic policy through the engine on
// generator-shaped instances, plus the lazy OnlineMWF under the plan-cache
// oracle (capped at lazyOracleMaxJobs jobs). `go test` runs the seed
// corpus; `go test -fuzz FuzzPolicyEngine ./internal/sim` explores further
// shapes.
func FuzzPolicyEngine(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint8(3), uint8(2), uint8(4))
	f.Add(int64(7), uint8(29), uint8(5), uint8(4), uint8(1), uint8(0))
	f.Add(int64(42), uint8(12), uint8(1), uint8(0), uint8(2), uint8(7))
	f.Add(int64(-3), uint8(20), uint8(4), uint8(2), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, jobs, machines, databanks, replication, interarrival uint8) {
		cfg := fuzzConfig(seed, jobs, machines, databanks, replication, interarrival)
		for name, mk := range heuristicPolicies {
			runAndValidate(t, name, mk, cfg)
		}
		runLazyOracle(t, cfg)
	})
}

// TestPolicyEngineFuzzSweep is the deterministic arm of the fuzz harness: a
// seed sweep over varied shapes (many machines, scarce replication, bursts
// at time zero, long quiet gaps) so CI covers the diversity without -fuzz.
// Each shape also runs the lazy OnlineMWF under the plan-cache oracle.
func TestPolicyEngineFuzzSweep(t *testing.T) {
	shapes := []workload.Config{
		{Jobs: 25, Machines: 5, Databanks: 4, Replication: 1, MeanInterarrival: 2, MinSize: 1, MaxSize: 30, MinSpeed: 1, MaxSpeed: 5},
		{Jobs: 16, Machines: 4, Databanks: 0, Replication: 1, MeanInterarrival: 0, MinSize: 1, MaxSize: 10, MinSpeed: 1, MaxSpeed: 1},
		{Jobs: 10, Machines: 1, Databanks: 2, Replication: 1, MeanInterarrival: 6, MinSize: 5, MaxSize: 8, MinSpeed: 2, MaxSpeed: 3},
		{Jobs: 30, Machines: 6, Databanks: 5, Replication: 3, MeanInterarrival: 1, MinSize: 1, MaxSize: 20, MinSpeed: 1, MaxSpeed: 4},
	}
	for _, base := range shapes {
		for seed := int64(0); seed < 6; seed++ {
			cfg := base
			cfg.Seed = seed
			for name, mk := range heuristicPolicies {
				runAndValidate(t, name, mk, cfg)
			}
			runLazyOracle(t, cfg)
		}
	}
}
