package sim

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"testing"

	"divflow/internal/workload"
)

// planOracle drives the lazy OnlineMWF and checks every decision its plan
// cache serves against the residual fingerprint the cache was once guarded
// by: the remaining fraction of every live job at the last solve, evolved
// along the cached plan to the current time. The engine alone now decides
// when the plan is stale (arrivals and removals invalidate it); the oracle
// proves that whenever the engine leaves a plan in place, the live workload
// is exactly what that plan predicted.
type planOracle struct {
	*OnlineMWF
	t testing.TB
	// at and rem fingerprint the last solve: its time and every live job's
	// remaining fraction then.
	at  *big.Rat
	rem map[int]*big.Rat
	// checked counts the cache hits the oracle verified.
	checked int
}

func newPlanOracle(t testing.TB) *planOracle {
	return &planOracle{OnlineMWF: NewOnlineMWFLazy(), t: t}
}

// Reset implements Policy.
func (o *planOracle) Reset() {
	o.OnlineMWF.Reset()
	o.at, o.rem, o.checked = nil, nil, 0
}

// Assign implements Policy: it delegates to the lazy policy, then either
// records the fingerprint of a fresh solve or verifies a cache hit.
func (o *planOracle) Assign(s *Snapshot) Allocation {
	solves, hits := o.Solves(), o.CacheHits()
	alloc := o.OnlineMWF.Assign(s)
	switch {
	case o.CacheHits() > hits:
		if err := o.predicts(s); err != nil {
			o.t.Fatalf("plan cache hit at t=%v on a residual workload the plan did not predict: %v", s.Now.RatString(), err)
		}
		o.checked++
	case o.Solves() > solves:
		o.at = new(big.Rat).Set(s.Now)
		o.rem = make(map[int]*big.Rat, len(s.Jobs))
		for k := range s.Jobs {
			o.rem[s.Jobs[k].ID] = new(big.Rat).Set(s.Jobs[k].Remaining)
		}
	}
	return alloc
}

// predicts reports why the residual workload at s.Now differs from what the
// cached plan predicted, or nil when it matches: no job unknown to the last
// solve is live, every live job's remaining fraction equals the
// fingerprint evolved along the plan, and every job the plan still expected
// to be running is live.
func (o *planOracle) predicts(s *Snapshot) error {
	if o.rem == nil {
		return fmt.Errorf("no solve recorded before the hit")
	}
	pred := make(map[int]*big.Rat, len(o.rem))
	for id, rem := range o.rem {
		pred[id] = new(big.Rat).Set(rem)
	}
	// Each plan piece overlapping [at, now) consumes duration/c_{i,j} of
	// its job.
	for i := range o.plan {
		piece := &o.plan[i]
		start, end := piece.start, piece.end
		if start.Cmp(o.at) < 0 {
			start = o.at
		}
		if end.Cmp(s.Now) > 0 {
			end = s.Now
		}
		if start.Cmp(end) >= 0 {
			continue
		}
		c, ok := s.Cost(piece.machine, piece.jobID)
		if !ok || pred[piece.jobID] == nil {
			return fmt.Errorf("plan piece for job %d on machine %d outside the solved workload", piece.jobID, piece.machine)
		}
		d := new(big.Rat).Sub(end, start)
		pred[piece.jobID].Sub(pred[piece.jobID], d.Quo(d, c))
	}
	live := make(map[int]bool, len(s.Jobs))
	for k := range s.Jobs {
		jv := &s.Jobs[k]
		live[jv.ID] = true
		want := pred[jv.ID]
		if want == nil {
			return fmt.Errorf("job %d arrived after the last solve", jv.ID)
		}
		if want.Cmp(jv.Remaining) != 0 {
			return fmt.Errorf("job %d has %v left, the plan predicted %v", jv.ID, jv.Remaining.RatString(), want.RatString())
		}
	}
	for id, rem := range pred {
		if !live[id] && rem.Sign() > 0 {
			return fmt.Errorf("job %d left the engine with %v still planned", id, rem.RatString())
		}
	}
	return nil
}

// lazyOracleMaxJobs caps the instances the oracle runs on: every arrival
// costs an exact LP solve, so uncapped fuzz shapes would dominate the run.
const lazyOracleMaxJobs = 12

// runLazyOracle replays the lazy policy under the oracle on the instance
// cfg generates (capped at lazyOracleMaxJobs jobs); Run validates the
// executed trace.
func runLazyOracle(t *testing.T, cfg workload.Config) {
	t.Helper()
	if cfg.Jobs > lazyOracleMaxJobs {
		cfg.Jobs = lazyOracleMaxJobs
	}
	inst, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate(%+v): %v", cfg, err)
	}
	o := newPlanOracle(t)
	if _, err := Run(inst, o); err != nil {
		t.Fatalf("online-mwf-lazy on %+v: %v (inner: %v)", cfg, err, o.Err())
	}
	if o.checked != o.CacheHits() {
		t.Fatalf("online-mwf-lazy on %+v: oracle verified %d of %d cache hits", cfg, o.checked, o.CacheHits())
	}
}

// TestLazyPlanCacheSweepPinned pins the lazy plan cache's behavior on a
// seeded sweep — 25 seeds per mean interarrival, 14 jobs, 1–5 machines —
// under the oracle: the solve and cache-hit totals and a digest of every
// run's counters and executed trace. The pinned values were recorded with
// the residual-fingerprint cache check the engine's invalidation replaced,
// so any divergence in when the cache is trusted shows up here.
func TestLazyPlanCacheSweepPinned(t *testing.T) {
	pins := []struct {
		interarrival float64
		solves, hits int
		digest       string
	}{
		{0, 25, 313, "ac4e335d48fd88f046806fdc073b0a14e6cac4e00a7ca1dfbc566b89a8a0bee2"},
		{0.25, 350, 592, "1dd76031003304b9ba986b13e85142303025d5e418f6278ec1767400a699ccba"},
		{1, 350, 516, "14899a9cd60a77db5311c6f5e0170c8c3514e9de4d90b8eda3207be455503e9c"},
		{3, 350, 322, "6799ec6e48df817655ee50d1001637789e21371b6c0b851e96e04671b5a88a9d"},
	}
	for _, pin := range pins {
		h := sha256.New()
		solves, hits := 0, 0
		for seed := int64(0); seed < 25; seed++ {
			cfg := workload.Default()
			cfg.Seed = seed
			cfg.Jobs = 14
			cfg.Machines = 1 + int(seed%5)
			cfg.MeanInterarrival = pin.interarrival
			inst, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := newPlanOracle(t)
			res, err := Run(inst, o)
			if err != nil {
				t.Fatalf("%+v: %v (inner: %v)", cfg, err, o.Err())
			}
			solves += o.Solves()
			hits += o.CacheHits()
			fmt.Fprintf(h, "seed %d solves %d hits %d\n", seed, o.Solves(), o.CacheHits())
			for _, pc := range res.Schedule.Pieces {
				fmt.Fprintf(h, "%d %d %s %s %s\n", pc.Machine, pc.Job, pc.Start.RatString(), pc.End.RatString(), pc.Fraction.RatString())
			}
		}
		if solves != pin.solves || hits != pin.hits {
			t.Errorf("interarrival %v: solves=%d hits=%d, want %d/%d", pin.interarrival, solves, hits, pin.solves, pin.hits)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != pin.digest {
			t.Errorf("interarrival %v: trace digest %s, want %s", pin.interarrival, got, pin.digest)
		}
	}
}
