package core

import (
	"math/big"
	"testing"

	"divflow/internal/schedule"
	"divflow/internal/workload"
)

// TestBestDeadlineOracle checks BestDeadline against the feasibility
// oracle it inverts, over a seeded corpus in both execution models: the
// counter-offer D for the last job k is accepted by DeadlineFeasible, no
// earlier release or fixed deadline τ > r_k is accepted as job k's deadline,
// and a nil answer means the other jobs' deadlines cannot be met even when
// job k has none. The search's intervals end only at those constant times
// (d̄_k(F) = F is not one of them), so D is the earliest of them that
// works, not necessarily the earliest feasible deadline.
func TestBestDeadlineOracle(t *testing.T) {
	slacks := []*big.Rat{r(1, 1), r(5, 4), r(2, 1), r(4, 1)}
	offers, refusals := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
			cfg := workload.Default()
			cfg.Seed = seed
			cfg.Jobs = 4
			cfg.Machines = 2 + int(seed%2)
			cfg.MeanInterarrival = 0.5
			cfg.Unrelated = mode == schedule.Preemptive
			inst := workload.MustGenerate(cfg)
			k := inst.N() - 1
			// The other jobs get a deadline of r_j + slack·min_i c_ij, every
			// third one none at all.
			deadlines := make([]*big.Rat, inst.N())
			for j := 0; j < k; j++ {
				if j%3 == 2 {
					continue
				}
				var fastest *big.Rat
				for _, i := range inst.EligibleMachines(j) {
					if c, _ := inst.Cost(i, j); fastest == nil || c.Cmp(fastest) < 0 {
						fastest = c
					}
				}
				d := new(big.Rat).Mul(fastest, slacks[(int(seed)+j)%len(slacks)])
				deadlines[j] = d.Add(d, inst.Jobs[j].Release)
			}
			feasible := func(dk *big.Rat) bool {
				t.Helper()
				ds := append([]*big.Rat(nil), deadlines...)
				ds[k] = dk
				ok, _, err := DeadlineFeasible(inst, ds, mode)
				if err != nil {
					t.Fatalf("seed %d %v: DeadlineFeasible: %v", seed, mode, err)
				}
				return ok
			}
			best, err := BestDeadline(inst, deadlines, k, mode)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			if best == nil {
				refusals++
				if feasible(nil) {
					t.Errorf("seed %d %v: no counter-offer, yet the instance is feasible without a deadline for job %d", seed, mode, k)
				}
				continue
			}
			offers++
			if !feasible(best) {
				t.Errorf("seed %d %v: counter-offer %v rejected by DeadlineFeasible", seed, mode, best.RatString())
			}
			earlier := append([]*big.Rat(nil), deadlines...)
			for j := range inst.Jobs {
				earlier = append(earlier, inst.Jobs[j].Release)
			}
			for _, tau := range earlier {
				if tau == nil || tau.Cmp(inst.Jobs[k].Release) <= 0 || tau.Cmp(best) >= 0 {
					continue
				}
				if feasible(tau) {
					t.Errorf("seed %d %v: counter-offer %v, yet the earlier epochal time %v is feasible", seed, mode, best.RatString(), tau.RatString())
				}
			}
		}
	}
	if offers == 0 || refusals == 0 {
		t.Errorf("corpus exercised %d counter-offers and %d refusals; want both", offers, refusals)
	}
}
