package core

import (
	"fmt"
	"math/big"
	"sort"

	"divflow/internal/affine"
	"divflow/internal/intervals"
	"divflow/internal/model"
	"divflow/internal/schedule"
)

// BestDeadline computes the exact minimum deadline for job k that keeps the
// instance deadline-feasible, holding every other job's deadline fixed (the
// entry deadlines[k] is ignored). It is the counter-offer half of admission
// control: when DeadlineFeasible rejects a requested deadline, BestDeadline
// names the earliest completion time the residual workload can still
// guarantee for the new job without breaking any admitted deadline.
//
// The search mirrors the milestone machinery of Theorem 2: job k's deadline
// is the affine form d̄_k(F) = F, so the candidate deadline is the LP
// objective itself. The epochal order of d̄_k against the constant release
// dates and deadlines changes only where F crosses one of them; between two
// consecutive crossings the interval structure is fixed, feasibility is
// monotone in F (a later deadline only loosens System (2)), and a binary
// search over the crossing ranges — each range solving one feasibility LP,
// warm-started from the previous range's optimal basis — finds the leftmost
// feasible range, whose minimal F is the exact global optimum.
//
// It returns (nil, nil) when no deadline works: the other jobs' deadlines
// are themselves infeasible once job k's work is added.
func BestDeadline(inst *model.Instance, deadlines []*big.Rat, k int, mode schedule.Model) (*big.Rat, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if len(deadlines) != inst.N() {
		return nil, fmt.Errorf("core: %d deadlines for %d jobs", len(deadlines), inst.N())
	}
	if k < 0 || k >= inst.N() {
		return nil, fmt.Errorf("core: job index %d out of range", k)
	}
	// A fixed window that is trivially impossible dooms every candidate F.
	for j, d := range deadlines {
		if j != k && d != nil && d.Cmp(inst.Jobs[j].Release) <= 0 {
			return nil, nil
		}
	}

	// Epochal times: every release, every fixed deadline, and the same
	// horizon DeadlineFeasible uses so deadline-free jobs always fit after
	// the last release.
	fk := affine.New(new(big.Rat), big.NewRat(1, 1))
	times := epochalTimes(inst, deadlines, k)
	dls := make([]*affine.Form, inst.N())
	for j, d := range deadlines {
		if j == k {
			dls[j] = &fk
		} else if d != nil {
			f := affine.Const(d)
			dls[j] = &f
		}
	}

	// Milestones of this search: the values of F where d̄_k(F) = F crosses a
	// constant epochal time τ, i.e. F = τ. F must exceed job k's release (a
	// positive-cost job cannot finish at its release), so the candidate
	// ranges partition (r_k, +∞).
	rk := inst.Jobs[k].Release
	seen := make(map[string]bool)
	var cross []*big.Rat
	for _, f := range times {
		if at, ok := fk.Intersection(f); ok && at.Cmp(rk) > 0 {
			if key := at.RatString(); !seen[key] {
				seen[key] = true
				cross = append(cross, at)
			}
		}
	}
	sort.Slice(cross, func(a, b int) bool { return cross[a].Cmp(cross[b]) < 0 })
	ranges := make([]affine.Range, 0, len(cross)+1)
	lo := new(big.Rat).Set(rk)
	for _, m := range cross {
		ranges = append(ranges, affine.Range{Lo: lo, Hi: m})
		lo = m
	}
	ranges = append(ranges, affine.Range{Lo: lo})

	var warm *rangeSolution
	solveOne := func(idx int) (*rangeSolution, error) {
		rg := ranges[idx]
		ivs := intervals.Build(times, rg.Interior())
		rl := newRangeLP(inst, mode, ivs, dls, rg)
		var wb = warm
		var sol *rangeSolution
		var err error
		if wb != nil {
			sol, err = rl.solveWith(wb.basis, nil)
		} else {
			sol, err = rl.solve()
		}
		if err != nil {
			return nil, err
		}
		if sol != nil {
			warm = sol
		}
		return sol, nil
	}

	// Feasibility is monotone in the range index: a feasible F makes every
	// F' >= F feasible. Binary search the leftmost feasible range.
	loIdx, hiIdx := 0, len(ranges)-1
	_, err := solveOne(hiIdx)
	if err != nil {
		return nil, err
	}
	if warm == nil {
		// Even an unbounded deadline for job k cannot satisfy the fixed
		// deadlines: no counter-offer exists.
		return nil, nil
	}
	best := new(big.Rat).Set(warm.F)
	for loIdx < hiIdx {
		mid := loIdx + (hiIdx-loIdx)/2
		sol, err := solveOne(mid)
		if err != nil {
			return nil, err
		}
		if sol != nil {
			best.Set(sol.F)
			hiIdx = mid
		} else {
			loIdx = mid + 1
		}
	}
	// hiIdx only ever moves to a range just solved and found feasible, and
	// best is set from that solve, so best is already the winning range's
	// minimum.
	return best, nil
}
