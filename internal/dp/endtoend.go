package dp

import (
	"fmt"
	"math"

	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
)

// This file implements §4.2 of the paper: making the *count computation*
// step differentially private, not just the multinomial sampling. The
// generic recipe is (a) bound the sensitivity of the optimal counts by a
// constant d — by dropping user logs whose removal shifts any pair's optimal
// count by more than d — then (b) add Lap(d/ε′) noise to every optimal
// count. Because noise can push a plan outside the Theorem-1 polytope, we
// also provide the feasibility re-projection the paper alludes to when it
// notes the noisy plan only "likely" satisfies the constraints.

// SolveFunc computes the optimal plan for a log and reports it keyed by
// pair identity, so plans from different (neighboring) logs are comparable.
type SolveFunc func(l *searchlog.Log) (map[searchlog.PairKey]int, error)

// SensitivityDiff returns the largest per-pair absolute difference between
// two plans, treating missing pairs as zero.
func SensitivityDiff(a, b map[searchlog.PairKey]int) int {
	max := 0
	for key, va := range a {
		d := va - b[key]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	for key, vb := range b {
		if _, ok := a[key]; ok {
			continue
		}
		if vb < 0 {
			vb = -vb
		}
		if vb > max {
			max = vb
		}
	}
	return max
}

// BoundSensitivity applies the paper's preprocessing procedure: for every
// user log A_k it solves the chosen utility-maximizing problem on D and on
// D − A_k and flags the user for removal when any pair's optimal count
// differs by more than d. It returns the log with all flagged users removed
// and their external IDs. The procedure costs one solve per user plus one
// baseline solve — quadratic work overall — so it is intended for the small
// corpora of the end-to-end example, exactly like the paper treats it as an
// optional preprocessing pass.
func BoundSensitivity(l *searchlog.Log, d int, solve SolveFunc) (*searchlog.Log, []string, error) {
	if d < 0 {
		return nil, nil, fmt.Errorf("dp: sensitivity bound d must be non-negative, got %d", d)
	}
	base, err := solve(l)
	if err != nil {
		return nil, nil, fmt.Errorf("dp: baseline solve: %w", err)
	}
	var dropped []string
	keep := make(map[string]bool, l.NumUsers())
	for k := 0; k < l.NumUsers(); k++ {
		keep[l.User(k).ID] = true
	}
	for k := 0; k < l.NumUsers(); k++ {
		alt, err := solve(l.WithoutUser(k))
		if err != nil {
			return nil, nil, fmt.Errorf("dp: solve without user %d: %w", k, err)
		}
		if SensitivityDiff(base, alt) > d {
			id := l.User(k).ID
			keep[id] = false
			dropped = append(dropped, id)
		}
	}
	if len(dropped) == 0 {
		return l, nil, nil
	}
	b := searchlog.NewBuilder()
	for k := 0; k < l.NumUsers(); k++ {
		u := l.User(k)
		if !keep[u.ID] {
			continue
		}
		for _, up := range u.Pairs {
			p := l.Pair(up.Pair)
			b.Add(u.ID, p.Query, p.URL, up.Count)
		}
	}
	out, err := b.BuildLog()
	if err != nil {
		return nil, nil, err
	}
	return out, dropped, nil
}

// NoisyCounts adds Lap(d/ε′) noise to every planned count, rounding to the
// nearest integer and clamping at zero — the §4.2 Laplace mechanism over the
// optimal counts. d is the bounded sensitivity and epsPrime the privacy
// budget ε′ of the count-computation step.
func NoisyCounts(g *rng.RNG, counts []int, d int, epsPrime float64) ([]int, error) {
	if d < 0 {
		return nil, fmt.Errorf("dp: sensitivity d must be non-negative, got %d", d)
	}
	if !(epsPrime > 0) {
		return nil, fmt.Errorf("dp: ε′ must be positive, got %g", epsPrime)
	}
	scale := float64(d) / epsPrime
	out := make([]int, len(counts))
	for i, c := range counts {
		v := float64(c) + g.Laplace(scale)
		r := int(math.Round(v))
		if r < 0 {
			r = 0
		}
		out[i] = r
	}
	return out, nil
}

// ProjectFeasible returns a copy of a (possibly noise-perturbed) plan
// brought back into the Theorem-1 polytope by RepairPlan. This is the
// repository's concrete version of the paper's remark that the noisy
// optimum only "likely" satisfies the constraints: targeted decrements strip
// exactly the upward noise that breached a user's budget, leaving the rest
// of the plan's utility intact. A feasible input is returned unchanged.
func ProjectFeasible(c *Constraints, counts []int) []int {
	out := append([]int(nil), counts...)
	RepairPlan(c, out)
	return out
}

// RepairPlan enforces the DP rows exactly on an integral plan, in place:
// while any row exceeds the budget, decrement the count with the largest
// coefficient in the most violated row (the most privacy-sensitive unit of
// mass). Each decrement strictly reduces a positive left-hand side, so the
// loop terminates. Returns the number of decrements.
//
// Row activities are kept between decrements; a decrement recomputes (with
// LHS, so the values are exactly those of a full rescan) only the rows that
// hold the decremented pair.
func RepairPlan(c *Constraints, counts []int) int {
	lhs := make([]float64, len(c.Rows))
	for k := range lhs {
		lhs[k] = c.LHS(k, counts)
	}
	repairs := 0
	for iter := 0; iter < 1<<22; iter++ {
		worstRow, worstLHS := -1, c.Budget
		for k, v := range lhs {
			if v > worstLHS+FillTol {
				worstRow, worstLHS = k, v
			}
		}
		if worstRow < 0 {
			return repairs
		}
		bestPair, bestCoef := -1, 0.0
		for _, t := range c.Rows[worstRow].Terms {
			if counts[t.Pair] > 0 && t.Coef > bestCoef {
				bestPair, bestCoef = t.Pair, t.Coef
			}
		}
		if bestPair < 0 {
			return repairs // violated row with all-zero counts: impossible
		}
		counts[bestPair]--
		for _, e := range c.cols[bestPair] {
			lhs[e.row] = c.LHS(e.row, counts)
		}
		repairs++
	}
	return repairs
}
