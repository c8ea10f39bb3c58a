package dp

import (
	"slices"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/rng"
)

// repairPlanRescan is RepairPlan with every row's left-hand side recomputed
// before each decrement: the reference its kept activities must reproduce.
func repairPlanRescan(c *Constraints, counts []int) int {
	repairs := 0
	for iter := 0; iter < 1<<22; iter++ {
		worstRow, worstLHS := -1, c.Budget
		for k := range c.Rows {
			if lhs := c.LHS(k, counts); lhs > worstLHS+FillTol {
				worstRow, worstLHS = k, lhs
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
			return repairs
		}
		counts[bestPair]--
		repairs++
	}
	return repairs
}

// TestRepairPlanMatchesRescan repairs Laplace-noised maximal plans, as an
// end-to-end UMP release does, and requires the decrements of a full rescan
// per step: the same repaired counts and the same repair count.
func TestRepairPlanMatchesRescan(t *testing.T) {
	repaired := 0
	for _, prof := range []gen.Profile{gen.Tiny(), gen.TinySharded()} {
		_, pre, _, err := gen.GeneratePreprocessed(prof, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, eExp := range []float64{1.5, 2, 4} {
			c, err := Build(pre, FromEExp(eExp, 0.25))
			if err != nil {
				t.Fatal(err)
			}
			plan := make([]int, c.NumPairs)
			w := c.NewWalk(nil, FillTol)
			for i := range plan {
				for plan[i] < pre.PairCount(i) && w.Add(i) {
					plan[i]++
				}
			}
			g := rng.New(uint64(eExp * 10))
			for trial := 0; trial < 4; trial++ {
				noisy, err := NoisyCounts(g, plan, 5, 1)
				if err != nil {
					t.Fatal(err)
				}
				got, want := slices.Clone(noisy), slices.Clone(noisy)
				n, wantN := RepairPlan(c, got), repairPlanRescan(c, want)
				if n != wantN || !slices.Equal(got, want) {
					t.Fatalf("%s e^ε=%g trial %d: %d repairs, rescan makes %d (counts equal: %v)",
						prof.Name, eExp, trial, n, wantN, slices.Equal(got, want))
				}
				repaired += n
			}
		}
	}
	if repaired == 0 {
		t.Fatal("no noisy plan needed a repair")
	}
}
