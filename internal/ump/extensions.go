package ump

// This file implements the three extensions the paper's §7 sketches as
// future work:
//
//   - Combined: a single joint objective trading output size against
//     frequent-pair fidelity ("combining different utility notions to
//     create a single joint objective... akin to a multi-objective
//     optimization");
//   - MinPrivacy: the dual "privacy breach-minimizing problem which asks
//     for minimal privacy loss while satisfying a certain utility";
//   - QueryDiversity: the query-level diversity variant §5.3 mentions
//     ("we can also model search query diversity maximizing problem in a
//     similar way").

import (
	"fmt"
	"math"
	"sort"

	"dpslog/internal/dp"
	"dpslog/internal/lp"
	"dpslog/internal/metrics"
	"dpslog/internal/searchlog"
)

// CombinedWeights balances the joint objective of Combined: maximize
// SizeWeight·(Σx / Σc) − DistanceWeight·(Σ frequent support distances).
// Both weights must be non-negative and not both zero.
type CombinedWeights struct {
	SizeWeight     float64
	DistanceWeight float64
}

// Validate checks the weight ranges.
func (w CombinedWeights) Validate() error {
	if w.SizeWeight < 0 || w.DistanceWeight < 0 {
		return fmt.Errorf("ump: combined weights must be non-negative, got %+v", w)
	}
	if w.SizeWeight == 0 && w.DistanceWeight == 0 {
		return fmt.Errorf("ump: at least one combined weight must be positive")
	}
	return nil
}

// Objective evaluates the joint objective on an integral plan over l:
// SizeWeight·|O|/|D| − DistanceWeight·(Equation-5 distance sum), with |O|
// the plan's total. An empty plan scores no size term.
func (w CombinedWeights) Objective(l *searchlog.Log, minSupport float64, counts []int) float64 {
	dist, _, _ := metrics.SupportDistances(l, counts, minSupport)
	size := 0.0
	if n := sum(counts); n > 0 {
		size = w.SizeWeight * float64(n) / float64(l.Size())
	}
	return size - float64(w.DistanceWeight*dist)
}

// solveCombined solves the joint LP over one component sub-log and returns
// the integral plan without a realized objective. inSize is |D| of the
// *parent* corpus (it fixes the frequent set, and the per-unit objective
// weight w_size/|D| makes component objectives sum to the whole-log one);
// invScale is 1/λ with the global anchor λ.
func solveCombined(l *searchlog.Log, params dp.Params, minSupport, inSize float64, w CombinedWeights, invScale float64, opts Options) (*Plan, error) {
	cons, err := dp.Build(l, params)
	if err != nil {
		return nil, err
	}
	frequent, supIn := frequentPairs(l, minSupport, inSize)
	prob := buildBase(l, cons, lp.Maximize, w.SizeWeight/inSize, opts.NoBoxConstraint)
	for f, i := range frequent {
		y := prob.AddVariable(-w.DistanceWeight, 0, math.Inf(1))
		r1 := prob.AddConstraint(lp.LE, supIn[f]) // x/λ − y ≤ c/|D|
		prob.SetCoef(r1, i, invScale)
		prob.SetCoef(r1, y, -1)
		r2 := prob.AddConstraint(lp.LE, -supIn[f]) // −x/λ − y ≤ −c/|D|
		prob.SetCoef(r2, i, -invScale)
		prob.SetCoef(r2, y, -1)
	}
	sol, err := opts.solveLP("cump", prob)
	if err != nil {
		return nil, fmt.Errorf("ump: combined solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, statusErr("C-UMP", sol)
	}
	opts.storeWarm("cump", prob, sol)
	counts := floorCounts(sol.X, l.NumPairs())
	dp.RepairPlan(cons, counts)
	frac := fracParts(sol.X, counts)
	for _, i := range frequent {
		frac[i] += 1
	}
	roundUp(cons, counts, frac, pairCaps(l, opts.NoBoxConstraint), 0, roundUpPasses)
	return &Plan{
		Kind:                KindCombined,
		Counts:              counts,
		OutputSize:          sum(counts),
		RelaxationObjective: sol.Objective,
		Iterations:          sol.Iterations,
		Components:          1,
		Stats:               lpStats(sol),
	}, nil
}

// MinPrivacyResult is the outcome of the breach-minimizing problem.
type MinPrivacyResult struct {
	// Plan achieves the requested utility at minimal exposure.
	Plan *Plan
	// Epsilon is the smallest per-user budget z* = max_k Σ x·ln t_ijk
	// supporting the target, i.e. the minimal ε for which the plan is
	// (ε, δ)-feasible with ln 1/(1−δ) ≥ ε.
	Epsilon float64
}

// MinPrivacy solves the paper's §7 dual problem: given a required output
// size, find the plan minimizing the privacy exposure — the largest
// per-user-log constraint activity:
//
//	min  z
//	s.t. Σ_{(i,j)∈A_k} x_ij·ln t_ijk ≤ z   for every user log
//	     Σ x_ij = target,  0 ≤ x_ij ≤ c_ij
//
// The optimal z* is the smallest ε (with δ satisfying ln 1/(1−δ) ≥ ε) under
// which the target utility is achievable. The log must be preprocessed.
func MinPrivacy(l *searchlog.Log, target int, opts Options) (*MinPrivacyResult, error) {
	if target <= 0 {
		return nil, fmt.Errorf("ump: target output size must be positive, got %d", target)
	}
	cons, err := dp.BuildRows(l)
	if err != nil {
		return nil, err
	}
	totalCap := 0
	for i := 0; i < l.NumPairs(); i++ {
		totalCap += l.PairCount(i)
	}
	if !opts.NoBoxConstraint && target > totalCap {
		return nil, fmt.Errorf("ump: target %d exceeds the total input mass %d", target, totalCap)
	}

	prob := lp.NewProblem(lp.Minimize)
	for i := 0; i < l.NumPairs(); i++ {
		up := float64(l.PairCount(i))
		if opts.NoBoxConstraint {
			up = math.Inf(1)
		}
		prob.AddVariable(0, 0, up)
	}
	z := prob.AddVariable(1, 0, math.Inf(1))
	for _, row := range cons.Rows {
		r := prob.AddConstraint(lp.LE, 0) // Σ x·lnt − z ≤ 0
		for _, t := range row.Terms {
			prob.SetCoef(r, t.Pair, t.Coef)
		}
		prob.SetCoef(r, z, -1)
	}
	eq := prob.AddConstraint(lp.EQ, float64(target))
	for i := 0; i < l.NumPairs(); i++ {
		prob.SetCoef(eq, i, 1)
	}
	sol, err := opts.solveLP("minpriv", prob)
	if err != nil {
		return nil, fmt.Errorf("ump: min-privacy solve: %w", err)
	}
	if sol.Status == lp.Infeasible {
		return nil, fmt.Errorf("ump: target output size %d is infeasible", target)
	}
	if sol.Status != lp.Optimal {
		return nil, statusErr("min-privacy", sol)
	}
	opts.storeWarm("minpriv", prob, sol)
	zLP := sol.Objective // fractional lower bound on the exposure

	// Integral completion. The fractional optimum spreads mass thinly, so
	// flooring it can lose everything; instead, binary-search the smallest
	// budget b ≥ z_LP at which a cheapest-first integral fill reaches the
	// target, then report that fill and its exact realized exposure. The
	// fill is roundUp from an empty plan, prioritizing pairs by ascending
	// worst-case coefficient and sweeping until no pair can take a unit.
	caps := pairCaps(l, opts.NoBoxConstraint)
	cheapest := maxCoefFromLog(l)
	for i := range cheapest {
		cheapest[i] = -cheapest[i]
	}
	fill := func(budget float64) []int {
		counts := make([]int, l.NumPairs())
		roundUp(cons.WithBudget(budget), counts, cheapest, caps, target, 0)
		return counts
	}
	lo := math.Max(zLP, 1e-9)
	hi := lo
	var counts []int
	for iter := 0; iter < 80; iter++ {
		counts = fill(hi)
		if sum(counts) >= target {
			break
		}
		hi *= 2
	}
	if sum(counts) < target {
		return nil, fmt.Errorf("ump: integral fill cannot reach target %d (max %d)", target, sum(counts))
	}
	for iter := 0; iter < 50 && hi-lo > 1e-9*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if c := fill(mid); sum(c) >= target {
			hi, counts = mid, c
		} else {
			lo = mid
		}
	}

	// Exact exposure of the final integral plan.
	realized := 0.0
	for k := range cons.Rows {
		if lhs := cons.LHS(k, counts); lhs > realized {
			realized = lhs
		}
	}
	// MinPrivacy is not component-decomposed: the shared exposure variable z
	// (a minimax objective) and the Σx = target row both couple every
	// component, so no per-component split is exact.
	plan := &Plan{
		Kind:                KindMinPrivacy,
		Counts:              counts,
		OutputSize:          sum(counts),
		Objective:           realized,
		RelaxationObjective: zLP,
		Iterations:          sol.Iterations,
		Components:          1,
		Stats:               lpStats(sol),
	}
	return &MinPrivacyResult{Plan: plan, Epsilon: realized}, nil
}

// queryCand is one query's candidate pair for Q-UMP: the query's cheapest
// pair by worst-case coefficient.
type queryCand struct {
	pair    int
	maxCoef float64
}

// maxCoefFromLog returns each pair's largest constraint coefficient — the
// pair's worst-case per-unit privacy cost across user logs — straight from
// the histogram (max entry per pair), without materializing a constraint
// system. The log must be preprocessed, or the coefficient is +Inf.
func maxCoefFromLog(l *searchlog.Log) []float64 {
	maxCoef := make([]float64, l.NumPairs())
	for i := 0; i < l.NumPairs(); i++ {
		p := l.Pair(i)
		_, top := p.MaxEntry()
		maxCoef[i] = dp.Coef(p.Total, top)
	}
	return maxCoef
}

// queryCandidates picks one candidate pair per distinct query — the pair
// whose largest coefficient is smallest (ties to the lower pair index, via
// the ascending scan) — sorted by ascending sensitivity with a
// deterministic pair-index tie-break. The sort order is preserved under
// restriction to a component, which is what makes the per-component greedy
// reproduce one whole-log greedy exactly.
func queryCandidates(l *searchlog.Log, maxCoef []float64) []queryCand {
	best := map[string]queryCand{}
	for i := 0; i < l.NumPairs(); i++ {
		q := l.Pair(i).Query
		if c, ok := best[q]; !ok || maxCoef[i] < c.maxCoef {
			best[q] = queryCand{pair: i, maxCoef: maxCoef[i]}
		}
	}
	cands := make([]queryCand, 0, len(best))
	for _, c := range best {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].maxCoef != cands[b].maxCoef {
			return cands[a].maxCoef < cands[b].maxCoef
		}
		return cands[a].pair < cands[b].pair
	})
	return cands
}

// greedyInsertCands walks the candidates in order, setting each candidate
// pair's count to one whenever every touched user budget still holds, and
// returns the number retained.
func greedyInsertCands(cons *dp.Constraints, cands []queryCand, counts []int) int {
	walk := cons.NewWalk(counts, dp.FillTol)
	retained := 0
	for _, c := range cands {
		if walk.Add(c.pair) {
			counts[c.pair] = 1
			retained++
		}
	}
	return retained
}
