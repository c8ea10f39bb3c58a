package ump

// This file is the front door of the package: every public solve lists the
// log's components, solves each one, and stitches the plans. Theorem 1's
// constraints couple pairs only through shared users — each row is one user
// log, and a user's pairs all lie in the user's connected component of the
// user–pair incidence graph — so every utility-maximizing problem whose
// objective is separable across pairs splits into independent per-component
// solves whose plans stitch back together losslessly (DESIGN.md §6). A
// connected log, an empty log and Options.NoDecompose are the one-component
// case: the whole log is its own component. Against that whole-log solve:
//
//   - O-UMP: fully separable; λ and the plan are additive.
//   - D-UMP: the BIP optimum is additive. The default SPE heuristic is not
//     ordering-invariant across components (it eliminates the globally
//     largest coefficient even from satisfied components), so the
//     per-component solve retains ≥ as many pairs as the whole-log one.
//   - Q-UMP: candidates (one pair per distinct query) are selected globally
//     — a query's pairs can span components — then inserted per component;
//     the greedy outcome equals the whole-log one exactly.
//   - F-UMP: the Σx = |O| row spans components, so with two or more
//     components |O| is allocated across them proportionally to their
//     per-component λ (largest-remainder rounding). The allocation is a
//     heuristic: the decomposed optimum is the whole-log one restricted to
//     that allocation, hence ≥ it in distance. The linearization scale 1/|O|
//     and the frequent-pair set use the global corpus, so the model is
//     otherwise identical.
//   - C-UMP: separable once the scale anchor λ is fixed; the decomposed
//     path anchors against the sum of per-component λ_LP (within FP
//     round-off of the whole-log anchor).
//
// Per-component solves run concurrently on a bounded worker pool
// (Options.Parallelism, default GOMAXPROCS). Plans are invariant in the
// parallelism level: components are solved independently and stitched in a
// deterministic order, so only wall-clock changes.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"dpslog/internal/dp"
	"dpslog/internal/metrics"
	"dpslog/internal/obs"
	"dpslog/internal/partition"
	"dpslog/internal/searchlog"
)

// workerCount resolves Options.Parallelism against the component count.
func workerCount(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// compScope names a component's warm-start scope. The component count is
// part of the scope so a corpus whose decomposition changes (e.g. after
// preprocessing differences) never reuses stale per-component bases.
func compScope(ci, n int) string {
	return fmt.Sprintf("c%d.%d", ci, n)
}

// components lists the components to solve over: the connected components
// of l, or — under Options.NoDecompose and for an empty log — the whole log
// as its one component, built without the union-find pass.
func (o Options) components(l *searchlog.Log) []partition.Component {
	if !o.NoDecompose {
		if comps := partition.DecomposeCtx(o.ctx(), l); len(comps) > 0 {
			return comps
		}
	}
	return []partition.Component{partition.Whole(l)}
}

// solvePerComponent runs solve for every component on a bounded worker pool
// and returns the plans in component order (deterministic regardless of
// scheduling). Each solve sees Options scoped to its component for warm
// starts. The first error by component index wins and is annotated with the
// component's shape.
func solvePerComponent(comps []partition.Component, opts Options, solve func(o Options, ci int, c *partition.Component) (*Plan, error)) ([]*Plan, error) {
	plans := make([]*Plan, len(comps))
	errs := make([]error, len(comps))
	workers := workerCount(opts.Parallelism, len(comps))
	// Each component solve gets its own "ump.component" span, and the inner
	// LP spans nest under it via the Options copy. Child spans append under
	// the shared parent span's lock, so concurrent component goroutines
	// record safely (covered by the -race span tests).
	traced := func(ci int) (*Plan, error) {
		cctx, sp := obs.Start(opts.ctx(), "ump.component")
		sp.SetAttr("component", ci)
		sp.SetAttr("pairs", comps[ci].Log.NumPairs())
		sp.SetAttr("users", comps[ci].Log.NumUsers())
		defer sp.End()
		co := opts.scoped(compScope(ci, len(comps)))
		co.Ctx = cctx
		return solve(co, ci, &comps[ci])
	}
	if workers == 1 {
		for ci := range comps {
			plans[ci], errs[ci] = traced(ci)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for ci := range comps {
			wg.Add(1)
			sem <- struct{}{}
			go func(ci int) {
				defer wg.Done()
				defer func() { <-sem }()
				plans[ci], errs[ci] = traced(ci)
			}(ci)
		}
		wg.Wait()
	}
	for ci, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ump: component %d/%d (%d pairs, %d users): %w",
				ci+1, len(comps), comps[ci].Log.NumPairs(), comps[ci].Log.NumUsers(), err)
		}
	}
	return plans, nil
}

// stitch scatters per-component plans back into a parent-indexed plan,
// summing sizes, objectives and iteration counts in component order. A
// single component is the whole log, so its plan is already
// parent-indexed and its Counts are taken as they are.
func stitch(kind Kind, l *searchlog.Log, comps []partition.Component, plans []*Plan) *Plan {
	plan := &Plan{
		Kind:       kind,
		Counts:     plans[0].Counts,
		Components: len(comps),
	}
	if len(comps) > 1 {
		plan.Counts = make([]int, l.NumPairs())
	}
	for ci, p := range plans {
		if len(comps) > 1 {
			comps[ci].Scatter(p.Counts, plan.Counts)
		}
		plan.OutputSize += p.OutputSize
		plan.Objective += p.Objective
		plan.RelaxationObjective += p.RelaxationObjective
		plan.Iterations += p.Iterations
		plan.Reused += p.Reused
		plan.Stats.add(p.Stats)
	}
	return plan
}

// addAuxiliary folds the solver effort and cache reuse of auxiliary
// per-component solves (the λ phase of F-UMP and C-UMP) into plan.
func (p *Plan) addAuxiliary(aux []*Plan) {
	for _, a := range aux {
		p.Stats.add(a.Stats)
		p.Reused += a.Reused
	}
}

// outputSizePlans solves O-UMP per component through the component cache.
// MaxOutputSize stitches them; F-UMP and C-UMP read their λ from them, so
// the three share the "oump" cache entries — after an append, only the
// components the delta touched re-derive their λ.
func outputSizePlans(comps []partition.Component, params dp.Params, opts Options) ([]*Plan, error) {
	return solvePerComponent(comps, opts, func(o Options, _ int, c *partition.Component) (*Plan, error) {
		return o.cachedComponent("oump", params, "", c, func() (*Plan, error) {
			return solveOutputSize(c.Log, params, o)
		})
	})
}

// MaxOutputSize solves O-UMP: the maximum differentially private output size
// λ for the preprocessed log under the given parameters. The solve runs per
// connected component (concurrently, bounded by Options.Parallelism) and is
// exactly additive: no Theorem-1 row spans two components and the objective
// Σ x_ij is separable.
func MaxOutputSize(l *searchlog.Log, params dp.Params, opts Options) (*Plan, error) {
	comps := opts.components(l)
	plans, err := outputSizePlans(comps, params, opts)
	if err != nil {
		return nil, err
	}
	plan := stitch(KindOutputSize, l, comps, plans)
	plan.Objective = float64(plan.OutputSize)
	return plan, nil
}

// Diversity solves D-UMP: maximize the number of distinct retained pairs.
// Following Theorem 2, the MIP is reduced to the pure BIP of Equation 8 and
// the selected pairs receive an output count of one (a single multinomial
// trial), exactly as §5.3 prescribes. The BIP solves per connected
// component; with an exact solver the retained-pair count is exactly the
// whole-log one, and with the SPE heuristics it is at least as large.
func Diversity(l *searchlog.Log, params dp.Params, opts Options) (*Plan, error) {
	solver := opts.Solver
	if solver == "" {
		solver = "spe"
	}
	comps := opts.components(l)
	plans, err := solvePerComponent(comps, opts, func(o Options, _ int, c *partition.Component) (*Plan, error) {
		return o.cachedComponent("dump", params, solver, c, func() (*Plan, error) {
			return solveDiversity(c.Log, params, solver, o)
		})
	})
	if err != nil {
		return nil, err
	}
	plan := stitch(KindDiversity, l, comps, plans)
	plan.Objective = float64(plan.OutputSize)
	return plan, nil
}

// QueryDiversity maximizes the number of distinct *queries* (rather than
// query-url pairs) retained in the output — the variant §5.3 notes can be
// modeled "in a similar way". Each query needs only its cheapest pair
// retained, so the greedy works on one candidate pair per query (the pair
// whose largest coefficient is smallest), inserting queries in ascending
// sensitivity while every user budget holds. The returned plan assigns
// count 1 to each selected pair, like D-UMP.
//
// Candidates are selected globally — a query's pairs can span components —
// and inserted per component, which reproduces one whole-log greedy exactly
// (the insertion order restricted to a component is the component's own
// insertion order, and feasibility checks touch only rows of the
// candidate's component).
func QueryDiversity(l *searchlog.Log, params dp.Params, opts Options) (*Plan, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if !searchlog.IsPreprocessed(l) {
		return nil, dp.ErrNotPreprocessed
	}
	comps := opts.components(l)
	// Global candidate selection needs only each pair's worst coefficient,
	// computable straight from the histogram — restriction preserves the
	// coefficients, so no full parent constraint system is built; each
	// component builds its own below.
	cands := queryCandidates(l, maxCoefFromLog(l))
	// Group candidates by component, remapped to local pair indices. The
	// per-component sort by (maxCoef, local index) preserves the global
	// order: local index order is parent order restricted.
	compOfPair := make([]int, l.NumPairs())
	localOfPair := make([]int, l.NumPairs())
	for ci := range comps {
		for j, pi := range comps[ci].Pairs {
			compOfPair[pi] = ci
			localOfPair[pi] = j
		}
	}
	byComp := make([][]queryCand, len(comps))
	for _, c := range cands {
		ci := compOfPair[c.pair]
		byComp[ci] = append(byComp[ci], queryCand{pair: localOfPair[c.pair], maxCoef: c.maxCoef})
	}
	for ci := range byComp {
		cc := byComp[ci]
		sort.Slice(cc, func(a, b int) bool {
			if cc[a].maxCoef != cc[b].maxCoef {
				return cc[a].maxCoef < cc[b].maxCoef
			}
			return cc[a].pair < cc[b].pair
		})
	}
	plans, err := solvePerComponent(comps, opts, func(_ Options, ci int, c *partition.Component) (*Plan, error) {
		ccons, err := dp.Build(c.Log, params)
		if err != nil {
			return nil, err
		}
		counts := make([]int, c.Log.NumPairs())
		retained := greedyInsertCands(ccons, byComp[ci], counts)
		return &Plan{
			Kind:                KindQueryDiversity,
			Counts:              counts,
			OutputSize:          retained,
			Objective:           float64(retained),
			RelaxationObjective: float64(retained),
			Components:          1,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return stitch(KindQueryDiversity, l, comps, plans), nil
}

// FrequentSupport solves F-UMP: minimize the sum of support distances of the
// input's frequent pairs (support ≥ minSupport) at the fixed output size
// outputSize, which must lie in [0, λ]; 0 selects ⌊λ/2⌋. The integral
// plan's realized size can fall slightly below outputSize because of
// flooring.
//
// λ, the maximum private output size, comes from the λ phase: O-UMP per
// component through the component cache. It runs once per call, is
// counted in the plan's Stats and Reused, and is reported in Lambda (the
// O-UMP plan's integral size). When ⌊λ/2⌋ is 0 no F-UMP LP can run at
// |O| = 0, so the O-UMP plan stands in, reported as F-UMP with its
// realized distance.
//
// With two or more components the solve allocates outputSize across them
// in proportion to each component's fractional λ, then solves each
// component at its allocation with the global linearization scale and
// frequent-pair set. The allocation is a heuristic — the paper's Σx = |O|
// row genuinely couples components — so the decomposed distance is an
// upper bound on the whole-log one. A single component takes all of
// outputSize.
func FrequentSupport(l *searchlog.Log, params dp.Params, minSupport float64, outputSize int, opts Options) (*Plan, error) {
	if !(minSupport > 0 && minSupport <= 1) {
		return nil, fmt.Errorf("ump: minimum support must be in (0, 1], got %g", minSupport)
	}
	if outputSize < 0 {
		return nil, fmt.Errorf("ump: output size must be non-negative, got %d", outputSize)
	}
	comps := opts.components(l)
	lamPlans, err := outputSizePlans(comps, params, opts)
	if err != nil {
		return nil, err
	}
	// Capacities come from the *fractional* λ_LP (floored): any integer
	// allocation s_c ≤ ⌊λ_c^LP⌋ is LP-feasible for its component (scale the
	// λ-achieving solution down), and the fractional bound is never below
	// the integral plan's size, so the feasibility precheck stays as close
	// to the whole-log one (outputSize ≤ λ_LP) as an integral allocation
	// permits.
	lambda, totalCap := 0, 0
	capacities := make([]int, len(comps))
	for ci, p := range lamPlans {
		lambda += p.OutputSize
		capacities[ci] = int(math.Floor(p.RelaxationObjective + 1e-7))
		totalCap += capacities[ci]
	}
	if outputSize == 0 {
		outputSize = lambda / 2
	}
	if outputSize == 0 {
		plan := stitch(KindFrequent, l, comps, lamPlans)
		plan.Objective, _, _ = metrics.SupportDistances(l, plan.Counts, minSupport)
		plan.RelaxationObjective = plan.Objective
		plan.Lambda = lambda
		return plan, nil
	}
	if outputSize > totalCap {
		return nil, fmt.Errorf("ump: F-UMP infeasible: output size %d exceeds λ = %d for these parameters", outputSize, totalCap)
	}
	alloc := []int{outputSize}
	if len(comps) > 1 {
		alloc = allocateProportional(outputSize, capacities)
	}

	// Per-component F-UMP at the allocated sizes. The frequent set and
	// supports are measured against the parent corpus (component pair
	// totals equal parent pair totals), and the y rows scale by the global
	// 1/|O|, so the component LPs are exactly the whole-log model plus the
	// per-component allocation rows.
	inSize := float64(l.Size())
	invO := 1 / float64(outputSize)
	plans, err := solvePerComponent(comps, opts, func(o Options, ci int, c *partition.Component) (*Plan, error) {
		if alloc[ci] == 0 {
			return &Plan{Kind: KindFrequent, Counts: make([]int, c.Log.NumPairs()), Components: 1}, nil
		}
		return solveFrequent(c.Log, params, minSupport, inSize, invO, alloc[ci], o)
	})
	if err != nil {
		return nil, err
	}
	plan := stitch(KindFrequent, l, comps, plans)
	plan.addAuxiliary(lamPlans)
	plan.Lambda = lambda
	// Realized objective at the stitched integral plan, over the global
	// frequent set and realized |O|.
	plan.Objective, _, _ = metrics.SupportDistances(l, plan.Counts, minSupport)
	return plan, nil
}

// Combined solves the joint utility-maximizing problem: unlike F-UMP it
// does not fix the output size; the LP itself trades release mass against
// frequent-pair support fidelity:
//
//	max  w_size · Σx/|D|  −  w_dist · Σ_freq y_f
//	s.t. Theorem-1 rows, 0 ≤ x ≤ c,
//	     y_f ≥ ±(x_f/|D_scale| − c_f/|D|)   for every frequent pair f
//
// Because |O| is variable, the support linearization anchors the output
// support against the *input* scale (x_f/|D|·γ with γ = |D|/λ_LP), which
// keeps the model linear; the realized objective is recomputed exactly on
// the integral plan (CombinedWeights.Objective).
//
// The model has no row spanning components, so the decomposed solve is
// exact once the anchor λ_LP is fixed; the decomposed path anchors against
// the sum of per-component λ_LP, which agrees with the whole-log anchor up
// to simplex round-off.
func Combined(l *searchlog.Log, params dp.Params, minSupport float64, w CombinedWeights, opts Options) (*Plan, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if !(minSupport > 0 && minSupport <= 1) {
		return nil, fmt.Errorf("ump: minimum support must be in (0, 1], got %g", minSupport)
	}
	comps := opts.components(l)
	// The λ anchor, from the per-component O-UMP relaxations.
	lamPlans, err := outputSizePlans(comps, params, opts)
	if err != nil {
		return nil, err
	}
	lam := 0.0
	for _, p := range lamPlans {
		lam += p.RelaxationObjective
	}
	var plan *Plan
	if lam < 1 {
		// Nothing can be released; the λ plan (empty) is the optimum.
		plan = stitch(KindCombined, l, comps, lamPlans)
	} else {
		inSize := float64(l.Size())
		plans, err := solvePerComponent(comps, opts, func(o Options, _ int, c *partition.Component) (*Plan, error) {
			return solveCombined(c.Log, params, minSupport, inSize, w, 1/lam, o)
		})
		if err != nil {
			return nil, err
		}
		plan = stitch(KindCombined, l, comps, plans)
		plan.addAuxiliary(lamPlans)
	}
	plan.Objective = w.Objective(l, minSupport, plan.Counts)
	return plan, nil
}

// allocateProportional splits total into per-component shares proportional
// to the capacities, capped by them, with largest-remainder rounding; the
// shares sum to total exactly whenever total ≤ Σ capacities. Deterministic:
// ties break by component index.
func allocateProportional(total int, capacities []int) []int {
	n := len(capacities)
	shares := make([]int, n)
	capSum := 0
	for _, c := range capacities {
		capSum += c
	}
	if capSum == 0 || total <= 0 {
		return shares
	}
	if total >= capSum {
		copy(shares, capacities)
		return shares
	}
	type rem struct {
		ci   int
		frac float64
	}
	rems := make([]rem, 0, n)
	assigned := 0
	for ci, c := range capacities {
		exact := float64(total) * float64(c) / float64(capSum)
		s := int(math.Floor(exact))
		if s > c {
			s = c
		}
		shares[ci] = s
		assigned += s
		rems = append(rems, rem{ci: ci, frac: exact - float64(s)})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	// Hand out the remainder by descending fractional part, skipping full
	// components; sweep repeatedly in case caps bind.
	for assigned < total {
		progressed := false
		for _, r := range rems {
			if assigned >= total {
				break
			}
			if shares[r.ci] < capacities[r.ci] {
				shares[r.ci]++
				assigned++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return shares
}
