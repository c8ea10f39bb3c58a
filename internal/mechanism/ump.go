package mechanism

import (
	"context"
	"fmt"

	"dpslog/internal/dp"
	"dpslog/internal/ledger"
	"dpslog/internal/obs"
	"dpslog/internal/rng"
	"dpslog/internal/sampling"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// Plan summarizes the optimization step of a UMP sanitization run.
type Plan struct {
	// Kind is "O-UMP", "F-UMP" or "D-UMP".
	Kind string
	// Counts are the integral per-pair output counts, aligned with the pair
	// indices of Result.Preprocessed.
	Counts []int
	// OutputSize is Σ Counts.
	OutputSize int
	// Objective is the problem objective at the integral plan (size,
	// distance sum, or retained pairs).
	Objective float64
	// RelaxationObjective is the fractional optimum of the underlying LP
	// (or the BIP objective for D-UMP).
	RelaxationObjective float64
	// Lambda is the O-UMP maximum output size computed for ObjectiveFrequent
	// runs (0 otherwise).
	Lambda int
	// Iterations counts simplex iterations or BIP solver nodes (summed over
	// components for a decomposed solve).
	Iterations int
	// Components is the number of connected components of the user–pair
	// incidence graph the solve decomposed into (1 for a connected corpus).
	Components int
	// Reused counts the components whose plans were served byte-identically
	// from an attached CompCache instead of re-solving (0 for a cold solve).
	Reused int
	// NoiseApplied reports that §4.2 end-to-end noise perturbed the counts.
	NoiseApplied bool
	// Solver aggregates the solver-depth counters (LP solves, simplex
	// refactorizations, presolve eliminations, eta-file peak, warm-start
	// hits vs cold fallbacks) across every LP behind the plan.
	Solver SolveStats
}

// SolveStats aggregates solver-depth counters across the LPs behind one
// plan; see ump.SolveStats for field semantics.
type SolveStats = ump.SolveStats

// Result is a completed UMP sanitization.
type Result struct {
	// Output is the sanitized log, schema-identical to the input.
	Output *searchlog.Log
	// Preprocessed is the input after unique-pair removal (and, when
	// Options.BoundSensitivity is set, after §4.2 user-log dropping);
	// Plan.Counts is indexed by its pairs.
	Preprocessed *searchlog.Log
	// PreStats reports what preprocessing removed.
	PreStats searchlog.PreprocessStats
	// DroppedUsers lists external user IDs removed by §4.2 sensitivity
	// bounding (empty unless Options.BoundSensitivity).
	DroppedUsers []string
	// Plan is the audited optimization outcome that drove the sampling.
	Plan Plan
}

// CompCache caches solved per-component plans keyed by component content
// digest (PR 10): when an append-only corpus gains a version, a re-solve
// pays only for the connected components the appended rows changed — every
// untouched component hashes to the same digest as in the parent version
// and its cached λ/counts are reused byte-identically. Reuse is exact by
// construction (the digest pins the constraint system, and the key pins ε,
// δ, solver and ablation flags), so a CompCache may be shared across
// versions — or corpora — without any reproducibility caveat. Only
// per-component-independent solves consult it (O-UMP, D-UMP, and the O-UMP
// λ phases of F-UMP/C-UMP); globally coupled phases always re-solve.
type CompCache struct {
	cache *ump.ComponentCache
}

// NewCompCache creates a component-plan cache bounded to capacity entries
// (≤ 0 selects a default). Eviction only costs a re-solve, never
// correctness.
func NewCompCache(capacity int) *CompCache {
	return &CompCache{cache: ump.NewComponentCache(capacity)}
}

// Counters reports cumulative component-cache hits and misses.
func (c *CompCache) Counters() (hits, misses int) {
	if c == nil {
		return 0, 0
	}
	return c.cache.Counters()
}

// Len reports the number of cached component plans.
func (c *CompCache) Len() int {
	if c == nil {
		return 0
	}
	return c.cache.Len()
}

// RunUMP executes the paper's Algorithm 1 end to end: preprocess (Theorem
// 1 Condition 1), solve the configured utility-maximizing problem
// (Conditions 2/3 as constraints), optionally noise the counts (§4.2),
// audit the final plan, and multinomially sample user-IDs per pair. The
// input log is not modified. When ctx carries an active obs span the
// pipeline records child spans per stage; tracing never changes the
// output.
func RunUMP(ctx context.Context, in *searchlog.Log, opts Options) (*Result, error) {
	_, psp := obs.Start(ctx, "preprocess")
	pre, preStats := searchlog.Preprocess(in)
	psp.SetAttr("pairs", pre.NumPairs())
	psp.SetAttr("users", pre.NumUsers())
	psp.SetAttr("removed_pairs", preStats.RemovedPairs)
	psp.End()
	params := dp.Params{Eps: opts.Epsilon, Delta: opts.Delta}
	uopts := ump.Options{Solver: opts.Solver, Parallelism: opts.Parallelism}
	if opts.Comp != nil {
		uopts.Comp = opts.Comp.cache
	}

	// §4.2 sensitivity-bounding preprocessing: drop user logs whose removal
	// shifts any optimal count by more than D, so the Lap(D/ε′) scale below
	// actually covers the count computation's sensitivity.
	var droppedUsers []string
	if opts.BoundSensitivity {
		solve := func(l *searchlog.Log) (map[searchlog.PairKey]int, error) {
			p, _ := searchlog.Preprocess(l)
			plan, _, err := solveObjectiveWithLambda(p, opts, params, uopts)
			if err != nil {
				return nil, err
			}
			out := make(map[searchlog.PairKey]int, p.NumPairs())
			for i, x := range plan.Counts {
				if x > 0 {
					out[p.Pair(i).Key()] = x
				}
			}
			return out, nil
		}
		_, bsp := obs.Start(ctx, "sensitivity_bound")
		bounded, dropped, err := dp.BoundSensitivity(pre, opts.D, solve)
		bsp.SetAttr("dropped_users", len(dropped))
		bsp.End()
		if err != nil {
			return nil, fmt.Errorf("dpslog: sensitivity bounding: %w", err)
		}
		droppedUsers = dropped
		if len(dropped) > 0 {
			// Dropping users can orphan pairs into uniqueness; re-preprocess.
			bounded, _ = searchlog.Preprocess(bounded)
		}
		pre = bounded
	}

	solveCtx, ssp := obs.Start(ctx, "solve")
	uopts.Ctx = solveCtx
	plan, lambda, err := solveObjectiveWithLambda(pre, opts, params, uopts)
	if ssp != nil && plan != nil {
		ssp.SetAttr("kind", string(plan.Kind))
		ssp.SetAttr("components", plan.Components)
		ssp.SetAttr("iterations", plan.Iterations)
		ssp.SetAttr("lp_solves", plan.Stats.LPSolves)
	}
	ssp.End()
	if err != nil {
		return nil, err
	}

	counts := plan.Counts
	noised := false
	if opts.EndToEnd {
		_, nsp := obs.Start(ctx, "noise")
		g := rng.New(opts.Seed ^ 0x9e3779b97f4a7c15)
		noisy, err := dp.NoisyCounts(g, counts, opts.D, opts.EpsPrime)
		if err != nil {
			nsp.End()
			return nil, err
		}
		// Respect the box and Condition 1 invariants, then re-project into
		// the Theorem-1 polytope.
		for i := range noisy {
			if c := pre.PairCount(i); noisy[i] > c {
				noisy[i] = c
			}
		}
		cons, err := dp.Build(pre, params)
		if err != nil {
			nsp.End()
			return nil, err
		}
		counts = dp.ProjectFeasible(cons, noisy)
		noised = true
		nsp.SetAttr("d", opts.D)
		nsp.SetAttr("eps_prime", opts.EpsPrime)
		nsp.End()
	}

	// Invariant: every released plan satisfies Theorem 1 exactly.
	_, asp := obs.Start(ctx, "audit")
	err = dp.VerifyLog(pre, params, counts)
	asp.End()
	if err != nil {
		return nil, fmt.Errorf("dpslog: internal error: plan failed audit: %w", err)
	}

	_, smp := obs.Start(ctx, "sample")
	out, err := sampling.Output(rng.New(opts.Seed), pre, counts)
	smp.End()
	if err != nil {
		return nil, err
	}
	outSize := 0
	for _, c := range counts {
		outSize += c
	}
	objective := plan.Objective
	if noised {
		// Recompute every objective on the noisy counts: the plan the
		// release realizes is the noisy one, and the solver's objective no
		// longer describes it.
		switch opts.Objective {
		case ObjectiveOutputSize:
			objective = float64(outSize)
		case ObjectiveDiversity:
			// Distinct retained pairs: noise and re-projection can push a
			// pair's count past one, so output size over-counts diversity.
			objective = float64(countPositive(counts))
		case ObjectiveQueryDiversity:
			objective = float64(distinctQueries(pre, counts))
		case ObjectiveFrequent:
			// The realized support-distance sum (previously NaN, which also
			// broke JSON encoding of the server's sync response).
			objective = ump.SupportDistance(pre, opts.MinSupport, counts)
		case ObjectiveCombined:
			ws, wd := opts.CombinedWeights()
			dist := ump.SupportDistance(pre, opts.MinSupport, counts)
			objective = ws*float64(outSize)/float64(pre.Size()) - wd*dist
		}
	}
	return &Result{
		Output:       out,
		Preprocessed: pre,
		PreStats:     preStats,
		DroppedUsers: droppedUsers,
		Plan: Plan{
			Kind:                string(plan.Kind),
			Counts:              counts,
			OutputSize:          outSize,
			Objective:           objective,
			RelaxationObjective: plan.RelaxationObjective,
			Lambda:              lambda,
			Iterations:          plan.Iterations,
			Components:          plan.Components,
			Reused:              plan.Reused,
			NoiseApplied:        noised,
			Solver:              plan.Stats,
		},
	}, nil
}

// countPositive counts the pairs with a positive planned count.
func countPositive(counts []int) int {
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// distinctQueries counts the distinct queries among pairs with a positive
// planned count.
func distinctQueries(l *searchlog.Log, counts []int) int {
	seen := make(map[string]struct{})
	for i, c := range counts {
		if c > 0 {
			seen[l.Pair(i).Query] = struct{}{}
		}
	}
	return len(seen)
}

// solveObjectiveWithLambda dispatches to the configured utility-maximizing
// problem, additionally reporting the O-UMP λ computed for
// ObjectiveFrequent runs (0 for the other objectives).
func solveObjectiveWithLambda(pre *searchlog.Log, opts Options, params dp.Params, uopts ump.Options) (*ump.Plan, int, error) {
	switch opts.Objective {
	case ObjectiveOutputSize:
		plan, err := ump.MaxOutputSize(pre, params, uopts)
		return plan, 0, err
	case ObjectiveFrequent:
		lp, err := ump.MaxOutputSize(pre, params, uopts)
		if err != nil {
			return nil, 0, err
		}
		lambda := lp.OutputSize
		outSize := opts.OutputSize
		if outSize == 0 {
			outSize = lambda / 2
		}
		if outSize > lambda {
			return nil, 0, fmt.Errorf("dpslog: OutputSize %d exceeds λ = %d for ε=%g δ=%g",
				outSize, lambda, opts.Epsilon, opts.Delta)
		}
		if outSize == 0 {
			// Degenerate budget: fall back to the (empty) O-UMP plan.
			return lp, lambda, nil
		}
		plan, err := ump.FrequentSupport(pre, params, opts.MinSupport, outSize, uopts)
		return plan, lambda, err
	case ObjectiveDiversity:
		plan, err := ump.Diversity(pre, params, uopts)
		return plan, 0, err
	case ObjectiveCombined:
		var w ump.CombinedWeights
		w.SizeWeight, w.DistanceWeight = opts.CombinedWeights()
		plan, err := ump.Combined(pre, params, opts.MinSupport, w, uopts)
		return plan, 0, err
	case ObjectiveQueryDiversity:
		plan, err := ump.QueryDiversity(pre, params, uopts)
		return plan, 0, err
	}
	return nil, 0, fmt.Errorf("dpslog: unknown objective %v", opts.Objective)
}

// umpMechanism adapts the paper's Algorithm 1 to the Mechanism interface.
type umpMechanism struct{}

func (umpMechanism) Name() string { return "ump" }

func (umpMechanism) Validate(opts Options) error { return umpValidate(opts) }

func (umpMechanism) Canonical(opts Options) Options { return umpCanonical(opts) }

// Cost is the UMP release's declared charge: the sampling step spends
// (ε, δ) under Theorem 1, and §4.2 end-to-end mode additionally spends ε′
// on the count computation itself (sequential composition across the two
// stages).
func (umpMechanism) Cost(opts Options) ledger.Budget {
	eps := opts.Epsilon
	if opts.EndToEnd {
		eps = opts.Epsilon + opts.EpsPrime
	}
	return ledger.Budget{Epsilon: eps, Delta: opts.Delta}
}

func (umpMechanism) Sanitize(ctx context.Context, in *searchlog.Log, opts Options) (*Release, error) {
	res, err := RunUMP(ctx, in, opts)
	if err != nil {
		return nil, err
	}
	return &Release{Mechanism: "ump", Output: res.Output, Result: res}, nil
}
