package mechanism

import (
	"context"
	"fmt"
	"math"

	"dpslog/internal/ledger"
	"dpslog/internal/obs"
	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
)

// zealousMechanism is the second prior-work mechanism of the paper's §2:
// ZEALOUS (Götz, Machanavajjhala, Wang, Xiao & Gehrke, "Publishing Search
// Logs — A Comparative Study of Privacy Guarantees"). It releases noisy
// aggregate counts like laplace, but with a two-threshold structure that
// achieves (ε, δ)-probabilistic differential privacy, the notion
// (Definition 2) the paper adopts:
//
//  1. contribution bounding: keep each user's M heaviest pairs
//     (Options.D carries M);
//  2. pre-threshold: drop pairs whose bounded count is below
//     τ₁ = 1 + (2M/ε)·ln(M/δ), which bounds the probability of disclosing
//     a rare pair (the δ part);
//  3. noise: add Lap(2M/ε) to the surviving counts;
//  4. post-threshold: drop pairs whose noisy count is below
//     τ₂ = τ₁ + (2M/ε)·ln 2.
//
// Like laplace, the release carries no user-IDs: stronger aggregate
// coverage, zero per-user structure.
type zealousMechanism struct{}

func (zealousMechanism) Name() string { return "zealous" }

func (zealousMechanism) Validate(opts Options) error {
	if !(opts.Epsilon > 0) {
		return fmt.Errorf("dpslog: zealous requires Epsilon > 0, got %g", opts.Epsilon)
	}
	if !(opts.Delta > 0 && opts.Delta < 1) {
		return fmt.Errorf("dpslog: zealous requires Delta in (0, 1), got %g", opts.Delta)
	}
	if opts.D < 0 {
		return fmt.Errorf("dpslog: zealous contribution bound D must be non-negative, got %d", opts.D)
	}
	return nil
}

func (zealousMechanism) Canonical(opts Options) Options {
	return aggCanonical(opts, "zealous", true, 20)
}

// Cost declares (ε, δ): ZEALOUS natively satisfies the paper's Definition 2
// notion of (ε, δ)-probabilistic differential privacy.
func (zealousMechanism) Cost(opts Options) ledger.Budget {
	return ledger.Budget{Epsilon: opts.Epsilon, Delta: opts.Delta}
}

func (m zealousMechanism) Sanitize(ctx context.Context, in *searchlog.Log, opts Options) (*Release, error) {
	if err := m.Validate(opts); err != nil {
		return nil, err
	}
	opts = m.Canonical(opts)
	_, sp := obs.Start(ctx, "zealous")
	defer sp.End()
	scale := 2 * float64(opts.D) / opts.Epsilon
	tau1 := 1 + scale*math.Log(float64(opts.D)/opts.Delta)
	tau2 := tau1 + scale*math.Ln2
	g := rng.New(opts.Seed ^ 0x5EA10005)

	bounded, boundedUsers := boundedCounts(in, opts.D)
	rel := &Release{Mechanism: "zealous", BoundedUsers: boundedUsers}
	for _, bp := range bounded {
		// The pre-threshold reads the exact count and draws no noise, so
		// suppressed pairs do not advance the noise stream.
		if float64(bp.count) < tau1 {
			continue
		}
		if noisy := float64(bp.count) + g.Laplace(scale); noisy >= tau2 {
			rel.Pairs = append(rel.Pairs, PairCount{Query: bp.key.Query, URL: bp.key.URL, Count: noisy})
		}
	}
	sp.SetAttr("pairs", len(rel.Pairs))
	sp.SetAttr("bounded_users", boundedUsers)
	return rel, nil
}
