package mechanism

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dpslog/internal/ledger"
	"dpslog/internal/obs"
	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
)

// laplaceMechanism is the prior-work mechanism the paper argues against
// (§2.1): Korolova et al., "Releasing Search Queries and Clicks Privately"
// (WWW 2009). It releases aggregate query-url counts with Laplace noise
// after bounding each user's contribution, and so drops user-IDs entirely
// — the deficiency the paper's multinomial strategy fixes. The algorithm is
// the canonical form of Korolova et al.'s first algorithm:
//
//  1. Activity bounding: each user contributes at most D query-url pairs
//     (their heaviest ones), so the per-user L1 sensitivity of the count
//     vector is at most D.
//  2. Noise: every candidate pair's bounded count receives Lap(2D/ε) noise
//     (the 2 covers the threshold comparison, as in the original analysis).
//  3. Thresholding: only pairs whose noisy count clears
//     τ = (2D/ε)·ln(1/(2δ̂)) are released, with their noisy counts.
//
// The release satisfies (ε, δ)-indistinguishability with δ governed by the
// per-item failure mass δ̂ behind τ; the paper's Definition 2 is strictly
// stronger (Proposition 1), which is part of the comparison.
type laplaceMechanism struct{}

func (laplaceMechanism) Name() string { return "laplace" }

// Validate reads Delta as the per-item failure mass δ̂ behind the derived
// threshold, which must lie in (0, 0.5) for τ to be positive.
func (laplaceMechanism) Validate(opts Options) error {
	if !(opts.Epsilon > 0) {
		return fmt.Errorf("dpslog: laplace requires Epsilon > 0, got %g", opts.Epsilon)
	}
	if !(opts.Delta > 0 && opts.Delta < 0.5) {
		return fmt.Errorf("dpslog: laplace reads Delta as the threshold failure mass δ̂, which must lie in (0, 0.5), got %g", opts.Delta)
	}
	if opts.D < 0 {
		return fmt.Errorf("dpslog: laplace contribution bound D must be non-negative, got %d", opts.D)
	}
	return nil
}

func (laplaceMechanism) Canonical(opts Options) Options {
	return aggCanonical(opts, "laplace", true, 20)
}

// Cost declares (ε, δ̂): the release is (ε, δ)-indistinguishable with the
// disclosure mass governed by the threshold's δ̂, which is what the wire
// Delta carries for this mechanism.
func (laplaceMechanism) Cost(opts Options) ledger.Budget {
	return ledger.Budget{Epsilon: opts.Epsilon, Delta: opts.Delta}
}

func (m laplaceMechanism) Sanitize(ctx context.Context, in *searchlog.Log, opts Options) (*Release, error) {
	if err := m.Validate(opts); err != nil {
		return nil, err
	}
	opts = m.Canonical(opts)
	_, sp := obs.Start(ctx, "laplace")
	defer sp.End()
	scale := 2 * float64(opts.D) / opts.Epsilon
	tau := scale * math.Log(1/(2*opts.Delta))
	g := rng.New(opts.Seed ^ 0xABCD1234)

	bounded, boundedUsers := boundedCounts(in, opts.D)
	rel := &Release{Mechanism: "laplace", BoundedUsers: boundedUsers}
	for _, bp := range bounded {
		if noisy := float64(bp.count) + g.Laplace(scale); noisy >= tau {
			rel.Pairs = append(rel.Pairs, PairCount{Query: bp.key.Query, URL: bp.key.URL, Count: noisy})
		}
	}
	sp.SetAttr("pairs", len(rel.Pairs))
	sp.SetAttr("bounded_users", boundedUsers)
	return rel, nil
}

// heaviestPairs returns a user's bound heaviest pairs (ties broken by pair
// index) and whether the bound truncated them. The log's own pair slice is
// never reordered: truncation sorts a copy.
func heaviestPairs(pairs []searchlog.UserPair, bound int) ([]searchlog.UserPair, bool) {
	if len(pairs) <= bound {
		return pairs, false
	}
	pairs = append([]searchlog.UserPair(nil), pairs...)
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Count != pairs[b].Count {
			return pairs[a].Count > pairs[b].Count
		}
		return pairs[a].Pair < pairs[b].Pair
	})
	return pairs[:bound], true
}

// boundedPair is one pair's aggregate count after contribution bounding.
type boundedPair struct {
	key   searchlog.PairKey
	count int
}

// boundedCounts sums every user's bound heaviest pairs into per-pair
// counts, sorted by (query, url) so the noise draws that follow are
// reproducible, and reports how many users the bound truncated.
func boundedCounts(l *searchlog.Log, bound int) ([]boundedPair, int) {
	counts := make([]int, l.NumPairs())
	boundedUsers := 0
	for k := 0; k < l.NumUsers(); k++ {
		pairs, truncated := heaviestPairs(l.User(k).Pairs, bound)
		if truncated {
			boundedUsers++
		}
		for _, up := range pairs {
			counts[up.Pair] += up.Count
		}
	}
	// A log holds only positive user counts, so a pair some user kept has a
	// positive bounded count.
	var out []boundedPair
	for i, c := range counts {
		if c > 0 {
			out = append(out, boundedPair{key: l.Pair(i).Key(), count: c})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].key.Query != out[b].key.Query {
			return out[a].key.Query < out[b].key.Query
		}
		return out[a].key.URL < out[b].key.URL
	})
	return out, boundedUsers
}
