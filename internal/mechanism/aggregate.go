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

// defaultBound is the per-user contribution bound D of the aggregate
// mechanisms when Options.D is zero.
const defaultBound = 20

// thresholdMechanism is the one release loop of the two prior-work
// mechanisms the paper argues against in §2. Both release noisy
// query-url counts and drop user-IDs entirely — the schema loss the
// paper's multinomial strategy avoids:
//
//  1. contribution bounding: each user keeps their D heaviest pairs
//     (ties broken by pair index), and a pair's count is the number of
//     users who kept it — Götz et al.'s c_k. One user adds at most D to
//     the count vector, so its L1 sensitivity is D whatever the clicks;
//  2. pre-threshold: pairs whose exact count is below τ₁ are dropped
//     before any noise is drawn (laplace has none: τ₁ = 0);
//  3. noise: every surviving count receives Lap(2D/ε);
//  4. threshold: pairs whose noisy count reaches τ₂ are released with
//     their noisy counts.
type thresholdMechanism struct {
	name string
	// salt decorrelates the noise stream from the other mechanisms' at
	// equal seeds.
	salt uint64
	// maxDelta is the exclusive upper end of Delta's valid range.
	maxDelta float64
	// thresholds returns (τ₁, τ₂) at noise scale b = 2D/ε.
	thresholds func(b float64, opts Options) (tau1, tau2 float64)
}

// laplaceMechanism is Korolova et al., "Releasing Search Queries and
// Clicks Privately" (WWW 2009), first algorithm: no pre-threshold and
// τ₂ = (2D/ε)·ln(1/(2δ̂)), where Delta carries the per-item failure mass
// δ̂ ∈ (0, 0.5). The 2 in the scale covers the threshold comparison, as in
// the original analysis. The release is (ε, δ̂)-indistinguishable; the
// paper's Definition 2 is strictly stronger (Proposition 1), which is
// part of the comparison.
var laplaceMechanism = thresholdMechanism{
	name:     "laplace",
	salt:     0xABCD1234,
	maxDelta: 0.5,
	thresholds: func(b float64, opts Options) (float64, float64) {
		return 0, b * math.Log(1/(2*opts.Delta))
	},
}

// zealousMechanism is ZEALOUS (Götz, Machanavajjhala, Wang, Xiao &
// Gehrke, "Publishing Search Logs — A Comparative Study of Privacy
// Guarantees"), which targets the paper's own (ε, δ)-probabilistic
// differential privacy (Definition 2) with two thresholds:
// τ₁ = 1 + (2M/ε)·ln(M/δ) on the exact count bounds the probability of
// disclosing a rare pair, and τ₂ = τ₁ + (2M/ε)·ln 2 on the noisy one
// (Options.D carries M, Delta carries δ ∈ (0, 1)).
var zealousMechanism = thresholdMechanism{
	name:     "zealous",
	salt:     0x5EA10005,
	maxDelta: 1,
	thresholds: func(b float64, opts Options) (float64, float64) {
		tau1 := 1 + float64(b*math.Log(float64(opts.D)/opts.Delta))
		return tau1, tau1 + float64(b*math.Ln2)
	},
}

func (m thresholdMechanism) Name() string { return m.name }

func (m thresholdMechanism) Validate(opts Options) error {
	if !(opts.Epsilon > 0) {
		return fmt.Errorf("dpslog: %s requires Epsilon > 0, got %g", m.name, opts.Epsilon)
	}
	if !(opts.Delta > 0 && opts.Delta < m.maxDelta) {
		return fmt.Errorf("dpslog: %s requires Delta in (0, %g), got %g", m.name, m.maxDelta, opts.Delta)
	}
	if opts.D < 0 {
		return fmt.Errorf("dpslog: %s contribution bound D must be non-negative, got %d", m.name, opts.D)
	}
	return nil
}

// Canonical keeps only the fields the loop reads (ε, δ, the contribution
// bound with its default materialized, and the seed).
func (m thresholdMechanism) Canonical(opts Options) Options {
	c := Options{Mechanism: m.name, Epsilon: opts.Epsilon, Delta: opts.Delta, Seed: opts.Seed, D: opts.D}
	if c.D == 0 {
		c.D = defaultBound
	}
	return c
}

// Cost declares (ε, δ) as requested: laplace's δ is the threshold's
// failure mass δ̂, zealous's the probabilistic-DP δ of Definition 2.
func (thresholdMechanism) Cost(opts Options) ledger.Budget {
	return ledger.Budget{Epsilon: opts.Epsilon, Delta: opts.Delta}
}

func (m thresholdMechanism) Sanitize(ctx context.Context, in *searchlog.Log, opts Options) (*Release, error) {
	if err := m.Validate(opts); err != nil {
		return nil, err
	}
	opts = m.Canonical(opts)
	_, sp := obs.Start(ctx, m.name)
	defer sp.End()
	scale := 2 * float64(opts.D) / opts.Epsilon
	tau1, tau2 := m.thresholds(scale, opts)
	g := rng.New(opts.Seed ^ m.salt)

	bounded, boundedUsers := boundedCounts(in, opts.D)
	rel := &Release{Mechanism: m.name, BoundedUsers: boundedUsers}
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

// boundedPair is one pair's count after contribution bounding: the number
// of users who kept it.
type boundedPair struct {
	key   searchlog.PairKey
	count int
}

// boundedCounts counts, per pair, the users who kept it among their bound
// heaviest pairs — one per user, however many clicks — sorted by
// (query, url) so the noise draws that follow are reproducible, and
// reports how many users the bound truncated.
func boundedCounts(l *searchlog.Log, bound int) ([]boundedPair, int) {
	counts := make([]int, l.NumPairs())
	boundedUsers := 0
	for k := 0; k < l.NumUsers(); k++ {
		pairs, truncated := heaviestPairs(l.User(k).Pairs, bound)
		if truncated {
			boundedUsers++
		}
		for _, up := range pairs {
			counts[up.Pair]++
		}
	}
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
