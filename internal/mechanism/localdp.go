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

// localDPSeedSalt decorrelates the randomized-response bit stream from the
// other mechanisms' noise streams at equal seeds.
const localDPSeedSalt = 0x10CA1D11BEEF

// localDPDefaultBound is the per-user reporting bound B when Options.D is
// zero: each user reports their single heaviest pair, the strongest
// per-bit budget.
const localDPDefaultBound = 1

// localDPMechanism is the local-model competitor: per-user randomized
// response over the corpus's pair domain with linear-reduction frequency
// debiasing (the estimator family of Ding et al., "A Linear Reduction
// Method for Local Differential Privacy and Log-lift").
//
// Each user keeps their B heaviest pairs (B = Options.D, default 1) and
// encodes them as a one-hot/B-hot bit vector over the pair domain; every
// bit is then reported truthfully with probability p = e^(ε/2B)/(1+e^(ε/2B))
// and flipped otherwise (symmetric unary encoding). Two neighboring user
// logs differ in at most 2B bit positions, so the report satisfies pure
// ε-local differential privacy per user; by post-processing the aggregate
// release is centrally ε-differentially private with δ = 0. The server
// debiases the observed bit counts linearly, n̂_i = (c_i − N(1−p))/(2p−1),
// and releases pairs whose debiased estimate reaches 1.
type localDPMechanism struct{}

func (localDPMechanism) Name() string { return "localdp" }

func (localDPMechanism) Validate(opts Options) error {
	if !(opts.Epsilon > 0) {
		return fmt.Errorf("dpslog: localdp requires Epsilon > 0, got %g", opts.Epsilon)
	}
	if opts.Delta != 0 {
		return fmt.Errorf("dpslog: localdp is pure ε-local DP; Delta must be 0, got %g", opts.Delta)
	}
	if opts.D < 0 {
		return fmt.Errorf("dpslog: localdp reporting bound D must be non-negative, got %d", opts.D)
	}
	return nil
}

func (localDPMechanism) Canonical(opts Options) Options {
	return aggCanonical(opts, "localdp", false, localDPDefaultBound)
}

// Cost declares (ε, 0): randomized response gives every user a pure
// ε-local guarantee, and local DP implies central DP at the same ε with no
// failure mass.
func (localDPMechanism) Cost(opts Options) ledger.Budget {
	return ledger.Budget{Epsilon: opts.Epsilon}
}

func (m localDPMechanism) Sanitize(ctx context.Context, in *searchlog.Log, opts Options) (*Release, error) {
	if err := m.Validate(opts); err != nil {
		return nil, err
	}
	opts = m.Canonical(opts)
	_, sp := obs.Start(ctx, "localdp")
	defer sp.End()
	bound := opts.D
	// Truth probability per bit: 2B bits can differ between neighboring
	// logs, so each bit gets ε/(2B) and the ratio telescopes to e^ε.
	p := math.Exp(opts.Epsilon / (2 * float64(bound)))
	p = p / (1 + p)
	g := rng.New(opts.Seed ^ localDPSeedSalt)

	numPairs := in.NumPairs()
	numUsers := in.NumUsers()
	observed := make([]int, numPairs)
	held := make([]bool, numPairs)
	boundedUsers := 0
	for k := 0; k < numUsers; k++ {
		pairs, truncated := heaviestPairs(in.User(k).Pairs, bound)
		if truncated {
			boundedUsers++
		}
		for _, up := range pairs {
			held[up.Pair] = true
		}
		// One draw per domain bit, held or not, keeps the randomized
		// response symmetric (and the rng stream position independent of
		// the user's data).
		for i := 0; i < numPairs; i++ {
			bit := held[i]
			if g.Float64() >= p {
				bit = !bit
			}
			if bit {
				observed[i]++
			}
		}
		for _, up := range pairs {
			held[up.Pair] = false
		}
	}

	// Linear-reduction debiasing: invert the two-point response channel.
	// E[c_i] = n_i·p + (N−n_i)(1−p), so n̂_i = (c_i − N(1−p))/(2p−1).
	rel := &Release{Mechanism: "localdp", BoundedUsers: boundedUsers}
	flipMass := float64(numUsers) * (1 - p)
	gain := 2*p - 1
	for i := 0; i < numPairs; i++ {
		est := (float64(observed[i]) - flipMass) / gain
		if est >= 1 {
			key := in.Pair(i).Key()
			rel.Pairs = append(rel.Pairs, PairCount{Query: key.Query, URL: key.URL, Count: est})
		}
	}
	sp.SetAttr("pairs", len(rel.Pairs))
	sp.SetAttr("bounded_users", boundedUsers)
	sp.SetAttr("bound", bound)
	return rel, nil
}
