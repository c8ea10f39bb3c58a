package dp

import (
	"fmt"
	"math"

	"dpslog/internal/searchlog"
)

// This file implements a brute-force, enumeration-based checker of
// Definition 2 for small logs. It exists to validate Theorem 1 end to end:
// the closed-form bounds (BreachProbability, WorstCaseRatio) and the linear
// constraint system are verified against exact probabilities computed by
// walking the mechanism's entire output space. Exponential in log size — use
// only on logs with a handful of pairs and small planned counts.

// Allocation assigns each pair's planned count to that pair's holders:
// Alloc[i][e] is the number of the x_i trials won by entry e of pair i.
type Allocation [][]int

// logMultinomialPMF returns ln Pr[X = alloc] for a multinomial with `trials`
// trials and integer weights (probabilities weights/Σweights). Entries with
// zero weight must have zero allocation or the probability is 0 (−Inf).
func logMultinomialPMF(weights []int, alloc []int, trials int) float64 {
	total := 0
	for _, w := range weights {
		total += w
	}
	lg, _ := math.Lgamma(float64(trials + 1))
	logp := lg
	sum := 0
	for e, a := range alloc {
		sum += a
		if a == 0 {
			continue
		}
		if weights[e] == 0 {
			return math.Inf(-1)
		}
		lgA, _ := math.Lgamma(float64(a + 1))
		logp -= lgA
		logp += float64(float64(a) * math.Log(float64(weights[e])/float64(total)))
	}
	if sum != trials {
		return math.Inf(-1)
	}
	return logp
}

// enumerate walks every allocation of the planned counts across pair holders
// of log l and invokes visit with the allocation and its exact log
// probability under l's histogram. Pairs with zero planned count contribute
// a single empty allocation.
func enumerate(l *searchlog.Log, counts []int, visit func(Allocation, float64)) {
	alloc := make(Allocation, l.NumPairs())
	for i := range alloc {
		alloc[i] = make([]int, len(l.Pair(i).Entries))
	}
	var rec func(pair int, logp float64)
	rec = func(pair int, logp float64) {
		if pair == l.NumPairs() {
			visit(alloc, logp)
			return
		}
		x := counts[pair]
		entries := l.Pair(pair).Entries
		weights := make([]int, len(entries))
		for e, en := range entries {
			weights[e] = en.Count
		}
		// Enumerate compositions of x into len(entries) parts.
		part := alloc[pair]
		var comp func(e, remaining int)
		comp = func(e, remaining int) {
			if e == len(part)-1 {
				part[e] = remaining
				lp := logMultinomialPMF(weights, part, x)
				if !math.IsInf(lp, -1) {
					rec(pair+1, logp+lp)
				}
				part[e] = 0
				return
			}
			for v := 0; v <= remaining; v++ {
				part[e] = v
				comp(e+1, remaining-v)
			}
			part[e] = 0
		}
		if len(entries) == 0 || x == 0 {
			for e := range part {
				part[e] = 0
			}
			rec(pair+1, logp)
			return
		}
		comp(0, x)
	}
	rec(0, 0)
}

// logProbUnder returns ln Pr[R(D′) = alloc] where D′ removes user k from l:
// trial probabilities for each pair drop user k's weight from the
// denominator. −Inf when the allocation gives user k a positive count or a
// pair no longer exists in D′ yet has a positive planned count with no
// remaining holders (impossible for preprocessed logs).
func logProbUnder(l *searchlog.Log, k int, counts []int, alloc Allocation) float64 {
	logp := 0.0
	for i := 0; i < l.NumPairs(); i++ {
		x := counts[i]
		if x == 0 {
			continue
		}
		entries := l.Pair(i).Entries
		weights := make([]int, len(entries))
		for e, en := range entries {
			if en.User == k {
				weights[e] = 0
			} else {
				weights[e] = en.Count
			}
		}
		total := 0
		for _, w := range weights {
			total += w
		}
		if total == 0 {
			return math.Inf(-1)
		}
		lp := logMultinomialPMF(weights, alloc[i], x)
		if math.IsInf(lp, -1) {
			return math.Inf(-1)
		}
		logp += lp
	}
	return logp
}

// containsUser reports whether the allocation samples user k at least once.
func containsUser(l *searchlog.Log, k int, alloc Allocation) bool {
	for i := 0; i < l.NumPairs(); i++ {
		for e, a := range alloc[i] {
			if a > 0 && l.Pair(i).Entries[e].User == k {
				return true
			}
		}
	}
	return false
}

// ExactCheck verifies Definition 2 exactly for every neighbor D′ = D − A_k
// of the preprocessed log, by enumerating the full output space of the
// mechanism with the given plan:
//
//	(1) Pr[R(D) ∈ Ω₁] ≤ δ where Ω₁ = outputs containing s_k, and
//	(2) for every O ∈ Ω₂, both likelihood ratios are ≤ e^ε.
//
// It also cross-validates the closed forms of Equations 2 and 3 against the
// enumerated mass, and that probabilities sum to 1. Exponential cost: only
// for tiny logs in tests and examples.
func ExactCheck(l *searchlog.Log, p Params, counts []int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if !searchlog.IsPreprocessed(l) {
		return ErrNotPreprocessed
	}
	eEps := math.Exp(p.Eps)
	for k := 0; k < l.NumUsers(); k++ {
		var omega1Mass, totalMass float64
		var maxRatio float64
		var err error
		enumerate(l, counts, func(alloc Allocation, logpD float64) {
			if err != nil {
				return
			}
			pD := math.Exp(logpD)
			totalMass += pD
			if containsUser(l, k, alloc) {
				omega1Mass += pD
				return
			}
			logpDp := logProbUnder(l, k, counts, alloc)
			if math.IsInf(logpDp, -1) {
				err = fmt.Errorf("dp: output in Ω₂ for user %d has zero probability under D′", k)
				return
			}
			ratio := math.Exp(logpDp - logpD)
			if ratio > maxRatio {
				maxRatio = ratio
			}
			// Pr[R(D)=O]/Pr[R(D′)=O] ≤ 1 ≤ e^ε always holds here (§4.1.2);
			// assert it anyway.
			if 1/ratio > eEps*(1+1e-9) {
				err = fmt.Errorf("dp: user %d: forward ratio %g exceeds e^ε = %g", k, 1/ratio, eEps)
			}
		})
		if err != nil {
			return err
		}
		if math.Abs(totalMass-1) > 1e-6 {
			return fmt.Errorf("dp: enumeration mass for user %d sums to %g, want 1", k, totalMass)
		}
		if omega1Mass > p.Delta+1e-9 {
			return fmt.Errorf("dp: user %d: Pr[Ω₁] = %g exceeds δ = %g", k, omega1Mass, p.Delta)
		}
		if maxRatio > eEps*(1+1e-9) {
			return fmt.Errorf("dp: user %d: reverse ratio %g exceeds e^ε = %g", k, maxRatio, eEps)
		}
		// Cross-validate the closed forms used by the verifier.
		if cf := BreachProbability(l, k, counts); math.Abs(cf-omega1Mass) > 1e-6 {
			return fmt.Errorf("dp: user %d: closed-form breach %g != enumerated %g", k, cf, omega1Mass)
		}
		if cf := WorstCaseRatio(l, k, counts); maxRatio > 0 && math.Abs(cf-maxRatio)/cf > 1e-6 {
			return fmt.Errorf("dp: user %d: closed-form ratio %g != enumerated %g", k, cf, maxRatio)
		}
	}
	return nil
}
