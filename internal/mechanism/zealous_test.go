package mechanism

import (
	"fmt"
	"math"
	"testing"

	"dpslog/internal/searchlog"
)

func TestZealousValidates(t *testing.T) {
	l := corpus(t)
	bad := []Options{
		{Epsilon: 0, Delta: 0.1},
		{Epsilon: 1, Delta: 0},
		{Epsilon: 1, Delta: 1},
		{Epsilon: 1, Delta: 0.1, D: -1},
	}
	for i, o := range bad {
		o.Mechanism = "zealous"
		if _, err := sanitize(t, l, o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestZealousTwoThresholdStructure(t *testing.T) {
	// A pair below τ₁ must never be released even with enormous positive
	// noise potential — the pre-threshold is checked on the *exact* count.
	// At ε = 5, M = 5 the noise scale is 2; δ = M·e^(−4.5) puts
	// τ₁ = 1 + 2·ln(M/δ) at 10 and τ₂ = τ₁ + 2·ln 2 just above 11.
	const eps, m, tau1 = 5.0, 5, 10.0
	scale := 2 * float64(m) / eps
	delta := float64(m) * math.Exp(-(tau1-1)/scale)
	tau2 := tau1 + scale*math.Ln2
	b := searchlog.NewBuilder()
	b.Add("a", "rare", "u", 1)
	b.Add("b", "rare", "u", 1)
	for u := range 200 {
		b.Add(fmt.Sprint("p", u), "popular", "u", 40)
	}
	l := b.Log()
	released := 0
	for seed := uint64(0); seed < 30; seed++ {
		rel, err := sanitize(t, l, Options{Mechanism: "zealous", Epsilon: eps, Delta: delta, D: m, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range rel.Pairs {
			if pc.Query == "rare" {
				t.Fatalf("seed %d: pre-threshold leaked a rare pair", seed)
			}
			if pc.Count < tau2-1e-9 {
				t.Fatalf("seed %d: post-threshold leaked count %g < τ₂ = %g", seed, pc.Count, tau2)
			}
		}
		released += len(rel.Pairs)
	}
	if released == 0 {
		t.Error("the popular pair (bounded count 200, one per user) was never released")
	}
}

func TestZealousReleasesPopularPairs(t *testing.T) {
	b := searchlog.NewBuilder()
	for u := range 600 {
		b.Add(fmt.Sprint("h", u), "head", "u", 100)
	}
	l := b.Log()
	rel, err := sanitize(t, l, Options{Mechanism: "zealous", Epsilon: 2, Delta: 0.1, D: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Pairs) != 1 || rel.Pairs[0].Query != "head" {
		t.Errorf("head pair not released: %+v", rel.Pairs)
	}
	if rel.SupportsUserAnalysis() {
		t.Error("ZEALOUS release claims user analysis support")
	}
}

func TestZealousDefaultThresholdsFromDelta(t *testing.T) {
	l := corpus(t)
	// Smaller δ must raise τ₁, suppressing more pairs.
	loose, err := sanitize(t, l, Options{Mechanism: "zealous", Epsilon: 5, Delta: 0.5, D: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := sanitize(t, l, Options{Mechanism: "zealous", Epsilon: 5, Delta: 1e-6, D: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(tight.Pairs) > len(loose.Pairs) {
		t.Errorf("tighter δ released more pairs: %d > %d", len(tight.Pairs), len(loose.Pairs))
	}
}

func TestZealousDeterministic(t *testing.T) {
	l := corpus(t)
	opts := Options{Mechanism: "zealous", Epsilon: 2, Delta: 0.1, Seed: 11}
	a, err := sanitize(t, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sanitize(t, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}
