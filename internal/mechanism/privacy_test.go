package mechanism

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
)

// boundedL1 is the L1 distance between the bounded counts of two logs,
// merged by pair key (boundedCounts sorts by key) because the two logs'
// pair indices differ.
func boundedL1(a, b []boundedPair) int {
	d := 0
	for len(a) > 0 && len(b) > 0 {
		switch c := cmp.Or(strings.Compare(a[0].key.Query, b[0].key.Query), strings.Compare(a[0].key.URL, b[0].key.URL)); {
		case c < 0:
			d += a[0].count
			a = a[1:]
		case c > 0:
			d += b[0].count
			b = b[1:]
		default:
			d += max(a[0].count-b[0].count, b[0].count-a[0].count)
			a, b = a[1:], b[1:]
		}
	}
	for _, bp := range a {
		d += bp.count
	}
	for _, bp := range b {
		d += bp.count
	}
	return d
}

// TestBoundedCountSensitivity checks exactly the sensitivity laplace's and
// zealous's noise assumes: both release through boundedCounts with
// Lap(2D/ε), which covers a count vector that moves by at most D in L1
// between a log D and its neighbour D − A_k (the paper's user-removal
// relation). Every user of tiny and small is removed in turn; on
// paper-sharded, the users with the most clicks and the most pairs, where
// a click-weighted count would be furthest over the bound.
func TestBoundedCountSensitivity(t *testing.T) {
	for _, tc := range []struct {
		profile  string
		heaviest int // users checked per ranking; 0 checks every user
	}{{"tiny", 0}, {"small", 0}, {"paper-sharded", 10}} {
		p, err := gen.Profiles(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := gen.Generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		users := make([]int, raw.NumUsers())
		for k := range users {
			users[k] = k
		}
		if tc.heaviest > 0 {
			byClicks := slices.Clone(users)
			slices.SortFunc(byClicks, func(a, b int) int { return raw.User(b).Total - raw.User(a).Total })
			byPairs := slices.Clone(users)
			slices.SortFunc(byPairs, func(a, b int) int { return len(raw.User(b).Pairs) - len(raw.User(a).Pairs) })
			users = append(byClicks[:tc.heaviest], byPairs[:tc.heaviest]...)
		}
		bounds := []int{5, 20}
		full := make([][]boundedPair, len(bounds))
		for i, d := range bounds {
			full[i], _ = boundedCounts(raw, d)
		}
		// Building a neighbour dominates, so the users fan out over the
		// cores.
		var next atomic.Int64
		var wg sync.WaitGroup
		for range runtime.GOMAXPROCS(0) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(users); i = int(next.Add(1) - 1) {
					nb := raw.WithoutUser(users[i])
					for j, d := range bounds {
						bounded, _ := boundedCounts(nb, d)
						if got := boundedL1(full[j], bounded); got > d {
							t.Errorf("%s: removing user %s moves the bounded counts by %d in L1 at D = %d", tc.profile, raw.User(users[i]).ID, got, d)
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestLaplaceUniquePairNeighbour is a statistical audit of laplace's
// declared (ε, δ̂) on one distinguishing event. A planted user holds one
// pair nobody else has, with 51 clicks; the event is "that pair is
// released". Over fixed seeds, the 99% Clopper–Pearson lower bound of its
// probability on D must not exceed e^ε times the upper bound on D − A_u
// plus δ̂. With one user per pair the expected rate on D is
// ½·exp(−(τ − 1)/b) ≈ 0.00107 at b = 2D/ε and τ = b·ln(1/(2δ̂)).
func TestLaplaceUniquePairNeighbour(t *testing.T) {
	raw, err := gen.Generate(gen.Tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	withU, err := searchlog.FromRecords(append(raw.Records(),
		searchlog.Record{User: "planted", Query: "planted query", URL: "http://planted.example/", Count: 51}))
	if err != nil {
		t.Fatal(err)
	}
	withoutU := withU.WithoutUser(withU.UserIndex("planted"))

	const runs, confidence = 2000, 0.99
	eps, delta := math.Ln2, 1e-3
	released := func(l *searchlog.Log) int {
		n := 0
		for seed := uint64(1); seed <= runs; seed++ {
			rel, err := laplaceMechanism.Sanitize(context.Background(), l, Options{Epsilon: eps, Delta: delta, D: 5, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, pc := range rel.Pairs {
				if pc.Query == "planted query" {
					n++
				}
			}
		}
		return n
	}
	kD, kN := released(withU), released(withoutU)
	t.Logf("pair released in %d/%d runs on D and %d/%d on D − A_u", kD, runs, kN, runs)
	lo, _ := clopperPearson(kD, runs, confidence)
	_, hi := clopperPearson(kN, runs, confidence)
	if lo > math.Exp(eps)*hi+delta {
		t.Errorf("pair released in %d/%d runs on D and %d/%d on D − A_u: lower bound %.5f > e^ε·%.5f + δ̂", kD, runs, kN, runs, lo, hi)
	}
}

// clopperPearson returns the one-sided Clopper–Pearson bounds on a
// binomial proportion after k successes in n trials: lo is the largest p
// with P[X ≥ k | p] ≤ 1 − confidence, hi the smallest p with
// P[X ≤ k | p] ≤ 1 − confidence.
func clopperPearson(k, n int, confidence float64) (lo, hi float64) {
	alpha := 1 - confidence
	lo, hi = 0, 1
	if k > 0 {
		lo = bisect(func(p float64) bool { return 1-binomCDF(k-1, n, p) <= alpha })
	}
	if k < n {
		hi = bisect(func(p float64) bool { return binomCDF(k, n, p) > alpha })
	}
	return lo, hi
}

// bisect returns the boundary in [0, 1] where below turns from true to
// false, assuming it does so once.
func bisect(below func(p float64) bool) float64 {
	a, b := 0.0, 1.0
	for range 100 {
		if m := (a + b) / 2; below(m) {
			a = m
		} else {
			b = m
		}
	}
	return a
}

// binomCDF is P[X ≤ k] for X ~ Binomial(n, p), summed in log space.
func binomCDF(k, n int, p float64) float64 {
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		if k >= n {
			return 1
		}
		return 0
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	s := 0.0
	for i := 0; i <= k; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgR, _ := math.Lgamma(float64(n - i + 1))
		s += math.Exp(lgN - lgI - lgR + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return s
}
