package mechanism

import (
	"context"
	"math"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
)

func corpus(t testing.TB) *searchlog.Log {
	t.Helper()
	_, pre, _, err := gen.GeneratePreprocessed(gen.Tiny(), 11)
	if err != nil {
		t.Fatal(err)
	}
	return pre
}

// sanitize runs the named mechanism through the registry, as every caller
// outside this package does.
func sanitize(t testing.TB, l *searchlog.Log, opts Options) (*Release, error) {
	t.Helper()
	m, err := Get(opts.Mechanism)
	if err != nil {
		t.Fatal(err)
	}
	return m.Sanitize(context.Background(), l, opts)
}

// laplaceDeltaFor returns the δ̂ at which laplace's derived threshold
// τ = (2D/ε)·ln(1/(2δ̂)) equals tau.
func laplaceDeltaFor(tau, eps float64, d int) float64 {
	return math.Exp(-tau*eps/(2*float64(d))) / 2
}

func TestSanitizeValidates(t *testing.T) {
	l := corpus(t)
	bad := []Options{
		{Epsilon: 0, Delta: 1e-3},
		{Epsilon: 1, Delta: 1e-3, D: -1},
		{Epsilon: 1, Delta: 0},
		{Epsilon: 1, Delta: 0.5},
	}
	for i, o := range bad {
		o.Mechanism = "laplace"
		if _, err := sanitize(t, l, o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestReleaseHasNoUserIDs(t *testing.T) {
	l := corpus(t)
	rel, err := sanitize(t, l, Options{Mechanism: "laplace", Epsilon: 2, D: 5, Delta: laplaceDeltaFor(1, 2, 5), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rel.SupportsUserAnalysis() {
		t.Error("laplace release claims user analysis support")
	}
	if rel.Output != nil {
		t.Error("laplace release carries an output log")
	}
	for _, pc := range rel.Pairs {
		if pc.Query == "" || pc.URL == "" {
			t.Errorf("malformed release row %+v", pc)
		}
		if pc.Count < 1-1e-9 {
			t.Errorf("released count %g below threshold 1", pc.Count)
		}
	}
}

func TestThresholdFilters(t *testing.T) {
	l := corpus(t)
	// τ = 0.5 is permissive; δ̂ = 10⁻³⁰⁰ puts τ near 1700, far above any
	// bounded count on the tiny corpus.
	low, err := sanitize(t, l, Options{Mechanism: "laplace", Epsilon: 4, D: 5, Delta: laplaceDeltaFor(0.5, 4, 5), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	high, err := sanitize(t, l, Options{Mechanism: "laplace", Epsilon: 4, D: 5, Delta: 1e-300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(high.Pairs) != 0 {
		t.Errorf("absurd threshold released %d pairs", len(high.Pairs))
	}
	if len(low.Pairs) == 0 {
		t.Error("permissive threshold released nothing")
	}
}

func TestActivityBounding(t *testing.T) {
	// One hyperactive user with 30 pairs; D = 3 must truncate them and cap
	// any pair's aggregate contribution from that user.
	b := searchlog.NewBuilder()
	for i := 0; i < 30; i++ {
		q := string(rune('a' + i%26))
		u := string(rune('0' + i/26))
		b.Add("hyper", q+u, "url", 2)
		b.Add("other", q+u, "url", 1)
	}
	l := b.Log()
	rel, err := sanitize(t, l, Options{Mechanism: "laplace", Epsilon: 1000, D: 3, Delta: laplaceDeltaFor(0.1, 1000, 3), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rel.BoundedUsers != 2 { // both users hold 30 pairs
		t.Errorf("BoundedUsers = %d, want 2", rel.BoundedUsers)
	}
	// With ε huge the noise is negligible: at most 2·3 pairs can carry any
	// bounded mass, the rest must have been thresholded away.
	if len(rel.Pairs) > 6 {
		t.Errorf("released %d pairs despite D = 3 per user", len(rel.Pairs))
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	l := corpus(t)
	opts := Options{Mechanism: "laplace", Epsilon: 2, D: 10, Delta: 1e-3, Seed: 7}
	a, err := sanitize(t, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sanitize(t, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("different release sizes %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("row %d differs across identical runs", i)
		}
	}
}

func TestRecallGrowsWithEpsilon(t *testing.T) {
	l := corpus(t)
	s := 4.0 / float64(l.Size())
	var prev float64 = -1
	grew := false
	for _, eps := range []float64{0.2, 1, 5, 25} {
		rel, err := sanitize(t, l, Options{Mechanism: "laplace", Epsilon: eps, D: 10, Delta: 1e-3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		rec := rel.FrequentRecall(l, s)
		if rec < 0 || rec > 1 {
			t.Fatalf("recall %g out of range", rec)
		}
		if rec > prev {
			grew = true
		}
		prev = rec
	}
	if !grew {
		t.Error("recall never improved as ε grew by two orders of magnitude")
	}
}

func TestFrequentRecallEdge(t *testing.T) {
	l := corpus(t)
	empty := &Release{}
	if got := empty.FrequentRecall(l, 0.99); got != 1 {
		t.Errorf("no frequent pairs: recall = %g, want 1 (vacuous)", got)
	}
	if got := empty.FrequentRecall(l, 1e-9); got != 0 {
		t.Errorf("empty release with frequent pairs: recall = %g, want 0", got)
	}
}
