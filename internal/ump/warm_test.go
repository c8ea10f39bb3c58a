package ump

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/lp"
)

// TestIterLimitErrorCarriesComponentContext regresses the PR 3 diagnosis
// bug: an iteration-limited component must surface which component died and
// after how many iterations, instead of an anonymous hard error killing the
// whole multi-component solve.
func TestIterLimitErrorCarriesComponentContext(t *testing.T) {
	pre := decompCorpus(t, "tiny-sharded", 1)
	_, err := MaxOutputSize(pre, decompParams, Options{
		Parallelism: 1,
		LP:          lp.Options{MaxIterations: 1},
	})
	if err == nil {
		t.Fatal("MaxIterations=1 on a sharded corpus should exhaust the budget")
	}
	msg := err.Error()
	for _, want := range []string{"component", "iteration", "pairs", "users"} {
		if !strings.Contains(msg, want) {
			t.Errorf("IterLimit error %q lacks %q", msg, want)
		}
	}
}

// TestIterLimitErrorMonolithic: the monolithic path reports iterations too.
func TestIterLimitErrorMonolithic(t *testing.T) {
	pre := decompCorpus(t, "tiny", 1)
	_, err := MaxOutputSize(pre, decompParams, Options{
		NoDecompose: true,
		LP:          lp.Options{MaxIterations: 1},
	})
	if err == nil {
		t.Fatal("MaxIterations=1 should exhaust the budget")
	}
	if !strings.Contains(err.Error(), "iteration") {
		t.Errorf("error %q lacks the iteration count", err)
	}
}

// TestWarmStartsReproducePlans: solves through a shared warm pool must
// produce exactly the plans cold solves produce — the pool is a latency
// optimization, never a semantic one.
func TestWarmStartsReproducePlans(t *testing.T) {
	for _, profile := range []string{"tiny", "tiny-sharded"} {
		pre := decompCorpus(t, profile, 2)
		cold, err := MaxOutputSize(pre, decompParams, Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm := NewWarmStarts(true)
		first, err := MaxOutputSize(pre, decompParams, Options{Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Counts, cold.Counts) {
			t.Fatalf("%s: first pooled solve differs from cold solve", profile)
		}
		if warm.Len() == 0 {
			t.Fatalf("%s: pool did not capture any basis", profile)
		}
		// Second solve warm-starts from the first's bases.
		second, err := MaxOutputSize(pre, decompParams, Options{Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(second.Counts, cold.Counts) {
			t.Fatalf("%s: warm-started plan differs from cold plan", profile)
		}
		if second.Iterations > first.Iterations {
			t.Errorf("%s: warm re-solve took %d iterations, first solve %d", profile, second.Iterations, first.Iterations)
		}
	}
}

// TestWarmStartsAcrossBudgets mimics a Table-4 sweep: the same corpus under
// different merged budgets sharing one sticky pool. Every λ must equal its
// cold counterpart.
func TestWarmStartsAcrossBudgets(t *testing.T) {
	pre := decompCorpus(t, "tiny", 3)
	warm := NewWarmStarts(true)
	for _, eExp := range []float64{2.0, 1.1, 1.4, 2.3} {
		p := dp.Params{Eps: math.Log(eExp), Delta: 0.5}
		pooled, err := MaxOutputSize(pre, p, Options{Warm: warm})
		if err != nil {
			t.Fatalf("e^ε=%g pooled: %v", eExp, err)
		}
		cold, err := MaxOutputSize(pre, p, Options{})
		if err != nil {
			t.Fatalf("e^ε=%g cold: %v", eExp, err)
		}
		if pooled.OutputSize != cold.OutputSize {
			t.Errorf("e^ε=%g: pooled λ %d != cold λ %d", eExp, pooled.OutputSize, cold.OutputSize)
		}
		if err := dp.VerifyLog(pre, p, pooled.Counts); err != nil {
			t.Errorf("e^ε=%g: pooled plan fails audit: %v", eExp, err)
		}
	}
}

// TestWarmStartsParallelismInvariance: pooled decomposed solves stay
// invariant in Parallelism (the hard decomposition invariant must survive
// the warm-start wiring — per-component keys cannot race across workers).
func TestWarmStartsParallelismInvariance(t *testing.T) {
	pre := decompCorpus(t, "small-sharded", 1)
	warm1 := NewWarmStarts(true)
	warmN := NewWarmStarts(true)
	for round := 0; round < 2; round++ {
		p1, err := MaxOutputSize(pre, decompParams, Options{Parallelism: 1, Warm: warm1})
		if err != nil {
			t.Fatal(err)
		}
		pN, err := MaxOutputSize(pre, decompParams, Options{Parallelism: 8, Warm: warmN})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p1.Counts, pN.Counts) {
			t.Fatalf("round %d: pooled plans differ between Parallelism 1 and 8", round)
		}
	}
}

// TestWarmStartsStickyVsRolling pins the two pool semantics.
func TestWarmStartsStickyVsRolling(t *testing.T) {
	a := &lp.Basis{Vars: []int8{lp.BasisBasic}, Rows: []int8{lp.BasisAtLower}}
	b := &lp.Basis{Vars: []int8{lp.BasisAtUpper}, Rows: []int8{lp.BasisBasic}}

	sticky := NewWarmStarts(true)
	sticky.store("k", a)
	sticky.store("k", b)
	if got := sticky.lookup("k"); got.Vars[0] != lp.BasisBasic {
		t.Error("sticky pool must keep the first basis")
	}

	rolling := NewWarmStarts(false)
	rolling.store("k", a)
	rolling.store("k", b)
	if got := rolling.lookup("k"); got.Vars[0] != lp.BasisAtUpper {
		t.Error("rolling pool must keep the latest basis")
	}
	if (*WarmStarts)(nil).lookup("k") != nil {
		t.Error("nil pool lookup must be nil")
	}
	if (*WarmStarts)(nil).Len() != 0 {
		t.Error("nil pool Len must be 0")
	}
	// Stored bases are clones: mutating the caller's copy is invisible.
	a.Vars[0] = lp.BasisAtLower
	if sticky.lookup("k").Vars[0] != lp.BasisBasic {
		t.Error("pool must clone stored bases")
	}
}
