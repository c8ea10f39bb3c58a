package lp

import (
	"math/rand/v2"
	"testing"
)

// statsProblem builds a dense-enough random LP that survives presolve with
// work left to do, plus a couple of rows presolve is guaranteed to drop.
func statsProblem(seed uint64) *Problem {
	rng := rand.New(rand.NewPCG(seed, seed^0xdead))
	p := NewProblem(Maximize)
	const n, m = 40, 30
	for j := 0; j < n; j++ {
		p.AddVariable(1+rng.Float64(), 0, 10)
	}
	for i := 0; i < m; i++ {
		r := p.AddConstraint(LE, 5+10*rng.Float64())
		for k := 0; k < 6; k++ {
			p.SetCoef(r, rng.IntN(n), 0.1+rng.Float64())
		}
	}
	// A singleton row (becomes a bound, dropped) and a redundant row.
	rs := p.AddConstraint(LE, 3)
	p.SetCoef(rs, 0, 1)
	rr := p.AddConstraint(LE, 1e6)
	p.SetCoef(rr, 1, 1)
	return p
}

func TestSolveStatsColdAndWarm(t *testing.T) {
	cold, err := Solve(statsProblem(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Fatalf("status %v", cold.Status)
	}
	st := cold.Stats
	if st.Refactorizations < 1 {
		t.Errorf("refactorizations = %d, want >= 1", st.Refactorizations)
	}
	if st.PresolveRows < 2 {
		t.Errorf("presolve rows = %d, want >= 2 (singleton + redundant)", st.PresolveRows)
	}
	if st.PresolveCols < 0 {
		t.Errorf("negative presolve cols %d", st.PresolveCols)
	}
	if st.WarmAttempted || st.WarmAccepted {
		t.Errorf("cold solve reported warm flags %+v", st)
	}
	if cold.Iterations > 0 && st.EtaLength < 1 {
		t.Errorf("%d iterations but eta peak %d", cold.Iterations, st.EtaLength)
	}

	warm, err := Solve(statsProblem(7), Options{WarmStart: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !approx(warm.Objective, cold.Objective, testTol) {
		t.Fatalf("warm resolve diverged: %v %g vs %g", warm.Status, warm.Objective, cold.Objective)
	}
	if !warm.Stats.WarmAttempted || !warm.Stats.WarmAccepted {
		t.Errorf("warm solve flags %+v, want attempted and accepted", warm.Stats)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start took more iterations (%d) than cold (%d)", warm.Iterations, cold.Iterations)
	}
	if warm.Stats.Refactorizations < 1 {
		t.Errorf("warm refactorizations = %d", warm.Stats.Refactorizations)
	}
}

func TestSolveStatsWarmFallback(t *testing.T) {
	cold, err := Solve(statsProblem(11), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A basis of the wrong shape must be rejected, not installed.
	bad := &Basis{Vars: []int8{BasisBasic}, Rows: []int8{BasisBasic}}
	sol, err := Solve(statsProblem(11), Options{WarmStart: bad})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, cold.Objective, testTol) {
		t.Fatalf("fallback solve diverged: %v %g vs %g", sol.Status, sol.Objective, cold.Objective)
	}
	if !sol.Stats.WarmAttempted || sol.Stats.WarmAccepted {
		t.Errorf("stats %+v, want attempted without accepted", sol.Stats)
	}
}

func TestSolveStatsNoPresolve(t *testing.T) {
	sol, err := Solve(statsProblem(3), Options{NoPresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Stats.PresolveRows != 0 || sol.Stats.PresolveCols != 0 {
		t.Errorf("NoPresolve reported eliminations: %+v", sol.Stats)
	}
	if sol.Stats.Refactorizations < 1 {
		t.Errorf("refactorizations = %d", sol.Stats.Refactorizations)
	}
}
