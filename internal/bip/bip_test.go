package bip

import (
	"math"
	"sync"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/rng"
)

// system builds a constraint system over n pairs with one user row per
// term list, every row under the same budget.
func system(n int, budget float64, rows ...[]dp.Term) *dp.Constraints {
	rs := make([]dp.Row, len(rows))
	for k, terms := range rows {
		rs[k] = dp.Row{User: k, Terms: terms}
	}
	c, err := dp.NewConstraints(n, budget, rs)
	if err != nil {
		panic(err)
	}
	return c
}

// smallProblem builds a 6-column, 3-row packing BIP with a known optimum.
func smallProblem() *dp.Constraints {
	return system(6, 1.0,
		[]dp.Term{{Pair: 0, Coef: 0.9}, {Pair: 1, Coef: 0.2}, {Pair: 2, Coef: 0.3}},
		[]dp.Term{{Pair: 2, Coef: 0.4}, {Pair: 3, Coef: 0.5}, {Pair: 4, Coef: 0.1}},
		[]dp.Term{{Pair: 0, Coef: 0.2}, {Pair: 4, Coef: 0.2}, {Pair: 5, Coef: 0.6}},
	)
}

// randomProblem generates a random packing BIP in the D-UMP coefficient
// regime (ln t_ijk with modest counts). density is the probability that a
// column participates in a row; real search logs are very sparse (a pair is
// held by a handful of users).
func randomProblem(g *rng.RNG, nCols, nRows int, budget, density float64) *dp.Constraints {
	rows := make([][]dp.Term, nRows)
	for i := 0; i < nRows; i++ {
		for j := 0; j < nCols; j++ {
			if g.Float64() < density {
				// ln(c/(c-k)) for c in 2..20, k in 1..c-1.
				c := 2 + g.IntN(19)
				k := 1 + g.IntN(c-1)
				rows[i] = append(rows[i], dp.Term{Pair: j, Coef: math.Log(float64(c) / float64(c-k))})
			}
		}
	}
	return system(nCols, budget, rows...)
}

func TestValidate(t *testing.T) {
	if err := smallProblem().Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		budget float64
		terms  []dp.Term
	}{
		{"out-of-range column", 1, []dp.Term{{Pair: 5, Coef: 1}}},
		{"negative coefficient", 1, []dp.Term{{Pair: 0, Coef: -1}}},
		{"infinite coefficient", 1, []dp.Term{{Pair: 0, Coef: math.Inf(1)}}},
		{"zero budget", 0, []dp.Term{{Pair: 0, Coef: 1}}},
		{"infinite budget", math.Inf(1), []dp.Term{{Pair: 0, Coef: 1}}},
	} {
		if _, err := dp.NewConstraints(2, tc.budget, []dp.Row{{Terms: tc.terms}}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// Every solver refuses a system that fails Validate.
	bad := smallProblem().WithBudget(0)
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(bad); err == nil {
			t.Errorf("%s solved a zero-budget system", name)
		}
	}
}

func TestFeasibleAndObjective(t *testing.T) {
	p := smallProblem()
	all := []bool{true, true, true, true, true, true}
	if feasible(p, all) {
		t.Error("selecting everything should violate row 0 (0.9+0.2+0.3)")
	}
	none := make([]bool, 6)
	if !feasible(p, none) {
		t.Error("empty selection infeasible")
	}
	if Objective(all) != 6 || Objective(none) != 0 {
		t.Error("Objective miscounts")
	}
}

func TestExhaustiveOracle(t *testing.T) {
	p := smallProblem()
	sol, err := Exhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible(p, sol.Y) {
		t.Fatal("exhaustive returned infeasible selection")
	}
	// Dropping column 0 (0.9) leaves rows: {0.2,0.3}=0.5, {0.4,0.5,0.1}=1.0,
	// {0.2,0.6}=0.8 — all feasible with 5 columns. 6 is infeasible.
	if sol.Objective != 5 {
		t.Errorf("optimum = %d, want 5", sol.Objective)
	}
	big := system(23, 1.0)
	if _, err := Exhaustive(big); err == nil {
		t.Error("exhaustive accepted 23 columns")
	}
}

func TestAllSolversFeasibleAndReasonable(t *testing.T) {
	g := rng.New(100)
	for trial := 0; trial < 25; trial++ {
		p := randomProblem(g, 4+g.IntN(10), 2+g.IntN(5), 0.3+g.Float64(), 0.4)
		opt, err := Exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Names() {
			s, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := s.Solve(p)
			if err != nil {
				t.Fatalf("trial %d solver %s: %v", trial, name, err)
			}
			if !feasible(p, sol.Y) {
				t.Fatalf("trial %d solver %s returned infeasible selection", trial, name)
			}
			if sol.Objective != Objective(sol.Y) {
				t.Fatalf("trial %d solver %s objective mismatch", trial, name)
			}
			if sol.Objective > opt.Objective {
				t.Fatalf("trial %d solver %s beat the exhaustive optimum: %d > %d",
					trial, name, sol.Objective, opt.Objective)
			}
		}
	}
}

func TestBranchBoundExactOnSmallInstances(t *testing.T) {
	g := rng.New(200)
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(g, 4+g.IntN(9), 2+g.IntN(4), 0.4+g.Float64(), 0.4)
		opt, err := Exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := BranchBound{NodeLimit: 100000}.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Optimal {
			t.Fatalf("trial %d: node budget exhausted on a small instance", trial)
		}
		if sol.Objective != opt.Objective {
			t.Fatalf("trial %d: branch&bound %d != optimum %d", trial, sol.Objective, opt.Objective)
		}
	}
}

func TestSPEMatchesPaperBehaviour(t *testing.T) {
	// SPE must remove the pair with the global maximum coefficient first.
	p := system(3, 0.5,
		[]dp.Term{{Pair: 0, Coef: 2.0}, {Pair: 1, Coef: 0.1}},
		[]dp.Term{{Pair: 1, Coef: 0.1}, {Pair: 2, Coef: 0.3}},
	)
	sol, err := SPE{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Y[0] {
		t.Error("SPE kept the most sensitive column 0 (coef 2.0)")
	}
	if !sol.Y[1] || !sol.Y[2] {
		t.Errorf("SPE dropped more than necessary: %v", sol.Y)
	}
	if sol.Objective != 2 {
		t.Errorf("objective = %d, want 2", sol.Objective)
	}
}

func TestSPENoRemovalsWhenFeasible(t *testing.T) {
	p := system(2, 1.0, []dp.Term{{Pair: 0, Coef: 0.1}, {Pair: 1, Coef: 0.1}})
	for _, s := range []Solver{SPE{}, SPEViolated{}} {
		sol, err := s.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Objective != 2 {
			t.Errorf("%s: objective = %d, want 2 (no eliminations needed)", s.Name(), sol.Objective)
		}
	}
}

func TestSPEViolatedAtLeastAsSelective(t *testing.T) {
	// On an instance where one row is violated and another is slack, the
	// violated-row variant must not touch columns confined to the slack row.
	p := system(3, 1.0,
		[]dp.Term{{Pair: 0, Coef: 1.0}, {Pair: 1, Coef: 0.9}}, // violated (1.9 > 1)
		[]dp.Term{{Pair: 2, Coef: 0.95}},                      // satisfied alone
	)
	sol, err := SPEViolated{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Y[2] {
		t.Error("spe-violated dropped a column from a satisfied row")
	}
	if !feasible(p, sol.Y) {
		t.Error("infeasible result")
	}
}

func TestGreedyOrdersBySensitivity(t *testing.T) {
	// Budget admits only one column; greedy must take the least sensitive.
	p := system(2, 0.5, []dp.Term{{Pair: 0, Coef: 0.8}, {Pair: 1, Coef: 0.3}})
	sol, err := Greedy{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Y[0] || !sol.Y[1] {
		t.Errorf("greedy picked %v, want column 1 only", sol.Y)
	}
}

func TestRoundingFeasibleOnFractionalLP(t *testing.T) {
	// The LP relaxation of this instance is fractional (classic knapsack
	// structure); rounding must still return a feasible integral point.
	p := system(3, 1.0, []dp.Term{{Pair: 0, Coef: 0.7}, {Pair: 1, Coef: 0.7}, {Pair: 2, Coef: 0.7}})
	sol, err := Rounding{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible(p, sol.Y) {
		t.Fatal("rounding returned infeasible selection")
	}
	if sol.Objective != 1 {
		t.Errorf("objective = %d, want 1", sol.Objective)
	}
}

func TestFeasPumpFindsFeasible(t *testing.T) {
	g := rng.New(300)
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(g, 12, 4, 0.5, 0.4)
		sol, err := FeasPump{}.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !feasible(p, sol.Y) {
			t.Fatalf("trial %d: feaspump infeasible", trial)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Errorf("Names() = %v, want 6 solvers", names)
	}
	for _, n := range names {
		s, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != n {
			t.Errorf("solver registered as %q reports name %q", n, s.Name())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestSolversScaleToMediumInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("medium instance in -short mode")
	}
	g := rng.New(400)
	p := randomProblem(g, 400, 80, 0.6, 0.02)
	results := map[string]int{}
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !feasible(p, sol.Y) {
			t.Fatalf("%s: infeasible on medium instance", name)
		}
		results[name] = sol.Objective
	}
	// All solvers should retain a nontrivial fraction of columns.
	for name, obj := range results {
		if obj <= 0 {
			t.Errorf("%s retained nothing", name)
		}
	}
}

// TestSolversShareConstraints runs every solver concurrently on one shared
// system: the pair-major view is built with the system and never written
// afterwards, so concurrent solves agree with sequential ones.
func TestSolversShareConstraints(t *testing.T) {
	c := randomProblem(rng.New(500), 60, 20, 0.6, 0.1)
	want := map[string]int{}
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve(c)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = sol.Objective
	}
	var wg sync.WaitGroup
	for _, name := range Names() {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := New(name)
				if err != nil {
					t.Error(err)
					return
				}
				sol, err := s.Solve(c)
				if err != nil {
					t.Error(err)
					return
				}
				if sol.Objective != want[name] {
					t.Errorf("%s: concurrent objective %d, sequential %d", name, sol.Objective, want[name])
				}
			}()
		}
	}
	wg.Wait()
}
