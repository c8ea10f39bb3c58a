package dp

import (
	"math"
	"testing"

	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
)

func TestSensitivityDiff(t *testing.T) {
	a := map[searchlog.PairKey]int{{Query: "q1", URL: "u"}: 5, {Query: "q2", URL: "u"}: 3}
	b := map[searchlog.PairKey]int{{Query: "q1", URL: "u"}: 2, {Query: "q3", URL: "u"}: 4}
	if got := SensitivityDiff(a, b); got != 4 {
		t.Errorf("SensitivityDiff = %d, want 4 (missing pair q3)", got)
	}
	if got := SensitivityDiff(a, a); got != 0 {
		t.Errorf("SensitivityDiff(a,a) = %d, want 0", got)
	}
	if got := SensitivityDiff(nil, nil); got != 0 {
		t.Errorf("SensitivityDiff(nil,nil) = %d, want 0", got)
	}
}

// constSolve returns a SolveFunc that maps every pair of the given log to a
// fixed fraction of its count — a stand-in for a real UMP solve whose
// per-pair outputs shift when heavy users leave.
func halfCountSolve(l *searchlog.Log) (map[searchlog.PairKey]int, error) {
	out := make(map[searchlog.PairKey]int, l.NumPairs())
	for i := 0; i < l.NumPairs(); i++ {
		p := l.Pair(i)
		out[p.Key()] = p.Total / 2
	}
	return out, nil
}

func TestBoundSensitivityDropsHeavyUser(t *testing.T) {
	b := searchlog.NewBuilder()
	// "heavy" dominates the google pair: removing them shifts its halved
	// count by 20, far above d.
	b.Add("heavy", "google", "google.com", 40)
	b.Add("x", "google", "google.com", 4)
	b.Add("y", "google", "google.com", 4)
	b.Add("x", "book", "amazon.com", 3)
	b.Add("y", "book", "amazon.com", 3)
	l := b.Log()
	out, dropped, err := BoundSensitivity(l, 2, halfCountSolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) == 0 {
		t.Fatal("heavy user not dropped")
	}
	found := false
	for _, id := range dropped {
		if id == "heavy" {
			found = true
		}
	}
	if !found {
		t.Errorf("dropped = %v, want to include heavy", dropped)
	}
	if out.UserIndex("heavy") != -1 {
		t.Error("heavy user still present in output log")
	}
}

func TestBoundSensitivityKeepsBalancedLog(t *testing.T) {
	b := searchlog.NewBuilder()
	for _, u := range []string{"a", "b", "c", "d"} {
		b.Add(u, "q", "u1", 2)
		b.Add(u, "r", "u2", 2)
	}
	l := b.Log()
	out, dropped, err := BoundSensitivity(l, 2, halfCountSolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 0 {
		t.Errorf("balanced log dropped users %v", dropped)
	}
	if out != l {
		t.Error("unchanged log should be returned as-is")
	}
}

func TestBoundSensitivityRejectsNegativeD(t *testing.T) {
	l := sharedLog(t)
	if _, _, err := BoundSensitivity(l, -1, halfCountSolve); err == nil {
		t.Error("negative d accepted")
	}
}

func TestNoisyCounts(t *testing.T) {
	g := rng.New(3)
	counts := []int{10, 0, 500}
	out, err := NoisyCounts(g, counts, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(counts) {
		t.Fatalf("length %d, want %d", len(out), len(counts))
	}
	for i, v := range out {
		if v < 0 {
			t.Errorf("count %d is negative: %d", i, v)
		}
	}
	// Zero sensitivity means no noise at all.
	exact, err := NoisyCounts(g, counts, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if exact[i] != counts[i] {
			t.Errorf("d=0: count %d perturbed: %d != %d", i, exact[i], counts[i])
		}
	}
	if _, err := NoisyCounts(g, counts, -1, 1); err == nil {
		t.Error("negative d accepted")
	}
	if _, err := NoisyCounts(g, counts, 1, 0); err == nil {
		t.Error("ε′=0 accepted")
	}
}

func TestNoisyCountsDistribution(t *testing.T) {
	// Mean of noisy counts must track the true count; spread must grow with
	// d/ε′.
	g := rng.New(17)
	const trials = 20000
	var sum, sumAbsDev float64
	for i := 0; i < trials; i++ {
		out, err := NoisyCounts(g, []int{100}, 4, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(out[0])
		sumAbsDev += math.Abs(float64(out[0]) - 100)
	}
	mean := sum / trials
	if math.Abs(mean-100) > 0.5 {
		t.Errorf("noisy mean = %g, want ≈100", mean)
	}
	// E|Lap(4)| = 4; rounding perturbs slightly.
	if dev := sumAbsDev / trials; dev < 3 || dev > 5 {
		t.Errorf("mean abs deviation = %g, want ≈4", dev)
	}
}

func TestProjectFeasible(t *testing.T) {
	l := sharedLog(t)
	p := Params{Eps: math.Log(1.4), Delta: 0.1}
	c, err := Build(l, p)
	if err != nil {
		t.Fatal(err)
	}
	// A wildly infeasible plan must be scaled back into the polytope.
	bad := make([]int, l.NumPairs())
	for i := range bad {
		bad[i] = 100
	}
	fixed := ProjectFeasible(c, bad)
	if v := c.Verify(fixed); len(v) != 0 {
		t.Errorf("projection left violations: %v", v)
	}
	// A feasible plan passes through unchanged.
	zero := make([]int, l.NumPairs())
	same := ProjectFeasible(c, zero)
	for i := range same {
		if same[i] != 0 {
			t.Errorf("feasible plan modified at %d", i)
		}
	}
}

func TestProjectFeasibleAlwaysTerminatesFeasible(t *testing.T) {
	l := sharedLog(t)
	p := Params{Eps: 0.001, Delta: 0.0001} // brutally tight budget
	c, err := Build(l, p)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(23)
	for trial := 0; trial < 100; trial++ {
		counts := make([]int, l.NumPairs())
		for i := range counts {
			counts[i] = g.IntN(1000)
		}
		fixed := ProjectFeasible(c, counts)
		if v := c.Verify(fixed); len(v) != 0 {
			t.Fatalf("trial %d: projection infeasible: %v", trial, v)
		}
	}
}
