package dp

import (
	"errors"
	"math"
	"testing"

	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
)

func sharedLog(t testing.TB) *searchlog.Log {
	t.Helper()
	b := searchlog.NewBuilder()
	b.Add("081", "google", "google.com", 15)
	b.Add("082", "google", "google.com", 7)
	b.Add("083", "google", "google.com", 17)
	b.Add("082", "car price", "kbb.com", 2)
	b.Add("083", "car price", "kbb.com", 5)
	b.Add("081", "book", "amazon.com", 3)
	b.Add("083", "book", "amazon.com", 1)
	return b.Log()
}

func TestParamsValidate(t *testing.T) {
	good := Params{Eps: 0.5, Delta: 0.1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	for _, p := range []Params{
		{Eps: 0, Delta: 0.1},
		{Eps: -1, Delta: 0.1},
		{Eps: math.Inf(1), Delta: 0.1},
		{Eps: math.NaN(), Delta: 0.1},
		{Eps: 1, Delta: 0},
		{Eps: 1, Delta: 1},
		{Eps: 1, Delta: -0.5},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestFromEExp(t *testing.T) {
	p := FromEExp(2.0, 0.5)
	if math.Abs(p.Eps-math.Log(2)) > 1e-12 {
		t.Errorf("Eps = %g, want ln 2", p.Eps)
	}
}

func TestBudget(t *testing.T) {
	// Budget = min(ε, ln 1/(1−δ)).
	p := Params{Eps: math.Log(2), Delta: 0.1}
	want := math.Log(1 / 0.9) // ≈0.105 < ln2≈0.693
	if got := p.Budget(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Budget = %g, want %g", got, want)
	}
	p = Params{Eps: 0.01, Delta: 0.5}
	if got := p.Budget(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("Budget = %g, want 0.01 (ε side)", got)
	}
}

func TestCoef(t *testing.T) {
	if got := Coef(10, 0); got != 0 {
		t.Errorf("Coef(10,0) = %g, want 0", got)
	}
	want := math.Log(10.0 / 7.0)
	if got := Coef(10, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("Coef(10,3) = %g, want %g", got, want)
	}
	if got := Coef(10, 10); !math.IsInf(got, 1) {
		t.Errorf("Coef(10,10) = %g, want +Inf", got)
	}
}

func TestBuildConstraints(t *testing.T) {
	l := sharedLog(t)
	p := Params{Eps: math.Log(2), Delta: 0.5}
	c, err := Build(l, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(c.Rows) != l.NumUsers() {
		t.Fatalf("rows = %d, want %d", len(c.Rows), l.NumUsers())
	}
	if c.NumPairs != l.NumPairs() {
		t.Fatalf("NumPairs = %d, want %d", c.NumPairs, l.NumPairs())
	}
	// User 081 holds google (15/39) and book (3/4):
	// coefs ln(39/24), ln(4/1).
	k := l.UserIndex("081")
	row := c.Rows[k]
	if len(row.Terms) != 2 {
		t.Fatalf("user 081 terms = %d, want 2", len(row.Terms))
	}
	byPair := map[int]float64{}
	for _, term := range row.Terms {
		byPair[term.Pair] = term.Coef
	}
	gi := l.PairIndex(searchlog.PairKey{Query: "google", URL: "google.com"})
	bi := l.PairIndex(searchlog.PairKey{Query: "book", URL: "amazon.com"})
	if math.Abs(byPair[gi]-math.Log(39.0/24.0)) > 1e-12 {
		t.Errorf("google coef = %g, want ln(39/24)", byPair[gi])
	}
	if math.Abs(byPair[bi]-math.Log(4.0)) > 1e-12 {
		t.Errorf("book coef = %g, want ln 4", byPair[bi])
	}
}

func TestBuildRejectsUnpreprocessed(t *testing.T) {
	b := searchlog.NewBuilder()
	b.Add("a", "solo", "u", 2)
	b.Add("a", "shared", "u", 1)
	b.Add("b", "shared", "u", 1)
	if _, err := Build(b.Log(), Params{Eps: 1, Delta: 0.1}); !errors.Is(err, ErrNotPreprocessed) {
		t.Errorf("Build on unpreprocessed log: err = %v, want ErrNotPreprocessed", err)
	}
}

func TestVerifyAndLHS(t *testing.T) {
	l := sharedLog(t)
	p := Params{Eps: math.Log(2), Delta: 0.5}
	c, err := Build(l, p)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]int, l.NumPairs())
	if v := c.Verify(zero); len(v) != 0 {
		t.Errorf("all-zero plan flagged: %v", v)
	}
	huge := make([]int, l.NumPairs())
	for i := range huge {
		huge[i] = 1000
	}
	v := c.Verify(huge)
	if len(v) != l.NumUsers() {
		t.Errorf("huge plan: %d violations, want %d", len(v), l.NumUsers())
	}
	if len(v) > 0 {
		if v[0].Error() == "" {
			t.Error("Violation.Error empty")
		}
		if lhs := c.LHS(v[0].User, huge); math.Abs(lhs-v[0].LHS) > 1e-12 {
			t.Errorf("LHS mismatch: %g vs %g", lhs, v[0].LHS)
		}
	}
}

func TestWalkBuiltPlansVerify(t *testing.T) {
	pre, _ := searchlog.Preprocess(sharedLog(t))
	for _, eExp := range []float64{1.01, 1.5, 2, 10} {
		for _, tol := range []float64{FillTol, AuditTol} {
			c, err := Build(pre, FromEExp(eExp, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			// Fill unit by unit, round-robin over the pairs, until no pair
			// can take another unit.
			counts := make([]int, c.NumPairs)
			w := c.NewWalk(nil, tol)
			for progressed := true; progressed; {
				progressed = false
				for i := range counts {
					if w.Add(i) {
						counts[i]++
						progressed = true
					}
				}
			}
			if v := c.Verify(counts); len(v) != 0 {
				t.Errorf("e^ε=%g tol=%g: walk-built plan %v violates %v", eExp, tol, counts, v)
			}
			if counts[0]+counts[1]+counts[2] == 0 && eExp >= 2 {
				t.Errorf("e^ε=%g: walk took nothing", eExp)
			}
		}
	}
}

func TestVerifyLog(t *testing.T) {
	l := sharedLog(t)
	p := Params{Eps: math.Log(2), Delta: 0.5}
	zero := make([]int, l.NumPairs())
	if err := VerifyLog(l, p, zero); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
	if err := VerifyLog(l, p, make([]int, 1)); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := make([]int, l.NumPairs())
	bad[0] = -1
	if err := VerifyLog(l, p, bad); err == nil {
		t.Error("negative count accepted")
	}
	huge := make([]int, l.NumPairs())
	for i := range huge {
		huge[i] = 1000
	}
	var viol Violation
	if err := VerifyLog(l, p, huge); !errors.As(err, &viol) {
		t.Errorf("huge plan err = %v, want Violation", err)
	}
}

func TestVerifyLogUniquePair(t *testing.T) {
	b := searchlog.NewBuilder()
	b.Add("a", "solo", "u", 2)
	b.Add("a", "shared", "u", 1)
	b.Add("b", "shared", "u", 1)
	l := b.Log()
	p := Params{Eps: 1, Delta: 0.5}
	counts := make([]int, l.NumPairs())
	si := l.PairIndex(searchlog.PairKey{Query: "solo", URL: "u"})
	counts[si] = 1
	if err := VerifyLog(l, p, counts); err == nil {
		t.Error("positive count on unique pair accepted")
	}
	counts[si] = 0
	if err := VerifyLog(l, p, counts); err != nil {
		t.Errorf("zeroed unique pair rejected: %v", err)
	}
}

func TestBreachProbabilityAndRatioFormulas(t *testing.T) {
	l := sharedLog(t)
	counts := make([]int, l.NumPairs())
	gi := l.PairIndex(searchlog.PairKey{Query: "google", URL: "google.com"})
	counts[gi] = 3
	k := l.UserIndex("082")
	// 082 holds google with 7/39 and car price 2/7 (count 0 planned).
	// Pr[breach] = 1 − (32/39)^3.
	want := 1 - math.Pow(32.0/39.0, 3)
	if got := BreachProbability(l, k, counts); math.Abs(got-want) > 1e-12 {
		t.Errorf("BreachProbability = %g, want %g", got, want)
	}
	wantR := math.Pow(39.0/32.0, 3)
	if got := WorstCaseRatio(l, k, counts); math.Abs(got-wantR) > 1e-9 {
		t.Errorf("WorstCaseRatio = %g, want %g", got, wantR)
	}
}

// TestVerifiedPlanBoundsHold: any plan passing Verify has, for every user,
// breach probability ≤ δ and worst-case ratio ≤ e^ε. This is Theorem 1
// restated over the closed forms.
func TestVerifiedPlanBoundsHold(t *testing.T) {
	l := sharedLog(t)
	p := Params{Eps: math.Log(1.7), Delta: 0.2}
	c, err := Build(l, p)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(11)
	accepted := 0
	for trial := 0; trial < 400; trial++ {
		counts := make([]int, l.NumPairs())
		for i := range counts {
			counts[i] = g.IntN(4)
		}
		if len(c.Verify(counts)) > 0 {
			continue
		}
		accepted++
		for k := 0; k < l.NumUsers(); k++ {
			if bp := BreachProbability(l, k, counts); bp > p.Delta+1e-9 {
				t.Fatalf("verified plan %v breaches user %d: %g > δ", counts, k, bp)
			}
			if wr := WorstCaseRatio(l, k, counts); wr > math.Exp(p.Eps)*(1+1e-9) {
				t.Fatalf("verified plan %v ratio user %d: %g > e^ε", counts, k, wr)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no random plan passed Verify; test vacuous")
	}
}

func TestExactCheckTinyLog(t *testing.T) {
	// Two pairs, two users each; tiny counts keep enumeration cheap.
	b := searchlog.NewBuilder()
	b.Add("a", "q1", "u1", 3)
	b.Add("b", "q1", "u1", 2)
	b.Add("a", "q2", "u2", 1)
	b.Add("c", "q2", "u2", 4)
	l := b.Log()

	// Pick (ε, δ) large enough to accommodate a plan of {1, 1}: the binding
	// user is c with coefficient ln(5/1) ≈ 1.609 and breach probability
	// 1 − 1/5 = 0.8, so budget must be ≥ 1.609 and δ ≥ 0.8.
	p := Params{Eps: 1.7, Delta: 0.82}
	counts := []int{1, 1}
	if err := VerifyLog(l, p, counts); err != nil {
		t.Fatalf("plan should verify: %v", err)
	}
	if err := ExactCheck(l, p, counts); err != nil {
		t.Errorf("ExactCheck failed on verified plan: %v", err)
	}

	// Tighten δ below the actual breach probability: exact check must fail.
	tight := Params{Eps: 1.7, Delta: 0.05}
	if err := ExactCheck(l, tight, counts); err == nil {
		t.Error("ExactCheck passed although Pr[Ω₁] > δ")
	}

	// Tighten ε below the actual worst ratio: exact check must fail.
	tightEps := Params{Eps: 0.3, Delta: 0.82}
	if err := ExactCheck(l, tightEps, counts); err == nil {
		t.Error("ExactCheck passed although ratio > e^ε")
	}
}

func TestExactCheckMatchesVerifier(t *testing.T) {
	// Any plan that passes the linear verifier must pass the exact check:
	// the linear constraints are exactly Theorem 1's conditions.
	b := searchlog.NewBuilder()
	b.Add("a", "q1", "u1", 2)
	b.Add("b", "q1", "u1", 3)
	b.Add("b", "q2", "u2", 2)
	b.Add("c", "q2", "u2", 2)
	l := b.Log()
	p := Params{Eps: 2.0, Delta: 0.9}
	c, err := Build(l, p)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(5)
	checked := 0
	for trial := 0; trial < 50 && checked < 8; trial++ {
		counts := []int{g.IntN(3), g.IntN(3)}
		if len(c.Verify(counts)) > 0 {
			continue
		}
		checked++
		if err := ExactCheck(l, p, counts); err != nil {
			t.Fatalf("verified plan %v fails exact check: %v", counts, err)
		}
	}
	if checked == 0 {
		t.Fatal("no plans checked")
	}
}

func TestExactCheckRejectsUnpreprocessed(t *testing.T) {
	b := searchlog.NewBuilder()
	b.Add("a", "solo", "u", 2)
	b.Add("a", "shared", "u", 1)
	b.Add("b", "shared", "u", 1)
	if err := ExactCheck(b.Log(), Params{Eps: 1, Delta: 0.5}, []int{0, 0}); !errors.Is(err, ErrNotPreprocessed) {
		t.Errorf("err = %v, want ErrNotPreprocessed", err)
	}
}
