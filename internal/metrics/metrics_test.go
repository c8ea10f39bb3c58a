package metrics

import (
	"math"
	"testing"

	"dpslog/internal/searchlog"
)

func buildLog(t testing.TB, recs []searchlog.Record) *searchlog.Log {
	t.Helper()
	l, err := searchlog.FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func fixture(t testing.TB) *searchlog.Log {
	// Size 20: google 10 (sup .5), book 6 (.3), car 4 (.2).
	return buildLog(t, []searchlog.Record{
		{User: "a", Query: "google", URL: "g.com", Count: 6},
		{User: "b", Query: "google", URL: "g.com", Count: 4},
		{User: "a", Query: "book", URL: "a.com", Count: 3},
		{User: "c", Query: "book", URL: "a.com", Count: 3},
		{User: "b", Query: "car", URL: "k.com", Count: 2},
		{User: "c", Query: "car", URL: "k.com", Count: 2},
	})
}

func TestSupport(t *testing.T) {
	if got := Support(5, 20); got != 0.25 {
		t.Errorf("Support(5,20) = %g, want 0.25", got)
	}
	if got := Support(5, 0); got != 0 {
		t.Errorf("Support(5,0) = %g, want 0", got)
	}
}

func TestFrequentPairs(t *testing.T) {
	l := fixture(t)
	fs := FrequentPairs(l, 0.25)
	if len(fs) != 2 {
		t.Fatalf("frequent pairs = %d, want 2 (google, book)", len(fs))
	}
	if sup := fs[searchlog.PairKey{Query: "google", URL: "g.com"}]; sup != 0.5 {
		t.Errorf("google support = %g, want 0.5", sup)
	}
	if _, ok := fs[searchlog.PairKey{Query: "car", URL: "k.com"}]; ok {
		t.Error("car (support .2) wrongly frequent at s=.25")
	}
	if got := len(FrequentPairs(l, 0.9)); got != 0 {
		t.Errorf("frequent at s=.9 = %d, want 0", got)
	}
}

func TestPrecisionRecall(t *testing.T) {
	g := searchlog.PairKey{Query: "google", URL: "g.com"}
	b := searchlog.PairKey{Query: "book", URL: "a.com"}
	c := searchlog.PairKey{Query: "car", URL: "k.com"}
	s0 := FrequentSet{g: .5, b: .3}
	s := FrequentSet{g: .4, c: .3}
	p, r := PrecisionRecall(s0, s)
	if p != 0.5 {
		t.Errorf("precision = %g, want 0.5", p)
	}
	if r != 0.5 {
		t.Errorf("recall = %g, want 0.5", r)
	}
	p, r = PrecisionRecall(s0, FrequentSet{})
	if p != 1 || r != 0 {
		t.Errorf("empty S: precision %g recall %g, want 1, 0", p, r)
	}
	p, r = PrecisionRecall(FrequentSet{}, FrequentSet{})
	if p != 1 || r != 1 {
		t.Errorf("both empty: precision %g recall %g, want 1, 1", p, r)
	}
}

func TestPlanPrecisionRecall(t *testing.T) {
	in := fixture(t) // pairs sorted: book, car, google; frequent at .25: google, book
	// The plan log lacks book and orders its pairs differently from in.
	out := buildLog(t, []searchlog.Record{
		{User: "x", Query: "google", URL: "g.com", Count: 1},
		{User: "x", Query: "car", URL: "k.com", Count: 1},
	})
	// counts over out (car, google): car 3/4, google 1/4 — both output-frequent.
	p, r := PlanPrecisionRecall(in, out, []int{3, 1}, 0.25)
	if p != 0.5 || r != 0.5 {
		t.Errorf("precision %g recall %g, want 0.5, 0.5", p, r)
	}
	// An empty plan emits nothing: precision 1, recall 0.
	if p, r := PlanPrecisionRecall(in, out, []int{0, 0}, 0.25); p != 1 || r != 0 {
		t.Errorf("empty plan: precision %g recall %g, want 1, 0", p, r)
	}
}

func TestSupportDistances(t *testing.T) {
	l := fixture(t)
	// Plan keeps supports identical: x proportional to c with |O| = 10.
	counts := make([]int, l.NumPairs())
	for i := 0; i < l.NumPairs(); i++ {
		counts[i] = l.Pair(i).Total / 2
	}
	sum, avg, freq := SupportDistances(l, counts, 0.25)
	if freq != 2 {
		t.Fatalf("frequent = %d, want 2", freq)
	}
	if sum > 1e-12 || avg > 1e-12 {
		t.Errorf("proportional plan distances sum=%g avg=%g, want 0", sum, avg)
	}
	// Dropping google entirely costs its support 0.5 plus book's shift:
	// |O| = 3+2? Build explicitly: zero google, keep book 3, car 2 → |O|=5.
	counts2 := make([]int, l.NumPairs())
	counts2[l.PairIndex(searchlog.PairKey{Query: "book", URL: "a.com"})] = 3
	counts2[l.PairIndex(searchlog.PairKey{Query: "car", URL: "k.com"})] = 2
	sum2, _, _ := SupportDistances(l, counts2, 0.25)
	// google: |0 − .5| = .5; book: |3/5 − .3| = .3. Sum = 0.8.
	if math.Abs(sum2-0.8) > 1e-12 {
		t.Errorf("sum = %g, want 0.8", sum2)
	}
	// All-zero plan: distance equals the input supports themselves.
	zero := make([]int, l.NumPairs())
	sum3, _, _ := SupportDistances(l, zero, 0.25)
	if math.Abs(sum3-0.8) > 1e-12 {
		t.Errorf("zero-plan sum = %g, want 0.8", sum3)
	}
}

func TestSupportDistancesPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	SupportDistances(fixture(t), []int{1}, 0.1)
}

func TestRetainedDiversity(t *testing.T) {
	l := fixture(t)
	counts := make([]int, l.NumPairs())
	if got := RetainedDiversity(l, counts); got != 0 {
		t.Errorf("empty plan diversity = %g, want 0", got)
	}
	counts[0] = 1
	counts[2] = 5
	if got := RetainedDiversity(l, counts); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("diversity = %g, want 2/3", got)
	}
}

func TestDiffRatio(t *testing.T) {
	// Input share 2/20 = .1, output share 1/10 = .1 → 0.
	if got := DiffRatio(1, 10, 2, 20); got > 1e-12 {
		t.Errorf("DiffRatio = %g, want 0", got)
	}
	// Output share 0 → ratio 1.
	if got := DiffRatio(0, 10, 2, 20); math.Abs(got-1) > 1e-12 {
		t.Errorf("DiffRatio zeroed = %g, want 1", got)
	}
	if got := DiffRatio(1, 10, 0, 20); !math.IsInf(got, 1) {
		t.Errorf("DiffRatio with zero input = %g, want +Inf", got)
	}
}

func TestTripletHistogram(t *testing.T) {
	in := fixture(t)
	// Output halves every count: all triplet shares preserved exactly.
	half := buildLog(t, []searchlog.Record{
		{User: "a", Query: "google", URL: "g.com", Count: 3},
		{User: "b", Query: "google", URL: "g.com", Count: 2},
		{User: "a", Query: "book", URL: "a.com", Count: 1},
		{User: "c", Query: "book", URL: "a.com", Count: 2},
		{User: "b", Query: "car", URL: "k.com", Count: 1},
		{User: "c", Query: "car", URL: "k.com", Count: 1},
	})
	hist := TripletHistogram(in, half, 10, 0, 0)
	total := 0
	for _, h := range hist {
		total += h
	}
	if total != 6 {
		t.Fatalf("histogram mass = %d, want 6 triplets", total)
	}
	// a@google: in .3, out .3 → bin 0. c@book: in .15, out .2 → ratio .333 →
	// bin 3. Verify low bins hold most mass.
	share := HistogramShare(hist)
	if share[3] < 0.99 {
		t.Errorf("share below 40%% = %g, want ~1 for the halved output", share[3])
	}
	// Restricting to frequent pairs (s=0.25) drops car's two triplets.
	histF := TripletHistogram(in, half, 10, 0.25, 0)
	totalF := 0
	for _, h := range histF {
		totalF += h
	}
	if totalF != 4 {
		t.Errorf("frequent-only histogram mass = %d, want 4", totalF)
	}
}

func TestTripletHistogramMissingPairAndUser(t *testing.T) {
	in := fixture(t)
	// Output drops the car pair and user c entirely.
	out := buildLog(t, []searchlog.Record{
		{User: "a", Query: "google", URL: "g.com", Count: 5},
		{User: "b", Query: "google", URL: "g.com", Count: 5},
		{User: "a", Query: "book", URL: "a.com", Count: 2},
	})
	hist := TripletHistogram(in, out, 10, 0, 0)
	total := 0
	for _, h := range hist {
		total += h
	}
	// car's 2 triplets skipped (pair absent); google a,b and book a,c = 4.
	if total != 4 {
		t.Fatalf("histogram mass = %d, want 4", total)
	}
	// book@c has x=0 → ratio 1 → last bin.
	if hist[9] == 0 {
		t.Error("zeroed triplet did not land in the last bin")
	}
}

func TestHistogramShareEmpty(t *testing.T) {
	share := HistogramShare([]int{0, 0})
	if share[0] != 0 || share[1] != 0 {
		t.Errorf("empty histogram share = %v, want zeros", share)
	}
}

func TestTripletHistogramDefaultBuckets(t *testing.T) {
	in := fixture(t)
	hist := TripletHistogram(in, in, 0, 0, 0)
	if len(hist) != 10 {
		t.Errorf("default buckets = %d, want 10", len(hist))
	}
	// Identical logs: everything in bin 0.
	if hist[0] != 6 {
		t.Errorf("identity comparison bin0 = %d, want 6", hist[0])
	}
}
