package searchlog

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// paperLog builds the example log of the paper's Figure 1: three users
// 081, 082, 083 over five pairs.
func paperLog(t testing.TB) *Log {
	t.Helper()
	b := NewBuilder()
	b.Add("081", "pregnancy test nyc", "medicinenet.com", 2)
	b.Add("081", "book", "amazon.com", 3)
	b.Add("081", "google", "google.com", 15)
	b.Add("082", "google", "google.com", 7)
	b.Add("082", "diabetes medecine", "walmart.com", 1)
	b.Add("082", "car price", "kbb.com", 2)
	b.Add("083", "car price", "kbb.com", 5)
	b.Add("083", "book", "amazon.com", 1)
	l, err := b.BuildLog()
	if err != nil {
		t.Fatalf("BuildLog: %v", err)
	}
	return l
}

func TestBuilderBasics(t *testing.T) {
	l := paperLog(t)
	if got, want := l.NumUsers(), 3; got != want {
		t.Errorf("NumUsers = %d, want %d", got, want)
	}
	if got, want := l.NumPairs(), 5; got != want {
		t.Errorf("NumPairs = %d, want %d", got, want)
	}
	if got, want := l.Size(), 36; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
	if got, want := l.NumTriplets(), 8; got != want {
		t.Errorf("NumTriplets = %d, want %d", got, want)
	}
	gi := l.PairIndex(PairKey{"google", "google.com"})
	if gi < 0 {
		t.Fatal("google pair missing")
	}
	if got, want := l.PairCount(gi), 22; got != want {
		t.Errorf("c_ij(google) = %d, want %d", got, want)
	}
	u081 := l.UserIndex("081")
	if got, want := l.TripletCount(gi, u081), 15; got != want {
		t.Errorf("c_ijk(google, 081) = %d, want %d", got, want)
	}
	if got := l.TripletCount(gi, l.UserIndex("083")); got != 0 {
		t.Errorf("c_ijk(google, 083) = %d, want 0", got)
	}
	if got := l.PairIndex(PairKey{"none", "none"}); got != -1 {
		t.Errorf("PairIndex(missing) = %d, want -1", got)
	}
	if got := l.UserIndex("999"); got != -1 {
		t.Errorf("UserIndex(missing) = %d, want -1", got)
	}
}

func TestBuilderAccumulatesDuplicates(t *testing.T) {
	b := NewBuilder()
	b.Add("u", "q", "l", 2)
	b.Add("u", "q", "l", 3)
	l := b.Log()
	if got, want := l.Size(), 5; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
	if got, want := l.NumTriplets(), 1; got != want {
		t.Errorf("NumTriplets = %d, want %d", got, want)
	}
}

func TestBuilderRejectsNegative(t *testing.T) {
	b := NewBuilder()
	b.Add("u", "q", "l", -1)
	if _, err := b.BuildLog(); err == nil {
		t.Fatal("BuildLog accepted a negative count")
	}
	if b.Err() == nil {
		t.Fatal("Err() = nil after negative count")
	}
}

func TestBuilderIgnoresZero(t *testing.T) {
	b := NewBuilder()
	b.Add("u", "q", "l", 0)
	l := b.Log()
	if l.NumUsers() != 0 || l.NumPairs() != 0 {
		t.Errorf("zero-count add produced users=%d pairs=%d", l.NumUsers(), l.NumPairs())
	}
}

func TestDeterministicOrdering(t *testing.T) {
	// Insertion order must not matter.
	recs := []Record{
		{"b", "q2", "u2", 1}, {"a", "q1", "u1", 2}, {"b", "q1", "u1", 3}, {"a", "q2", "u2", 4},
	}
	l1, err := FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	rev := []Record{recs[3], recs[2], recs[1], recs[0]}
	l2, err := FromRecords(rev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l1.Records(), l2.Records()) {
		t.Errorf("Records differ across insertion orders:\n%v\n%v", l1.Records(), l2.Records())
	}
	if l1.User(0).ID != "a" || l1.User(1).ID != "b" {
		t.Errorf("users not sorted: %q %q", l1.User(0).ID, l1.User(1).ID)
	}
	if p := l1.Pair(0); p.Query != "q1" {
		t.Errorf("pairs not sorted: first pair %q", p.Query)
	}
}

func TestMaxEntryAndUnique(t *testing.T) {
	l := paperLog(t)
	pi := l.PairIndex(PairKey{"pregnancy test nyc", "medicinenet.com"})
	p := l.Pair(pi)
	if !p.IsUnique() {
		t.Errorf("pair held entirely by 081 should be unique")
	}
	user, count := p.MaxEntry()
	if l.User(user).ID != "081" || count != 2 {
		t.Errorf("MaxEntry = (%s, %d), want (081, 2)", l.User(user).ID, count)
	}
	gi := l.PairIndex(PairKey{"google", "google.com"})
	if l.Pair(gi).IsUnique() {
		t.Errorf("shared google pair reported unique")
	}
}

func TestPreprocessPaperExample(t *testing.T) {
	l := paperLog(t)
	out, st := Preprocess(l)
	// Unique pairs: pregnancy(081 only), diabetes(082 only). Shared: book,
	// car price, google.
	if got, want := st.RemovedPairs, 2; got != want {
		t.Errorf("RemovedPairs = %d, want %d", got, want)
	}
	if got, want := st.RemovedMass, 3; got != want {
		t.Errorf("RemovedMass = %d, want %d", got, want)
	}
	if got, want := out.NumPairs(), 3; got != want {
		t.Errorf("NumPairs after preprocess = %d, want %d", got, want)
	}
	if got, want := out.Size(), 33; got != want {
		t.Errorf("Size after preprocess = %d, want %d", got, want)
	}
	if !IsPreprocessed(out) {
		t.Error("IsPreprocessed = false after Preprocess")
	}
	// Idempotence.
	out2, st2 := Preprocess(out)
	if st2.RemovedPairs != 0 || out2.Size() != out.Size() {
		t.Errorf("Preprocess not idempotent: %+v", st2)
	}
}

// TestPreprocessReturnsPreprocessedInput: a log Preprocess removes nothing
// from comes back as itself, not as a copy.
func TestPreprocessReturnsPreprocessedInput(t *testing.T) {
	raw := paperLog(t)
	pre, _ := Preprocess(raw)
	if pre == raw {
		t.Fatal("Preprocess returned its input although it removed pairs")
	}
	again, st := Preprocess(pre)
	if again != pre {
		t.Error("Preprocess copied a log it removed nothing from")
	}
	if st != (PreprocessStats{}) {
		t.Errorf("stats %+v on an already-preprocessed log, want zero", st)
	}
}

func TestPreprocessDropsEmptiedUsers(t *testing.T) {
	b := NewBuilder()
	b.Add("lonely", "q", "u", 5) // unique pair; user must vanish
	b.Add("a", "shared", "u", 1)
	b.Add("b", "shared", "u", 1)
	out, st := Preprocess(b.Log())
	if st.RemovedUsers != 1 {
		t.Errorf("RemovedUsers = %d, want 1", st.RemovedUsers)
	}
	if out.UserIndex("lonely") != -1 {
		t.Error("emptied user still present")
	}
	if out.NumUsers() != 2 {
		t.Errorf("NumUsers = %d, want 2", out.NumUsers())
	}
}

func TestPreprocessCascade(t *testing.T) {
	// After removing a unique pair, a *shared* pair may become unique if its
	// other holder vanishes? It cannot: removal only deletes pairs, users keep
	// their other pairs. But a pair where one user holds the full total even
	// though several entries exist must be removed too (cijk = cij with zero
	// entries suppressed means a single entry). Construct a two-user pair with
	// counts (3, 0): the builder suppresses zero, so it is single-entry.
	b := NewBuilder()
	b.Add("a", "q", "u", 3)
	b.Add("b", "q", "u", 0)
	b.Add("a", "shared", "x", 1)
	b.Add("b", "shared", "x", 2)
	out, st := Preprocess(b.Log())
	if st.RemovedPairs != 1 {
		t.Errorf("RemovedPairs = %d, want 1", st.RemovedPairs)
	}
	if out.PairIndex(PairKey{"q", "u"}) != -1 {
		t.Error("pair with single effective holder survived")
	}
}

func TestWithoutUser(t *testing.T) {
	l := paperLog(t)
	k := l.UserIndex("081")
	d := l.WithoutUser(k)
	if d.UserIndex("081") != -1 {
		t.Fatal("user 081 still present in D'")
	}
	if got, want := d.NumUsers(), 2; got != want {
		t.Errorf("NumUsers = %d, want %d", got, want)
	}
	// Pair held only by 081 disappears.
	if d.PairIndex(PairKey{"pregnancy test nyc", "medicinenet.com"}) != -1 {
		t.Error("pair unique to 081 survived")
	}
	// Shared pair keeps the other users' mass.
	gi := d.PairIndex(PairKey{"google", "google.com"})
	if gi < 0 || d.PairCount(gi) != 7 {
		t.Errorf("google count in D' = %d, want 7", d.PairCount(gi))
	}
	if got, want := d.Size(), 36-20; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
	// Out-of-range index returns a plain copy.
	c := l.WithoutUser(-1)
	if c.Size() != l.Size() || c.NumUsers() != l.NumUsers() {
		t.Error("WithoutUser(-1) did not return a full copy")
	}
}

func TestStats(t *testing.T) {
	l := paperLog(t)
	st := ComputeStats(l)
	want := Stats{Size: 36, Users: 3, DistinctQueries: 5, DistinctURLs: 5, Pairs: 5, Triplets: 8}
	if st != want {
		t.Errorf("ComputeStats = %+v, want %+v", st, want)
	}
	if s := st.String(); !strings.Contains(s, "size=36") || !strings.Contains(s, "pairs=5") {
		t.Errorf("Stats.String() = %q", s)
	}
}

func TestTSVRoundTrip(t *testing.T) {
	l := paperLog(t)
	var buf bytes.Buffer
	n, err := WriteTSV(&buf, l)
	if err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	if n != l.NumTriplets() {
		t.Errorf("rows written = %d, want %d", n, l.NumTriplets())
	}
	back, err := ReadTSV(&buf)
	if err != nil {
		t.Fatalf("ReadTSV: %v", err)
	}
	if !reflect.DeepEqual(back.Records(), l.Records()) {
		t.Error("TSV round trip altered records")
	}
}

func TestReadTSVErrors(t *testing.T) {
	if _, err := ReadTSV(strings.NewReader("a\tb\tc\n")); err == nil {
		t.Error("accepted 3-field row")
	}
	if _, err := ReadTSV(strings.NewReader("a\tb\tc\tnope\n")); err == nil {
		t.Error("accepted non-numeric count")
	}
	l, err := ReadTSV(strings.NewReader("# comment\n\nu\tq\tl\t2\n"))
	if err != nil {
		t.Fatalf("ReadTSV with comments: %v", err)
	}
	if l.Size() != 2 {
		t.Errorf("Size = %d, want 2", l.Size())
	}
}

func TestReadAOL(t *testing.T) {
	in := strings.Join([]string{
		"AnonID\tQuery\tQueryTime\tItemRank\tClickURL",
		"1\tcar price\t2006-03-01 10:00:00\t1\tkbb.com",
		"1\tcar price\t2006-03-02 11:00:00\t1\tkbb.com",
		"1\tno click query\t2006-03-02 11:05:00\t\t",
		"2\tbook\t2006-03-03 09:00:00\t2\tamazon.com",
	}, "\n")
	l, err := ReadAOL(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadAOL: %v", err)
	}
	if got, want := l.Size(), 3; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
	i := l.PairIndex(PairKey{"car price", "kbb.com"})
	if i < 0 || l.PairCount(i) != 2 {
		t.Errorf("car price count = %d, want 2", l.PairCount(i))
	}
	if _, err := ReadAOL(strings.NewReader("1\ttwo\tfields")); err == nil {
		t.Error("accepted short AOL row")
	}
	if _, err := ReadAOL(strings.NewReader(" \tq\t2006\t1\tu.com")); err == nil {
		t.Error("accepted whitespace-only AnonID")
	}
	// Whitespace padding must not mint a second user.
	l2, err := ReadAOL(strings.NewReader("1\tq\t2006\t1\tu.com\n 1 \tq\t2006\t1\tu.com"))
	if err != nil {
		t.Fatalf("padded AnonID: %v", err)
	}
	if l2.NumUsers() != 1 || l2.Size() != 2 {
		t.Errorf("padded AnonID split a user: %d users, size %d", l2.NumUsers(), l2.Size())
	}
}

func TestRecordsSortedAndComplete(t *testing.T) {
	l := paperLog(t)
	recs := l.Records()
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if a.User > b.User || (a.User == b.User && a.Query > b.Query) {
			t.Fatalf("records not sorted at %d: %v then %v", i, a, b)
		}
	}
	total := 0
	for _, r := range recs {
		total += r.Count
	}
	if total != l.Size() {
		t.Errorf("record mass %d != Size %d", total, l.Size())
	}
}

// Property: building a log from arbitrary records conserves the total count
// mass and never yields a pair whose entries exceed its total.
func TestQuickBuildConservesMass(t *testing.T) {
	f := func(seed uint64, nUsers, nPairs uint8) bool {
		r := rand.New(rand.NewPCG(seed, 42))
		users := int(nUsers%8) + 1
		pairs := int(nPairs%12) + 1
		b := NewBuilder()
		mass := 0
		for i := 0; i < 40; i++ {
			c := r.IntN(5)
			b.Add(
				string(rune('a'+r.IntN(users))),
				string(rune('q'+r.IntN(pairs)%8)),
				string(rune('u'+r.IntN(pairs)%8)),
				c,
			)
			mass += c
		}
		l, err := b.BuildLog()
		if err != nil {
			return false
		}
		if l.Size() != mass {
			return false
		}
		for i := 0; i < l.NumPairs(); i++ {
			p := l.Pair(i)
			sum := 0
			for _, e := range p.Entries {
				if e.Count <= 0 {
					return false
				}
				sum += e.Count
			}
			if sum != p.Total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: preprocessing never leaves a unique pair and never increases size.
func TestQuickPreprocessInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		b := NewBuilder()
		for i := 0; i < 60; i++ {
			b.Add(
				string(rune('a'+r.IntN(6))),
				string(rune('q'+r.IntN(6))),
				string(rune('u'+r.IntN(3))),
				r.IntN(4),
			)
		}
		l := b.Log()
		out, st := Preprocess(l)
		if !IsPreprocessed(out) {
			return false
		}
		if out.Size()+st.RemovedMass != l.Size() {
			return false
		}
		return out.NumPairs()+st.RemovedPairs == l.NumPairs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: removing any user conserves the remaining mass exactly and
// never leaves the removed user's pairs overcounted.
func TestQuickWithoutUserConservesMass(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 55))
		b := NewBuilder()
		for i := 0; i < 50; i++ {
			b.Add(
				string(rune('a'+r.IntN(5))),
				string(rune('q'+r.IntN(7))),
				string(rune('u'+r.IntN(3))),
				1+r.IntN(4),
			)
		}
		l := b.Log()
		if l.NumUsers() == 0 {
			return true
		}
		k := r.IntN(l.NumUsers())
		removedMass := l.User(k).Total
		d := l.WithoutUser(k)
		if d.Size() != l.Size()-removedMass {
			return false
		}
		// Every remaining pair count equals the original minus the removed
		// user's holding.
		for i := 0; i < l.NumPairs(); i++ {
			key := l.Pair(i).Key()
			want := l.PairCount(i) - l.TripletCount(i, k)
			di := d.PairIndex(key)
			got := 0
			if di >= 0 {
				got = d.PairCount(di)
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: TSV round trips arbitrary logs bit-exactly.
func TestQuickTSVRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 77))
		b := NewBuilder()
		for i := 0; i < 30; i++ {
			b.Add(
				string(rune('A'+r.IntN(6))),
				string(rune('q'+r.IntN(5))),
				string(rune('u'+r.IntN(5))),
				r.IntN(6),
			)
		}
		l := b.Log()
		var buf bytes.Buffer
		if _, err := WriteTSV(&buf, l); err != nil {
			return false
		}
		back, err := ReadTSV(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back.Records(), l.Records())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
