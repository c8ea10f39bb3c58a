package ledger

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, budget Budget) (*Ledger, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.journal")
	l, err := Open(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

// check probes a release of digest under the corpus name.
func check(l *Ledger, corpus, digest, key string, eps, delta float64) error {
	return l.Check(context.Background(), Release{Corpus: corpus, Digest: digest, Key: key, Epsilon: eps, Delta: delta})
}

// charge journals a release that records no output digest.
func charge(l *Ledger, corpus, digest, key string, eps, delta float64) (Release, bool, error) {
	return l.ChargeCtx(context.Background(), corpus, digest, key, "", eps, delta)
}

func TestSequentialComposition(t *testing.T) {
	// Budget sized for exactly two (ε=ln 2, δ=0.5) releases.
	eps := math.Log(2)
	l, _ := openTest(t, Budget{Epsilon: 2 * eps, Delta: 1.0})

	for i := 1; i <= 2; i++ {
		rel, spent, err := charge(l, "c", "digest-a", fmt.Sprintf("key-%d", i), eps, 0.5)
		if err != nil || !spent {
			t.Fatalf("release %d: spent=%v err=%v", i, spent, err)
		}
		if rel.Seq != i {
			t.Fatalf("release %d: seq %d", i, rel.Seq)
		}
	}
	s := l.Status("c", "digest-a").Spent
	if math.Abs(s.Epsilon-2*eps) > 1e-12 || s.Delta != 1.0 {
		t.Fatalf("spent %+v", s)
	}

	// A third distinct release must be refused with the full accounting.
	_, _, err := charge(l, "c", "digest-a", "key-3", eps, 0.5)
	var over *OverBudgetError
	if !errors.As(err, &over) {
		t.Fatalf("want OverBudgetError, got %v", err)
	}
	if over.Remaining.Epsilon != 0 || over.Remaining.Delta != 0 {
		t.Fatalf("remaining %+v, want zero", over.Remaining)
	}
	if over.Spent.Delta != 1.0 {
		t.Fatalf("spent in error %+v", over.Spent)
	}

	// Budgets are per lineage: another name with other data is unaffected.
	if _, _, err := charge(l, "other", "digest-b", "key-b", eps, 0.5); err != nil {
		t.Fatalf("independent corpus refused: %v", err)
	}
}

func TestIdempotentReplayIsFree(t *testing.T) {
	l, _ := openTest(t, Budget{Epsilon: 1, Delta: 1})
	first, spent, err := charge(l, "c", "d", "same-key", 1, 1)
	if err != nil || !spent {
		t.Fatalf("first: %v %v", spent, err)
	}
	// The budget is now exhausted, but re-serving the identical release
	// (same key → same output bytes) must stay admissible and free.
	again, spent, err := charge(l, "c", "d", "same-key", 1, 1)
	if err != nil || spent {
		t.Fatalf("replay: spent=%v err=%v", spent, err)
	}
	if again.Seq != first.Seq {
		t.Fatalf("replay returned seq %d, want %d", again.Seq, first.Seq)
	}
	if err := check(l, "c", "d", "same-key", 1, 1); err != nil {
		t.Fatalf("Check of journaled key: %v", err)
	}
	if err := check(l, "c", "d", "new-key", 0.1, 0.1); err == nil {
		t.Fatal("Check admitted a fresh over-budget release")
	}
	if got := l.Status("c", "d").Spent; got.Epsilon != 1 || got.Delta != 1 {
		t.Fatalf("replay changed spend: %+v", got)
	}
}

func TestJournalReplayRestoresAccounting(t *testing.T) {
	budget := Budget{Epsilon: 3, Delta: 1.5}
	path := filepath.Join(t.TempDir(), "ledger.journal")
	l, err := Open(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	l.now = func() time.Time { return time.Unix(1700000000, 0) }
	first := Release{Corpus: "a", Digest: "dig-a", Key: "k1", Mechanism: "ump", ReleaseDigest: "out-1", Epsilon: 1, Delta: 0.5}
	if _, _, err := l.Charge(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	if _, _, err := charge(l, "a", "dig-a", "k2", 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := charge(l, "b", "dig-b", "k3", 2, 1); err != nil {
		t.Fatal(err)
	}
	wantA, wantB := l.Status("a", "dig-a").Spent, l.Status("b", "dig-b").Spent
	wantRels := l.Releases("a", "dig-a")
	l.Close()

	re, err := Open(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Status("a", "dig-a").Spent; got != wantA {
		t.Fatalf("replayed spend %+v, want %+v", got, wantA)
	}
	if got := re.Status("b", "dig-b").Spent; got != wantB {
		t.Fatalf("replayed spend %+v, want %+v", got, wantB)
	}
	rels := re.Releases("a", "dig-a")
	if len(rels) != len(wantRels) {
		t.Fatalf("replayed %d releases, want %d", len(rels), len(wantRels))
	}
	for i := range rels {
		if rels[i] != wantRels[i] {
			t.Fatalf("release %d diverged: %+v vs %+v", i, rels[i], wantRels[i])
		}
	}
	// The idempotency index survives the restart, and a repeat of the key
	// returns the journaled output digest for the caller to compare against.
	if prior, spent, err := charge(re, "a", "dig-a", "k1", 1, 0.5); err != nil || spent || prior.ReleaseDigest != "out-1" {
		t.Fatalf("journaled key after replay: spent=%v release digest %q err=%v", spent, prior.ReleaseDigest, err)
	}
	// ...and the sequence keeps counting where it left off.
	rel, _, err := charge(re, "a", "dig-a", "k4", 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Seq != 4 {
		t.Fatalf("post-replay seq %d, want 4", rel.Seq)
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.journal")
	l, err := Open(path, Budget{Epsilon: 10, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := charge(l, "c", "d", "k1", 1, 0.25); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash mid-append: a partial JSON line at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"corpus":"c","dig`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(path, Budget{Epsilon: 10, Delta: 10})
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer re.Close()
	if got := re.Status("c", "d").Spent; got.Epsilon != 1 || got.Delta != 0.25 {
		t.Fatalf("spend after torn-tail replay: %+v", got)
	}
	// The torn bytes are gone: the next charge lands on a clean boundary
	// and a fresh replay still parses.
	if _, _, err := charge(re, "c", "d", "k2", 1, 0.25); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := Open(path, Budget{Epsilon: 10, Delta: 10})
	if err != nil {
		t.Fatalf("journal corrupt after post-truncate append: %v", err)
	}
	defer re2.Close()
	if got := re2.Status("c", "d").Spent; got.Epsilon != 2 || got.Delta != 0.5 {
		t.Fatalf("spend after second replay: %+v", got)
	}
}

// TestUnterminatedTailIsKeptAndRepaired: a crash can persist a complete
// final entry minus its newline. The entry must be kept (the release may
// already have been handed out — dropping it would under-count spend) and
// the missing terminator restored, or the next append would concatenate
// two entries onto one unparseable line.
func TestUnterminatedTailIsKeptAndRepaired(t *testing.T) {
	budget := Budget{Epsilon: 10, Delta: 10}
	path := filepath.Join(t.TempDir(), "ledger.journal")
	l, err := Open(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := charge(l, "c", "d", "k1", 1, 0.25); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Chop the trailing newline off the (valid) final entry.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[len(raw)-1] != '\n' {
		t.Fatal("journal does not end in newline")
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Status("c", "d").Spent; got.Epsilon != 1 || got.Delta != 0.25 {
		t.Fatalf("unterminated entry dropped: spent %+v", got)
	}
	// Appending after the repair must land on a clean line boundary...
	if _, _, err := charge(re, "c", "d", "k2", 1, 0.25); err != nil {
		t.Fatal(err)
	}
	re.Close()
	// ...so a further replay sees both entries.
	re2, err := Open(path, budget)
	if err != nil {
		t.Fatalf("journal corrupt after tail repair: %v", err)
	}
	defer re2.Close()
	if got := len(re2.Releases("c", "d")); got != 2 {
		t.Fatalf("replayed %d releases after repair, want 2", got)
	}
}

func TestInteriorCorruptionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.journal")
	if err := os.WriteFile(path, []byte("not json at all\n{\"seq\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Budget{}); err == nil {
		t.Fatal("interior corruption must refuse to open, not under-count")
	}
}

// TestConcurrentChargesNeverOverspend is the -race lock-down: many
// goroutines race distinct releases against a budget sized for exactly
// admit of them; the ledger must admit exactly that many and the journal
// must replay to the same state.
func TestConcurrentChargesNeverOverspend(t *testing.T) {
	const (
		workers = 32
		admit   = 5
	)
	eps := math.Log(2)
	budget := Budget{Epsilon: float64(admit) * eps, Delta: float64(admit) * 0.25}
	path := filepath.Join(t.TempDir(), "ledger.journal")
	l, err := Open(path, budget)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
		rejected int
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, spent, err := charge(l, "c", "dig", fmt.Sprintf("key-%d", i), eps, 0.25)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && spent:
				accepted++
			case errors.As(err, new(*OverBudgetError)):
				rejected++
			default:
				t.Errorf("charge %d: spent=%v err=%v", i, spent, err)
			}
		}(i)
	}
	wg.Wait()
	if accepted != admit || rejected != workers-admit {
		t.Fatalf("accepted %d rejected %d, want %d/%d", accepted, rejected, admit, workers-admit)
	}
	s := l.Status("c", "dig").Spent
	if s.Epsilon > budget.Epsilon+budgetTol || s.Delta > budget.Delta+budgetTol {
		t.Fatalf("overspent: %+v > %+v", s, budget)
	}
	l.Close()

	re, err := Open(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Status("c", "dig").Spent; got != s {
		t.Fatalf("replayed spend %+v != live %+v", got, s)
	}
	if got := len(re.Releases("c", "dig")); got != admit {
		t.Fatalf("replayed %d releases, want %d", got, admit)
	}
}
