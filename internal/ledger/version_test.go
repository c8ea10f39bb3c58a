package ledger

// Lineage accounting: an append-only corpus grows a chain of immutable
// versions, each with its own digest, and every version is released under
// the corpus's name, so the whole chain draws on one budget. Spend sums
// along the chain, ancestor replays stay free forever, and a version
// appearing mid-flight can never alter the identity of a release that was
// admitted against an older digest.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Digests standing in for a three-version append chain of one corpus.
const (
	digV1 = "sha-v1"
	digV2 = "sha-v2"
	digV3 = "sha-v3"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestVersionSpendIsPerLineage: the versions of an appended corpus spend
// from one allowance. The spend of v1..v3 sums, exhausting the chain
// through v1 exhausts v3 (a version never released before), and ancestor
// repeats stay free.
func TestVersionSpendIsPerLineage(t *testing.T) {
	eps := math.Log(2)
	l, _ := openTest(t, Budget{Epsilon: 3 * eps, Delta: 1.5})
	for _, dig := range []string{digV1, digV2, digV3} {
		if _, spent, err := charge(l, "c", dig, dig+"-key", eps, 0.5); err != nil || !spent {
			t.Fatalf("%s release: spent=%v err=%v", dig, spent, err)
		}
	}
	for _, dig := range []string{digV1, digV2, digV3} {
		st := l.Status("c", dig)
		if !near(st.Spent.Epsilon, 3*eps) || st.Spent.Delta != 1.5 || st.Releases != 3 || st.Remaining != (Budget{}) {
			t.Fatalf("status through %s: %+v, want the chain's three releases", dig, st)
		}
		// The digest alone reaches the same lineage.
		if st2 := l.Status("", dig); st2 != st {
			t.Fatalf("digest-only status of %s %+v, want %+v", dig, st2, st)
		}
	}
	var over *OverBudgetError
	if _, _, err := charge(l, "c", digV3, "v3-key-2", eps, 0.5); !errors.As(err, &over) {
		t.Fatalf("fourth release of the chain: want OverBudgetError, got %v", err)
	}
	if _, spent, err := charge(l, "c", digV1, digV1+"-key", eps, 0.5); err != nil || spent {
		t.Fatalf("ancestor repeat on an exhausted chain: spent=%v err=%v", spent, err)
	}

	// Exhausting the chain through v1 alone refuses v3's first release.
	l2, _ := openTest(t, Budget{Epsilon: 2 * eps, Delta: 1.0})
	for i := 1; i <= 2; i++ {
		if _, _, err := charge(l2, "c", digV1, fmt.Sprintf("v1-key-%d", i), eps, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := check(l2, "c", digV3, "v3-key", eps, 0.5); !errors.As(err, &over) {
		t.Fatalf("v3 probe after v1 exhausted the chain: want OverBudgetError, got %v", err)
	}
	if _, _, err := charge(l2, "c", digV3, "v3-key", eps, 0.5); !errors.As(err, &over) {
		t.Fatalf("v3 charge after v1 exhausted the chain: want OverBudgetError, got %v", err)
	}
	// Another name with other data keeps its whole budget.
	if _, spent, err := charge(l2, "other", "sha-other", "other-key", eps, 0.5); err != nil || !spent {
		t.Fatalf("unrelated corpus: spent=%v err=%v", spent, err)
	}
}

// TestLineageJoinsOnSharedDigest: a name continues its lineage across
// versions and re-uploads, and two names join once either releases a
// digest the other has released.
func TestLineageJoinsOnSharedDigest(t *testing.T) {
	eps := math.Log(2)
	l, _ := openTest(t, Budget{Epsilon: 4 * eps, Delta: 2})
	mustCharge := func(corpus, digest, key string) {
		t.Helper()
		if _, spent, err := charge(l, corpus, digest, key, eps, 0.5); err != nil || !spent {
			t.Fatalf("%s/%s: spent=%v err=%v", corpus, digest, spent, err)
		}
	}
	mustCharge("a", "dig-a", "k1")
	mustCharge("b", "dig-b", "k2")
	if a, b := l.Status("a", "dig-a"), l.Status("b", "dig-b"); a.Releases != 1 || b.Releases != 1 {
		t.Fatalf("disjoint names: a %+v b %+v", a, b)
	}
	// A probe that would join both lineages sees their summed spend.
	if st := l.Status("b", "dig-a"); !near(st.Spent.Epsilon, 2*eps) || st.Releases != 2 {
		t.Fatalf("status of b releasing dig-a: %+v", st)
	}
	mustCharge("b", "dig-a", "k3")
	for _, q := range [][2]string{{"a", "dig-a"}, {"b", "dig-b"}, {"", "dig-b"}, {"a", "unreleased"}} {
		if st := l.Status(q[0], q[1]); !near(st.Spent.Epsilon, 3*eps) || st.Releases != 3 {
			t.Fatalf("status %v after the join: %+v", q, st)
		}
	}
	rels := l.Releases("a", "")
	if len(rels) != 3 || rels[0].Seq != 1 || rels[1].Seq != 2 || rels[2].Seq != 3 {
		t.Fatalf("joined lineage releases %+v, want seqs 1..3", rels)
	}
	mustCharge("a", "dig-a2", "k4")
	var over *OverBudgetError
	if _, _, err := charge(l, "b", "dig-b2", "k5", eps, 0.5); !errors.As(err, &over) {
		t.Fatalf("fifth release of the joined lineage: want OverBudgetError, got %v", err)
	}
}

// TestAncestorReplayFreeAcrossRestart: a release journaled against an old
// version stays an idempotent (free) replay after appends move the corpus
// on AND after a process restart replays the journal.
func TestAncestorReplayFreeAcrossRestart(t *testing.T) {
	eps := math.Log(2)
	budget := Budget{Epsilon: 3 * eps, Delta: 1.5}
	l, path := openTest(t, budget)

	first, spent, err := charge(l, "c", digV1, "v1-key", eps, 0.5)
	if err != nil || !spent {
		t.Fatalf("v1 release: spent=%v err=%v", spent, err)
	}
	// The corpus is appended twice; both new versions get their own release.
	for _, dig := range []string{digV2, digV3} {
		if _, _, err := charge(l, "c", dig, dig+"-key", eps, 0.5); err != nil {
			t.Fatalf("%s release: %v", dig, err)
		}
	}
	before := l.Status("c", digV3)

	// Restart: reopen the journal.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()

	// The ancestor replay is free and byte-for-byte the original entry.
	replay, spent, err := charge(l2, "c", digV1, "v1-key", eps, 0.5)
	if err != nil {
		t.Fatalf("ancestor replay: %v", err)
	}
	if spent {
		t.Fatal("ancestor replay spent budget after restart")
	}
	if replay.Seq != first.Seq || replay.Digest != digV1 || replay.Key != "v1-key" {
		t.Fatalf("replayed entry %+v, want the original %+v", replay, first)
	}
	// The replayed lineage spend is bit-identical to the live one.
	if after := l2.Status("c", digV1); after != before {
		t.Fatalf("lineage status after replay %+v, want %+v", after, before)
	}
	// Check agrees: the journaled key is admitted even with no headroom.
	exhausted, _ := openTest(t, Budget{})
	if _, _, err := charge(exhausted, "c", digV1, "tiny", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := check(exhausted, "c", digV1, "tiny", eps, 0.5); err != nil {
		t.Fatalf("journaled key refused on zero budget: %v", err)
	}
}

// TestAppendMidFlightKeepsReleaseIdentity: a release admitted against v1
// commits with v1's digest and key even when an append journals v2
// releases between the admission probe and the binding charge — the
// in-flight release's identity is pinned at admission time, while its
// cost lands on the one lineage both versions share.
func TestAppendMidFlightKeepsReleaseIdentity(t *testing.T) {
	eps := math.Log(2)
	l, _ := openTest(t, Budget{Epsilon: 3 * eps, Delta: 1.5})

	// The handler resolved version v1 and probed admission.
	if err := check(l, "c", digV1, "v1-key", eps, 0.5); err != nil {
		t.Fatalf("admission probe: %v", err)
	}

	// While the v1 solve runs, an append creates v2 and spends on it.
	for _, key := range []string{"v2-key-a", "v2-key-b"} {
		if _, _, err := charge(l, "c", digV2, key, eps, 0.5); err != nil {
			t.Fatalf("mid-flight v2 release: %v", err)
		}
	}

	// The in-flight release commits under its admission-time identity.
	rel, spent, err := charge(l, "c", digV1, "v1-key", eps, 0.5)
	if err != nil || !spent {
		t.Fatalf("in-flight charge: spent=%v err=%v", spent, err)
	}
	if rel.Digest != digV1 || rel.Key != "v1-key" {
		t.Fatalf("in-flight release identity %q/%q drifted from v1", rel.Digest, rel.Key)
	}
	if rel.Seq != 3 {
		t.Fatalf("in-flight release seq %d, want 3 (after the two v2 entries)", rel.Seq)
	}
	// The lineage's release list is the per-version breakdown.
	rels := l.Releases("c", digV1)
	if len(rels) != 3 || rels[0].Digest != digV2 || rels[1].Digest != digV2 || rels[2].Digest != digV1 {
		t.Fatalf("lineage releases %+v, want v2, v2, v1", rels)
	}
	// The mid-flight releases used up the chain: the next v1 release is
	// refused, but re-serving the in-flight one is a free replay even
	// though v1 is no longer the latest version.
	var over *OverBudgetError
	if _, _, err := charge(l, "c", digV1, "v1-key-2", eps, 0.5); !errors.As(err, &over) {
		t.Fatalf("release past the chain's budget: want OverBudgetError, got %v", err)
	}
	if replay, spent, err := charge(l, "c", digV1, "v1-key", eps, 0.5); err != nil || spent || replay.Seq != rel.Seq {
		t.Fatalf("replay of superseded version: seq=%d spent=%v err=%v", replay.Seq, spent, err)
	}
}

// TestPreLineageJournalNeverUnderCounts replays a journal written when
// spend was accounted per digest. Its entries need no migration: grouped
// by name and digest, every lineage sum is at least every per-digest
// sub-ledger it covers, including two names that share a released digest.
func TestPreLineageJournalNeverUnderCounts(t *testing.T) {
	const fixture = "testdata/pre-lineage.journal"
	perDigest := map[string]Budget{}
	names := map[string][]string{} // digest → names it was released under
	f, err := os.Open(fixture)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rel Release
		if err := json.Unmarshal(sc.Bytes(), &rel); err != nil {
			t.Fatal(err)
		}
		b := perDigest[rel.Digest]
		b.Epsilon += rel.Epsilon
		b.Delta += rel.Delta
		perDigest[rel.Digest] = b
		names[rel.Digest] = append(names[rel.Digest], rel.Corpus)
	}
	f.Close()

	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, Budget{Epsilon: 100, Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for dig, old := range perDigest {
		for _, name := range names[dig] {
			if st := l.Status(name, dig); st.Spent.Epsilon < old.Epsilon || st.Spent.Delta < old.Delta {
				t.Errorf("lineage of %s/%s spent %+v, below its per-digest sub-ledger %+v", name, dig, st.Spent, old)
			}
		}
	}
	// "news" v1..v3 and "mirror", which released news's v2, form one
	// lineage of six releases; "solo" stays apart.
	joint := l.Status("mirror", "")
	if joint.Releases != 6 || !near(joint.Spent.Epsilon, 6*math.Log(2)) || joint.Spent.Delta != 1.5 {
		t.Fatalf("joint lineage %+v, want six (ln 2, 0.25) releases", joint)
	}
	if news := l.Status("news", ""); news != joint {
		t.Fatalf("news lineage %+v, want the joint %+v", news, joint)
	}
	if solo := l.Status("solo", ""); solo.Releases != 1 || solo.Spent.Delta != 0.25 {
		t.Fatalf("solo lineage %+v, want its one release", solo)
	}
}

// TestConcurrentVersionChargesNeverOvershoot races distinct releases of
// two versions of one corpus against a budget sized for exactly admit of
// them: the versions share one lineage, so together they must never
// overshoot it, and the journal must replay to the same state.
func TestConcurrentVersionChargesNeverOvershoot(t *testing.T) {
	const (
		workers = 32
		admit   = 5
	)
	eps := math.Log(2)
	budget := Budget{Epsilon: float64(admit) * eps, Delta: float64(admit) * 0.25}
	l, path := openTest(t, budget)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dig := []string{digV1, digV2}[i%2]
			if err := check(l, "c", dig, fmt.Sprintf("key-%d", i), eps, 0.25); err != nil && !errors.As(err, new(*OverBudgetError)) {
				t.Errorf("check %d: %v", i, err)
			}
			_, spent, err := l.Charge(context.Background(), Release{Corpus: "c", Digest: dig, Key: fmt.Sprintf("key-%d", i), Epsilon: eps, Delta: 0.25})
			switch {
			case err == nil && spent:
				mu.Lock()
				accepted++
				mu.Unlock()
			case !errors.As(err, new(*OverBudgetError)):
				t.Errorf("charge %d: spent=%v err=%v", i, spent, err)
			}
		}(i)
	}
	wg.Wait()
	if accepted != admit {
		t.Fatalf("accepted %d releases across two versions, want %d", accepted, admit)
	}
	live := l.Status("c", digV2)
	if live.Releases != admit || live.Spent.Epsilon > budget.Epsilon+budgetTol {
		t.Fatalf("lineage status %+v", live)
	}
	l.Close()
	re, err := Open(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Status("c", digV1); got != live {
		t.Fatalf("replayed status %+v != live %+v", got, live)
	}
}
