package ledger

// Version-aware accounting (PR 10): an append-only corpus grows a chain of
// immutable versions, each with its own digest, and the ledger must treat
// every version as its own dataset — spend never migrates along the chain,
// ancestor replays stay free forever, and a version appearing mid-flight
// can never alter the identity or the accounting of a release that was
// admitted against an older digest.

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// Digests standing in for a three-version append chain of one corpus.
const (
	digV1 = "sha-v1"
	digV2 = "sha-v2"
	digV3 = "sha-v3"
)

// TestVersionSpendIsPerDigest: each version of an appended corpus spends
// from its own allowance. Exhausting the parent leaves every descendant's
// budget whole, and vice versa — an append never launders or inherits
// spend.
func TestVersionSpendIsPerDigest(t *testing.T) {
	eps := math.Log(2)
	l, _ := openTest(t, Budget{Epsilon: 2 * eps, Delta: 1.0})

	// Exhaust v1 with two releases.
	for i := 1; i <= 2; i++ {
		if _, spent, err := charge(l, "c", digV1, fmt.Sprintf("v1-key-%d", i), eps, 0.5); err != nil || !spent {
			t.Fatalf("v1 release %d: spent=%v err=%v", i, spent, err)
		}
	}
	var over *OverBudgetError
	if _, _, err := charge(l, "c", digV1, "v1-key-3", eps, 0.5); !errors.As(err, &over) {
		t.Fatalf("v1 over budget: want OverBudgetError, got %v", err)
	}

	// v2 and v3 (same corpus name, later versions) are untouched datasets.
	for _, dig := range []string{digV2, digV3} {
		if s := l.Spent(dig); s.Epsilon != 0 || s.Delta != 0 {
			t.Fatalf("%s inherited spend %+v from its ancestor", dig, s)
		}
		if r := l.Remaining(dig); math.Abs(r.Epsilon-2*eps) > 1e-12 || r.Delta != 1.0 {
			t.Fatalf("%s remaining %+v, want the full budget", dig, r)
		}
		if _, spent, err := charge(l, "c", dig, dig+"-key-1", eps, 0.5); err != nil || !spent {
			t.Fatalf("%s first release: spent=%v err=%v", dig, spent, err)
		}
	}

	// And spending on v2 did not widen v1's exhausted allowance.
	if err := l.Check(digV1, "v1-key-4", eps, 0.5); !errors.As(err, &over) {
		t.Fatalf("v1 after v2 spend: want OverBudgetError, got %v", err)
	}
	// Per-digest release logs stay disjoint.
	if n1, n2, n3 := l.ReleaseCount(digV1), l.ReleaseCount(digV2), l.ReleaseCount(digV3); n1 != 2 || n2 != 1 || n3 != 1 {
		t.Fatalf("release counts v1=%d v2=%d v3=%d, want 2/1/1", n1, n2, n3)
	}
}

// TestAncestorReplayFreeAcrossRestart: a release journaled against an old
// version stays an idempotent (free) replay after appends move the corpus
// on AND after a process restart replays the journal.
func TestAncestorReplayFreeAcrossRestart(t *testing.T) {
	eps := math.Log(2)
	budget := Budget{Epsilon: 2 * eps, Delta: 1.0}
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
	if s := l2.Spent(digV1); math.Abs(s.Epsilon-eps) > 1e-12 || s.Delta != 0.5 {
		t.Fatalf("v1 spend after replay %+v, want one release's cost", s)
	}
	// Check agrees: the journaled key is admitted even with no headroom.
	exhausted, _ := openTest(t, Budget{})
	if _, _, err := charge(exhausted, "c", digV1, "tiny", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := exhausted.Check(digV1, "tiny", eps, 0.5); err != nil {
		t.Fatalf("journaled key refused on zero budget: %v", err)
	}
}

// TestAppendMidFlightKeepsReleaseIdentity: a release admitted against v1
// commits with v1's digest and key even when an append journals v2
// releases between the admission probe and the binding charge — the
// in-flight release's identity and accounting are pinned at admission
// time, not at commit time.
func TestAppendMidFlightKeepsReleaseIdentity(t *testing.T) {
	eps := math.Log(2)
	l, _ := openTest(t, Budget{Epsilon: 2 * eps, Delta: 1.0})

	// The handler resolved version v1 and probed admission.
	if err := l.Check(digV1, "v1-key", eps, 0.5); err != nil {
		t.Fatalf("admission probe: %v", err)
	}

	// While the v1 solve runs, an append creates v2 and spends on it.
	if _, _, err := charge(l, "c", digV2, "v2-key-a", eps, 0.5); err != nil {
		t.Fatalf("mid-flight v2 release: %v", err)
	}
	if _, _, err := charge(l, "c", digV2, "v2-key-b", eps, 0.5); err != nil {
		t.Fatalf("mid-flight v2 release: %v", err)
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
	// It charged v1 — not the version the append made current.
	if s := l.Spent(digV1); math.Abs(s.Epsilon-eps) > 1e-12 || s.Delta != 0.5 {
		t.Fatalf("v1 spend %+v, want exactly the in-flight release", s)
	}
	if s := l.Spent(digV2); math.Abs(s.Epsilon-2*eps) > 1e-12 || s.Delta != 1.0 {
		t.Fatalf("v2 spend %+v, want the two mid-flight releases", s)
	}
	// Re-serving the in-flight release later is an idempotent replay even
	// though v1 is no longer the latest version.
	if replay, spent, err := charge(l, "c", digV1, "v1-key", eps, 0.5); err != nil || spent || replay.Seq != rel.Seq {
		t.Fatalf("replay of superseded version: seq=%d spent=%v err=%v", replay.Seq, spent, err)
	}
}
