package mechanism

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// contentDigest hashes the log's TSV rendering afresh. Log.Digest caches
// its first result, so it alone cannot show a mutation made after it ran.
func contentDigest(t *testing.T, l *searchlog.Log) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := searchlog.WriteTSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestMechanismContract checks the promises every registered mechanism
// makes to the plan cache, the ledger and its callers: Canonical is
// idempotent, Cost is invariant under Canonical (the ledger pre-checks
// and charges on the canonical options), the canonical options validate,
// and Sanitize does not mutate its input.
func TestMechanismContract(t *testing.T) {
	// tiny-sharded holds users with more pairs than the aggregate
	// mechanisms' contribution bounds, so bounding must truncate a copy.
	_, pre, _, err := gen.GeneratePreprocessed(gen.TinySharded(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		m, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		base := goldenOptions(name, 4)
		// The same run with every field the mechanism ignores (or
		// defaults) set to something else.
		noisy := base
		noisy.Solver, noisy.Parallelism, noisy.MinSupport = "greedy", 3, 0.01
		noisy.EpsPrime, noisy.Comp = 0.5, ump.NewComponentCache(0)
		if name == "ump" {
			noisy.Mechanism = ""
			noisy.D = 4
		}
		for _, o := range []Options{base, noisy} {
			if err := m.Validate(o); err != nil {
				t.Fatalf("%s: test options invalid: %v", name, err)
			}
			c := m.Canonical(o)
			if cc := m.Canonical(c); cc != c {
				t.Errorf("%s: Canonical not idempotent:\n%+v\n%+v", name, c, cc)
			}
			if got, want := m.Cost(o), m.Cost(c); got != want {
				t.Errorf("%s: Cost(o) = %+v, Cost(Canonical(o)) = %+v", name, got, want)
			}
			if err := m.Validate(c); err != nil {
				t.Errorf("%s: canonical options fail validation: %v", name, err)
			}
			if c.Comp != nil {
				t.Errorf("%s: Canonical kept the component cache", name)
			}
			if c != m.Canonical(base) {
				t.Errorf("%s: ignored fields survive Canonical:\n%+v\n%+v", name, c, m.Canonical(base))
			}

			before, cached := contentDigest(t, pre), pre.Digest()
			if _, err := m.Sanitize(context.Background(), pre, o); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if after := contentDigest(t, pre); after != before {
				t.Errorf("%s: Sanitize mutated its input log", name)
			}
			if pre.Digest() != cached {
				t.Errorf("%s: input Log.Digest changed across Sanitize", name)
			}
		}
	}
}
