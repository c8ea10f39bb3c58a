package mechanism

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dpslog/internal/ledger"
	"dpslog/internal/metrics"
	"dpslog/internal/searchlog"
)

// Mechanism is one sanitization mechanism behind the pluggable API. All
// implementations are deterministic in Options.Seed and must not mutate
// the input log.
type Mechanism interface {
	// Name is the wire name of the mechanism (the ?mechanism= value and
	// the registry key).
	Name() string
	// Validate rejects option combinations the mechanism cannot run.
	Validate(opts Options) error
	// Canonical zeroes the fields the mechanism ignores and materializes
	// its defaults, producing the identity the server's release key and
	// the release ledger key on. Two option values with equal canonical forms must
	// produce byte-identical releases.
	Canonical(opts Options) Options
	// Cost declares the (ε, δ) this mechanism charges a corpus budget per
	// release under sequential composition. It is a pure function of the
	// options: the ledger pre-checks it before any work is done.
	Cost(opts Options) ledger.Budget
	// Sanitize runs the mechanism over the input log.
	Sanitize(ctx context.Context, in *searchlog.Log, opts Options) (*Release, error)
}

// PairCount is one released aggregate row: a query-url pair and its noisy
// count. There is deliberately no user-ID field: that is the schema loss
// the paper's mechanism avoids (§2.1).
type PairCount struct {
	Query string
	URL   string
	Count float64
}

// Release is the output of one mechanism run. Exactly one of Output
// (schema-preserving mechanisms: a sanitized log with user-IDs) and Pairs
// (aggregate mechanisms: noisy pair counts) is populated.
type Release struct {
	// Mechanism is the producing mechanism's Name.
	Mechanism string
	// Output is the sanitized log for schema-preserving mechanisms (UMP).
	Output *searchlog.Log
	// Result carries the full UMP pipeline outcome (plan, preprocessing
	// stats) when Output is set.
	Result *Result
	// Pairs is the aggregate release for the histogram mechanisms.
	Pairs []PairCount
	// BoundedUsers counts users truncated by a contribution bound.
	BoundedUsers int
}

// Rows is the released row count: output tuples for a schema-preserving
// release, histogram rows for an aggregate one.
func (r *Release) Rows() int {
	if r.Output != nil {
		return r.Output.Size()
	}
	return len(r.Pairs)
}

// SupportsUserAnalysis reports whether per-user analyses (query
// association, session studies) are possible on this release — true only
// for the schema-preserving mechanisms.
func (r *Release) SupportsUserAnalysis() bool { return r.Output != nil }

// Digest is a stable content hash of the release: the output log's digest
// for schema-preserving releases, a sha256 over the sorted pair rows for
// aggregate ones. Equal seeds and options must yield equal digests; the
// HTTP tests pin determinism on this.
func (r *Release) Digest() string {
	if r.Output != nil {
		return r.Output.Digest()
	}
	h := sha256.New()
	for _, pc := range r.Pairs {
		h.Write([]byte(pc.Query))
		h.Write([]byte{'\t'})
		h.Write([]byte(pc.URL))
		h.Write([]byte{'\t'})
		h.Write([]byte(strconv.FormatFloat(pc.Count, 'g', -1, 64)))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FrequentRecall evaluates Equation 9's Recall of the release against the
// input's frequent pairs at minimum support s, uniformly across release
// shapes: plan supports for a schema-preserving release, noisy-mass shares
// for an aggregate one.
func (r *Release) FrequentRecall(in *searchlog.Log, s float64) float64 {
	if r.Output != nil {
		_, recall := metrics.PlanPrecisionRecall(in, r.Result.Preprocessed, r.Result.Plan.Counts, s)
		return recall
	}
	inFreq := metrics.FrequentPairs(in, s)
	if len(inFreq) == 0 {
		return 1
	}
	// A released pair counts as frequent when its noisy share of the
	// positive released mass is ≥ s.
	total := 0.0
	for _, pc := range r.Pairs {
		if pc.Count > 0 {
			total += pc.Count
		}
	}
	hit := 0
	for _, pc := range r.Pairs {
		if _, ok := inFreq[searchlog.PairKey{Query: pc.Query, URL: pc.URL}]; ok && total > 0 && pc.Count/total >= s {
			hit++
		}
	}
	return float64(hit) / float64(len(inFreq))
}

// registry maps wire names to mechanisms. Registration happens in this
// package's init only, so reads need no locking.
var registry = map[string]Mechanism{}

func register(m Mechanism) {
	if _, dup := registry[m.Name()]; dup {
		panic(fmt.Sprintf("mechanism: duplicate registration of %q", m.Name()))
	}
	registry[m.Name()] = m
}

func init() {
	register(umpMechanism{})
	register(laplaceMechanism)
	register(zealousMechanism)
}

// Get resolves a wire name to its mechanism. The empty string and "ump"
// both resolve to the paper's UMP pipeline, the default.
func Get(name string) (Mechanism, error) {
	if name == "" {
		name = "ump"
	}
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("dpslog: unknown mechanism %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return m, nil
}

// Names lists the registered mechanism names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
