package dpslog

import (
	"context"
	"fmt"

	"dpslog/internal/mechanism"
)

// This file is the public face of the pluggable mechanism registry
// (internal/mechanism): enumerate the registered mechanisms, run one by
// its wire name, and ask what a release would charge — the same dispatch
// the HTTP server uses.

// MechanismRelease is the output of one mechanism run: a sanitized log
// for schema-preserving mechanisms (ump), noisy aggregate pair counts for
// the histogram mechanisms (laplace, zealous).
type MechanismRelease = mechanism.Release

// ReleasedPair is one aggregate release row: a query-url pair and its
// noisy count.
type ReleasedPair = mechanism.PairCount

// Mechanisms lists the registered mechanism wire names in sorted order.
func Mechanisms() []string { return mechanism.Names() }

// SanitizeMechanism validates the options and runs the mechanism named by
// opts.Mechanism ("" and "ump" select the paper's pipeline) over the
// input log. All mechanisms are deterministic in opts.Seed.
func SanitizeMechanism(ctx context.Context, in *Log, opts Options) (*MechanismRelease, error) {
	m, err := mechanism.Get(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(opts); err != nil {
		return nil, err
	}
	return m.Sanitize(ctx, in, opts)
}

// MechanismCost reports the (ε, δ) the named mechanism declares for one
// release under the given options — what the server's ledger charges a
// corpus budget.
func MechanismCost(opts Options) (Budget, error) {
	m, err := mechanism.Get(opts.Mechanism)
	if err != nil {
		return Budget{}, err
	}
	return m.Cost(opts), nil
}

// errNotSchemaPreserving reports an aggregate mechanism handed to the
// schema-preserving Sanitizer API.
func errNotSchemaPreserving(name string) error {
	return fmt.Errorf("dpslog: mechanism %q releases aggregate counts, not a sanitized log; use SanitizeMechanism", name)
}
