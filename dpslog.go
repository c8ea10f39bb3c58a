// Package dpslog is a differentially private search log sanitizer — a
// from-scratch Go reproduction of Hong, Vaidya, Lu & Wu, "Differentially
// Private Search Log Sanitization with Optimal Output Utility" (EDBT 2012).
//
// Given a click-through search log — tuples of (pseudonymous user-ID, query,
// clicked url, count) — the sanitizer produces an output log with the
// *identical schema* whose release satisfies (ε, δ)-probabilistic
// differential privacy, while maximizing a chosen utility objective:
//
//   - ObjectiveOutputSize: the largest possible output (O-UMP, §5.1);
//   - ObjectiveFrequent: preserve the support of frequent query-url pairs,
//     for recommendation/suggestion workloads (F-UMP, §5.2);
//   - ObjectiveDiversity: retain as many distinct query-url pairs as
//     possible (D-UMP, §5.3).
//
// The mechanism is the paper's Algorithm 1: (1) solve an optimization
// problem for the per-pair output counts, whose constraints (Theorem 1)
// guarantee differential privacy; (2) sample user-IDs for each pair with
// multinomial trials driven by the input's query-url-user histogram. The
// optimization substrate (a bounded-variable revised simplex and a suite of
// binary-program solvers) is implemented in this repository with no
// dependencies outside the Go standard library.
//
// Beyond the paper's pipeline, Mechanisms lists the registered release
// mechanisms (internal/mechanism): "ump" plus the aggregate baselines it is
// compared against — "laplace" (Korolova-style noised histogram) and
// "zealous" (Götz et al. two-threshold), which count each kept pair once
// per user. SanitizeMechanism runs any of them by name and
// MechanismCost reports the (ε, δ) a release charges; Options.Mechanism
// selects one on the wire.
//
// # Quick start
//
//	in, _ := dpslog.Generate("tiny", 1) // or dpslog.ReadTSV(file)
//	s, _ := dpslog.New(dpslog.Options{
//		Epsilon:   math.Log(2), // e^ε = 2
//		Delta:     0.5,
//		Objective: dpslog.ObjectiveOutputSize,
//		Seed:      42,
//	})
//	res, _ := s.Sanitize(in)
//	dpslog.WriteTSV(os.Stdout, res.Output)
//
// Every Result is audited against Theorem 1 before it is returned, and
// VerifyCounts lets downstream users re-audit any plan independently.
package dpslog

import (
	"io"

	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
)

// Record is a single search log tuple: user s_k issued query q_i, clicked
// url u_j, count times.
type Record = searchlog.Record

// PairKey identifies a distinct click-through query-url pair.
type PairKey = searchlog.PairKey

// Log is an immutable click-through search log. Build one with NewLog,
// ReadTSV or ReadAOL, or synthesize one with Generate.
type Log = searchlog.Log

// Stats summarizes a log like the paper's Table 3.
type Stats = searchlog.Stats

// PreprocessStats reports what the unique-pair preprocessing removed.
type PreprocessStats = searchlog.PreprocessStats

// NewLog builds a Log from records, accumulating duplicate
// (user, query, url) rows.
func NewLog(recs []Record) (*Log, error) { return searchlog.FromRecords(recs) }

// ReadTSV parses the canonical 4-column format: user, query, url, count.
func ReadTSV(r io.Reader) (*Log, error) { return searchlog.ReadTSV(r) }

// WriteTSV writes the canonical 4-column format and returns the rows written.
func WriteTSV(w io.Writer, l *Log) (int, error) { return searchlog.WriteTSV(w, l) }

// ReadAOL parses the historical AOL 5-column release format, keeping only
// rows with clicks.
func ReadAOL(r io.Reader) (*Log, error) { return searchlog.ReadAOL(r) }

// Preprocess removes every unique query-url pair (a pair entirely held by
// one user), as required by Condition 1 of the paper's Theorem 1. Sanitize
// applies it automatically; it is exported for callers that want to inspect
// the preprocessed input or compute λ bounds themselves.
func Preprocess(l *Log) (*Log, PreprocessStats) { return searchlog.Preprocess(l) }

// ComputeStats derives Table-3 style characteristics of a log.
func ComputeStats(l *Log) Stats { return searchlog.ComputeStats(l) }

// Digest returns the hex SHA-256 of the log's canonical TSV serialization —
// a stable corpus identity, independent of record order. The slserve plan
// cache keys on (Digest, Options.Canonical()).
func Digest(l *Log) string { return l.Digest() }

// Generate synthesizes an AOL-like corpus for one of the GenerateProfiles
// names: "tiny", "small", "paper" and the ingest-stress "dense" are
// single-market logs (see DESIGN.md for the calibration); "tiny-sharded",
// "small-sharded" and "paper-sharded" are multi-market logs whose user–pair
// graphs decompose into one connected component per market (DESIGN.md §6).
// The result is deterministic in the seed. The returned log is raw —
// Sanitize will preprocess it.
func Generate(profile string, seed uint64) (*Log, error) {
	p, err := gen.Profiles(profile)
	if err != nil {
		return nil, err
	}
	return gen.Generate(p, seed)
}

// GenerateProfiles lists the available synthetic corpus profiles.
func GenerateProfiles() []string { return gen.ProfileNames() }
