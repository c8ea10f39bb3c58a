// Package ledger accounts the cumulative (ε, δ) privacy expenditure of
// every sanitized release of a corpus, under sequential composition: the
// differential privacy guarantee is a property of *all* releases of a
// dataset, not of one mechanism invocation, so spending is summed per
// corpus and releases that would push the total past the configured budget
// are refused.
//
// Accounting is keyed by corpus *digest*, not by name: two names bound to
// byte-identical data share one budget (they are the same dataset), and
// deleting or renaming a corpus cannot reset its spend. Identical releases
// — the same (digest, canonical options, seed), which reproduce the same
// output bytes — are idempotent: repeating an already-journaled release
// costs nothing, while any variation (a new seed, a different budget)
// composes sequentially and is charged in full. Each entry records the
// digest of the bytes its release produced, so the caller can check that a
// repeat re-derived exactly those bytes; the ledger itself only accounts.
//
// Every accepted release is appended to a JSON-lines journal and fsynced
// before it is committed in memory, so accounting survives crashes: Open
// replays the journal, tolerating (and truncating) a torn final line from
// a mid-write crash. Failure ordering errs on the private side — a release
// is never handed out before its journal entry is durable.
package ledger

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dpslog/internal/obs"
)

// Budget is an (ε, δ) differential privacy allowance. The zero value means
// "nothing left".
type Budget struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// budgetTol absorbs float accumulation error in Σε comparisons so that a
// budget sized for exactly K releases admits exactly K.
const budgetTol = 1e-9

// Release is one journaled sanitization release of a corpus.
type Release struct {
	// Seq numbers releases 1.. in journal order, across all corpora.
	Seq int `json:"seq"`
	// Corpus is the store name the release was requested under —
	// informational; accounting keys on Digest.
	Corpus string `json:"corpus"`
	// Digest identifies the released dataset (hex SHA-256 of its canonical
	// TSV form).
	Digest string `json:"digest"`
	// Key is the idempotency identity: digest ⊕ canonical options ⊕ seed.
	// A release with a key already in the journal reproduces known output
	// bytes and is served free of charge.
	Key string `json:"key"`
	// Mechanism is the resolved wire name of the mechanism that produced
	// the release: "ump", "laplace", "zealous", or "localdp" in journals
	// written before that mechanism was retired (its spend still counts).
	// Informational — the identity lives in Key, whose canonical options
	// embed the mechanism — but ops reading the journal should not have to
	// parse the key to see which mechanism spent the budget. Empty in
	// journals written before mechanisms existed (all of which were UMP).
	Mechanism string `json:"mechanism,omitempty"`
	// ReleaseDigest is the content hash of the bytes this release produced
	// (mechanism.Release.Digest). Every mechanism is deterministic in the
	// Key, so a repeat of the Key must re-derive exactly this digest; the
	// server withholds a repeat that does not. Empty in journals written
	// before releases recorded their output, whose repeats are checked for
	// spend only.
	ReleaseDigest string `json:"release_digest,omitempty"`
	// Epsilon and Delta are the privacy cost charged for this release
	// (ε plus ε′ when the end-to-end mode also spends on noisy counts).
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// Time is the server clock at charge time.
	Time time.Time `json:"time"`
}

// OverBudgetError reports a refused release with the full accounting
// picture, so callers can surface the remaining allowance to clients.
type OverBudgetError struct {
	Digest    string
	Requested Budget
	Budget    Budget
	Spent     Budget
	Remaining Budget
}

func (e *OverBudgetError) Error() string {
	return fmt.Sprintf("ledger: release (ε=%g, δ=%g) exceeds corpus budget: spent (ε=%g, δ=%g) of (ε=%g, δ=%g), remaining (ε=%g, δ=%g)",
		e.Requested.Epsilon, e.Requested.Delta, e.Spent.Epsilon, e.Spent.Delta,
		e.Budget.Epsilon, e.Budget.Delta, e.Remaining.Epsilon, e.Remaining.Delta)
}

// Ledger is the durable budget accountant. All methods are safe for
// concurrent use; Charge serializes check-and-spend so concurrent releases
// can never jointly overshoot the budget.
type Ledger struct {
	mu       sync.Mutex
	budget   Budget
	path     string
	f        *os.File
	seq      int
	off      int64                // durable journal length in bytes
	spent    map[string]Budget    // digest → Σ(ε, δ)
	releases map[string][]Release // digest → journal entries, in order
	byKey    map[string]*Release  // idempotency index
	now      func() time.Time
}

// Open loads (or creates) the journal at path and replays it into an
// in-memory accounting state. A torn final line — a crash mid-append — is
// truncated away; any earlier malformed line is an error, since silently
// dropping interior entries would under-count spending.
func Open(path string, budget Budget) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open journal: %w", err)
	}
	l := &Ledger{
		budget:   budget,
		path:     path,
		f:        f,
		spent:    make(map[string]Budget),
		releases: make(map[string][]Release),
		byKey:    make(map[string]*Release),
		now:      time.Now,
	}
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay rebuilds the accounting maps from the journal and positions the
// file at its durable end.
func (l *Ledger) replay() error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("ledger: seek journal: %w", err)
	}
	r := bufio.NewReader(l.f)
	var (
		durable      int64 // byte offset after the last intact line
		lineNo       int
		repairTailNL bool // final line parsed but lost its '\n' in a crash
	)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("ledger: read journal: %w", err)
		}
		atEOF := err == io.EOF
		lineNo++
		var rel Release
		if jerr := json.Unmarshal(line, &rel); jerr != nil || rel.Digest == "" || rel.Key == "" {
			if atEOF {
				break // torn final line from a crash mid-append; truncate below
			}
			return fmt.Errorf("ledger: journal %s line %d is corrupt (not at tail): %v", l.path, lineNo, jerr)
		}
		l.commit(rel)
		durable += int64(len(line))
		if atEOF {
			// The entry is complete except for its terminator (a crash could
			// persist the bytes but not the '\n'). Keeping it errs on the
			// private side — the release may have been handed out — but the
			// missing newline must be restored, or the next append would
			// concatenate two entries onto one unparseable line.
			repairTailNL = true
			break
		}
	}
	if err := l.f.Truncate(durable); err != nil {
		return fmt.Errorf("ledger: truncate torn journal tail: %w", err)
	}
	if _, err := l.f.Seek(durable, io.SeekStart); err != nil {
		return fmt.Errorf("ledger: seek journal end: %w", err)
	}
	if repairTailNL {
		if _, err := l.f.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("ledger: repair journal tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("ledger: repair journal tail: %w", err)
		}
		durable++
	}
	l.off = durable
	return nil
}

// commit applies one journaled release to the in-memory state. Callers hold
// mu (or have exclusive access during replay).
func (l *Ledger) commit(rel Release) {
	if rel.Seq > l.seq {
		l.seq = rel.Seq
	}
	b := l.spent[rel.Digest]
	b.Epsilon += rel.Epsilon
	b.Delta += rel.Delta
	l.spent[rel.Digest] = b
	l.releases[rel.Digest] = append(l.releases[rel.Digest], rel)
	stored := &l.releases[rel.Digest][len(l.releases[rel.Digest])-1]
	l.byKey[rel.Key] = stored
}

// Close releases the journal file. The Ledger must not be used afterwards.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Budget returns the configured per-corpus allowance.
func (l *Ledger) Budget() Budget {
	return l.budget
}

// Spent returns the cumulative (ε, δ) charged against a corpus digest.
func (l *Ledger) Spent(digest string) Budget {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spent[digest]
}

// Remaining returns the allowance left for a corpus digest, clamped at
// zero (replaying a journal written under a larger budget can leave spend
// above the current one).
func (l *Ledger) Remaining(digest string) Budget {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.remainingLocked(digest)
}

func (l *Ledger) remainingLocked(digest string) Budget {
	s := l.spent[digest]
	return Budget{
		Epsilon: max(0, l.budget.Epsilon-s.Epsilon),
		Delta:   max(0, l.budget.Delta-s.Delta),
	}
}

// Releases returns the journal entries for a corpus digest, oldest first.
func (l *Ledger) Releases(digest string) []Release {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Release, len(l.releases[digest]))
	copy(out, l.releases[digest])
	return out
}

// ReleaseCount returns the number of journaled releases for a corpus
// digest without copying the journal (hot-path accounting snapshots and
// metrics scrapes need only the count).
func (l *Ledger) ReleaseCount(digest string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.releases[digest])
}

// Check is the non-binding admission probe: it reports whether a release
// of the given cost would be admitted right now, without spending. Callers
// use it to refuse obviously over-budget requests before paying for a
// solve; the binding decision is Charge's, after the solve succeeds.
func (l *Ledger) Check(digest, key string, eps, delta float64) error {
	return l.CheckCtx(context.Background(), digest, key, eps, delta)
}

// CheckCtx is Check with a "ledger.check" span when ctx carries an active
// obs trace.
func (l *Ledger) CheckCtx(ctx context.Context, digest, key string, eps, delta float64) error {
	_, sp := obs.Start(ctx, "ledger.check")
	defer sp.End()
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.byKey[key]; ok {
		sp.SetAttr("idempotent", true)
		return nil // replay of a journaled release: free
	}
	err := l.overLocked(digest, eps, delta)
	sp.SetAttr("admitted", err == nil)
	return err
}

func (l *Ledger) overLocked(digest string, eps, delta float64) error {
	s := l.spent[digest]
	if s.Epsilon+eps <= l.budget.Epsilon+budgetTol && s.Delta+delta <= l.budget.Delta+budgetTol {
		return nil
	}
	return &OverBudgetError{
		Digest:    digest,
		Requested: Budget{Epsilon: eps, Delta: delta},
		Budget:    l.budget,
		Spent:     s,
		Remaining: l.remainingLocked(digest),
	}
}

// Charge atomically admits and journals one release. The caller fills rel's
// identity and cost (Corpus, Digest, Key, Mechanism, ReleaseDigest, Epsilon,
// Delta); Charge assigns Seq and Time. It returns the journaled entry and
// whether new budget was spent: a Key already in the journal is an
// idempotent replay (the existing entry, spent=false, nothing journaled);
// otherwise the cost is checked against the remaining allowance, the entry
// is appended and fsynced, and only then committed in memory. On an
// *OverBudgetError nothing is spent and the release must be withheld. When
// ctx carries an active obs trace, Charge records a "ledger.charge" span
// with child spans around the journal append and fsync.
func (l *Ledger) Charge(ctx context.Context, rel Release) (Release, bool, error) {
	ctx, sp := obs.Start(ctx, "ledger.charge")
	defer sp.End()
	l.mu.Lock()
	defer l.mu.Unlock()
	if prior, ok := l.byKey[rel.Key]; ok {
		sp.SetAttr("idempotent", true)
		return *prior, false, nil
	}
	if err := l.overLocked(rel.Digest, rel.Epsilon, rel.Delta); err != nil {
		sp.SetAttr("admitted", false)
		return Release{}, false, err
	}
	rel.Seq = l.seq + 1
	rel.Time = l.now().UTC()
	line, err := json.Marshal(rel)
	if err != nil {
		return Release{}, false, fmt.Errorf("ledger: marshal release: %w", err)
	}
	line = append(line, '\n')
	_, asp := obs.Start(ctx, "ledger.append")
	asp.SetAttr("bytes", len(line))
	_, werr := l.f.Write(line)
	asp.End()
	if werr != nil {
		// A partial append would corrupt the journal interior for later
		// appends; roll the file back to its durable length.
		l.f.Truncate(l.off)
		l.f.Seek(l.off, io.SeekStart)
		return Release{}, false, fmt.Errorf("ledger: append journal: %w", werr)
	}
	_, fsp := obs.Start(ctx, "ledger.fsync")
	serr := l.f.Sync()
	fsp.End()
	if serr != nil {
		l.f.Truncate(l.off)
		l.f.Seek(l.off, io.SeekStart)
		return Release{}, false, fmt.Errorf("ledger: sync journal: %w", serr)
	}
	sp.SetAttr("admitted", true)
	sp.SetAttr("eps", rel.Epsilon)
	sp.SetAttr("delta", rel.Delta)
	l.off += int64(len(line))
	l.commit(rel)
	return rel, true, nil
}

// ChargeCtx is Charge for a release whose output digest is not recorded:
// the identity and cost travel as arguments, and the producing mechanism's
// resolved name is recorded on the journal entry.
func (l *Ledger) ChargeCtx(ctx context.Context, corpus, digest, key, mech string, eps, delta float64) (Release, bool, error) {
	return l.Charge(ctx, Release{Corpus: corpus, Digest: digest, Key: key, Mechanism: mech, Epsilon: eps, Delta: delta})
}

// ErrNoLedger is returned by servers whose corpus subsystem is disabled.
var ErrNoLedger = errors.New("ledger: not configured")
