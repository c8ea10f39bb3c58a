// Package ledger accounts the cumulative (ε, δ) privacy expenditure of
// every sanitized release of a corpus, under sequential composition: the
// differential privacy guarantee is a property of *all* releases of a
// dataset, not of one mechanism invocation, so spending is summed per
// lineage and releases that would push the total past the configured
// budget are refused.
//
// The unit of account is the *lineage*: a connected component of corpus
// names and dataset digests, where each journaled release links the name
// it was requested under to the digest it was computed from. Every
// version of an appended corpus is released under the corpus's name, so
// the whole version chain draws on one budget; deleting and re-uploading
// a name continues its lineage, and two names join once either releases a
// digest the other has released. Identical releases — the same (digest,
// canonical options, seed), which reproduce the same output bytes — are
// idempotent: repeating an already-journaled release costs nothing, while
// any variation (a new seed, a different budget, another version)
// composes sequentially and is charged in full. Each entry records the
// digest of the bytes its release produced, so the caller can check that a
// repeat re-derived exactly those bytes; the ledger itself only accounts.
//
// Every accepted release is appended to a JSON-lines journal and fsynced
// before it is committed in memory, so accounting survives crashes: Open
// replays the journal through the same commit step live charging uses,
// tolerating (and truncating) a torn final line from a mid-write crash.
// Failure ordering errs on the private side — a release is never handed
// out before its journal entry is durable.
package ledger

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
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
	// Corpus is the store name the release was requested under. With
	// Digest it is one edge of the lineage graph: the release joins the
	// name's lineage and the digest's into one.
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

// Status is one snapshot of a lineage's accounting, read under one lock so
// that Spent + Remaining = Budget (until spend passes the budget) and
// Releases counts exactly the entries Spent sums.
type Status struct {
	Budget    Budget `json:"budget"`
	Spent     Budget `json:"spent"`
	Remaining Budget `json:"remaining"`
	Releases  int    `json:"releases"`
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
	return fmt.Sprintf("ledger: release (ε=%g, δ=%g) exceeds lineage budget: spent (ε=%g, δ=%g) of (ε=%g, δ=%g), remaining (ε=%g, δ=%g)",
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
	off      int64            // durable journal length in bytes
	journal  []Release        // every entry, in Seq order
	byKey    map[string]int   // idempotency index into journal
	parent   map[node]node    // union-find forest; roots have no entry
	lineages map[node]lineage // root → the lineage's accounting
	now      func() time.Time
}

// node is a vertex of the lineage graph: a corpus name or a dataset digest
// (kept apart, since a name may spell a digest).
type node struct {
	name bool
	id   string
}

// lineage is the accounting of one connected component of the graph.
type lineage struct {
	spent    Budget // Σ(ε, δ)
	releases int
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
		byKey:    make(map[string]int),
		parent:   make(map[node]node),
		lineages: make(map[node]lineage),
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

// commit applies one journaled release to the in-memory state: it links
// the release's name and digest into one lineage and charges it there.
// Callers hold mu (or have exclusive access during replay).
func (l *Ledger) commit(rel Release) {
	if rel.Seq > l.seq {
		l.seq = rel.Seq
	}
	root := l.find(node{id: rel.Digest})
	if rel.Corpus != "" {
		root = l.union(root, l.find(node{name: true, id: rel.Corpus}))
	}
	lin := l.lineages[root]
	lin.spent.Epsilon += rel.Epsilon
	lin.spent.Delta += rel.Delta
	lin.releases++
	l.lineages[root] = lin
	l.byKey[rel.Key] = len(l.journal)
	l.journal = append(l.journal, rel)
}

// find returns the root of n's lineage; a node never released is its own.
func (l *Ledger) find(n node) node {
	for {
		p, ok := l.parent[n]
		if !ok {
			return n
		}
		if gp, ok := l.parent[p]; ok {
			l.parent[n] = gp // path halving
			p = gp
		}
		n = p
	}
}

// union joins the lineages rooted at a and b, the smaller under the larger,
// and returns the joint root.
func (l *Ledger) union(a, b node) node {
	if a == b {
		return a
	}
	la, lb := l.lineages[a], l.lineages[b]
	if la.releases < lb.releases {
		a, b, la, lb = b, a, lb, la
	}
	la.spent.Epsilon += lb.spent.Epsilon
	la.spent.Delta += lb.spent.Delta
	la.releases += lb.releases
	l.lineages[a] = la
	delete(l.lineages, b)
	l.parent[b] = a
	return a
}

// roots returns the distinct lineages a release of digest under corpus
// would join: the digest's and, when corpus is named, the name's.
func (l *Ledger) roots(corpus, digest string) []node {
	roots := []node{l.find(node{id: digest})}
	if r := l.find(node{name: true, id: corpus}); corpus != "" && r != roots[0] {
		roots = append(roots, r)
	}
	return roots
}

// Close releases the journal file. The Ledger must not be used afterwards.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Status snapshots, under one lock, the accounting a release of digest
// under the corpus name would face: the summed spend and release count of
// the lineages it would join, and the allowance left, clamped at zero
// (replaying a journal written under a larger budget can leave spend above
// the current one). An empty corpus reads the digest's lineage alone.
func (l *Ledger) Status(corpus, digest string) Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.statusLocked(corpus, digest)
}

func (l *Ledger) statusLocked(corpus, digest string) Status {
	st := Status{Budget: l.budget}
	for _, root := range l.roots(corpus, digest) {
		lin := l.lineages[root]
		st.Spent.Epsilon += lin.spent.Epsilon
		st.Spent.Delta += lin.spent.Delta
		st.Releases += lin.releases
	}
	st.Remaining = Budget{
		Epsilon: max(0, l.budget.Epsilon-st.Spent.Epsilon),
		Delta:   max(0, l.budget.Delta-st.Spent.Delta),
	}
	return st
}

// Releases returns the journal entries of the lineages Status reads,
// oldest first. Each entry carries its own digest, so the list is the
// lineage's per-version breakdown.
func (l *Ledger) Releases(corpus, digest string) []Release {
	l.mu.Lock()
	defer l.mu.Unlock()
	roots := l.roots(corpus, digest)
	var out []Release
	for _, rel := range l.journal {
		if slices.Contains(roots, l.find(node{id: rel.Digest})) {
			out = append(out, rel)
		}
	}
	return out
}

// Check is the non-binding admission probe: it reports whether rel (its
// Corpus, Digest, Key and cost) would be admitted right now, without
// spending. Callers use it to refuse obviously over-budget requests before
// paying for a solve; the binding decision is Charge's, after the solve
// succeeds. When ctx carries an active obs trace, Check records a
// "ledger.check" span.
func (l *Ledger) Check(ctx context.Context, rel Release) error {
	_, sp := obs.Start(ctx, "ledger.check")
	defer sp.End()
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.byKey[rel.Key]; ok {
		sp.SetAttr("idempotent", true)
		return nil // replay of a journaled release: free
	}
	err := l.overLocked(rel)
	sp.SetAttr("admitted", err == nil)
	return err
}

// CheckCtx is Check for a release probed by digest alone: it sees the
// digest's lineage but not the lineage of a name the release would join.
func (l *Ledger) CheckCtx(ctx context.Context, digest, key string, eps, delta float64) error {
	return l.Check(ctx, Release{Digest: digest, Key: key, Epsilon: eps, Delta: delta})
}

// overLocked admits rel only if its cost, plus the spend of every lineage
// it would join, fits the budget.
func (l *Ledger) overLocked(rel Release) error {
	st := l.statusLocked(rel.Corpus, rel.Digest)
	if st.Spent.Epsilon+rel.Epsilon <= l.budget.Epsilon+budgetTol && st.Spent.Delta+rel.Delta <= l.budget.Delta+budgetTol {
		return nil
	}
	return &OverBudgetError{
		Digest:    rel.Digest,
		Requested: Budget{Epsilon: rel.Epsilon, Delta: rel.Delta},
		Budget:    l.budget,
		Spent:     st.Spent,
		Remaining: st.Remaining,
	}
}

// Charge atomically admits and journals one release. The caller fills rel's
// identity and cost (Corpus, Digest, Key, Mechanism, ReleaseDigest, Epsilon,
// Delta); Charge assigns Seq and Time. It returns the journaled entry and
// whether new budget was spent: a Key already in the journal is an
// idempotent replay (the existing entry, spent=false, nothing journaled);
// otherwise the cost is checked as Check does, against the lineages the
// release would join, the entry is appended and fsynced, and only then
// committed in memory, linking those lineages into one. On an
// *OverBudgetError nothing is spent and the release must be withheld. When
// ctx carries an active obs trace, Charge records a "ledger.charge" span
// with child spans around the journal append and fsync.
func (l *Ledger) Charge(ctx context.Context, rel Release) (Release, bool, error) {
	ctx, sp := obs.Start(ctx, "ledger.charge")
	defer sp.End()
	l.mu.Lock()
	defer l.mu.Unlock()
	if i, ok := l.byKey[rel.Key]; ok {
		sp.SetAttr("idempotent", true)
		return l.journal[i], false, nil
	}
	if err := l.overLocked(rel); err != nil {
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
