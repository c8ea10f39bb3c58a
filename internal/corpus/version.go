package corpus

// The append-only version chain of a corpus. A corpus starts life as a
// single base version (a PUT); every append folds a delta histogram into
// the latest version with searchlog.Merge and produces a new immutable
// version with its own digest. Merge is one linear pass over the two
// sorted logs that shares every row the delta leaves unchanged with the
// parent: it costs the delta plus one copy of the row headers. The new
// version's digest is the SHA-256 of its canonical TSV image, which a
// merged log splices from its parent's image, formatting only the rows of
// the users the delta touched (see searchlog.WriteTSVDigest); the first
// append after a PUT, or after an Open that found name.tsv at the chain
// head, formats every row. Two files make up a versioned corpus on disk:
//
//	name.tsv      a checkpoint: the canonical TSV of one version of the
//	              chain, the latest as of the last checkpoint
//	name.journal  the chain: one JSON line per version, holding its
//	              Version fields and, after the base, the delta that
//	              produced it as canonical TSV (internal/journal)
//
// An append writes one journal line and fsyncs it once. It rewrites
// name.tsv (temp, fsync, rename, directory fsync) only when the bytes
// journaled since the last checkpoint reach that file's size, so the
// checkpoint costs at most one corpus write per corpus-size of deltas and
// Open never folds more delta bytes than the corpus holds. Open hashes
// name.tsv, finds that digest in the chain and folds the later deltas
// forward with searchlog.Merge; the head's digest must match the journal's.
// If a delta does not parse or the fold does not reproduce the head, the
// content that can be parsed wins: the chain is truncated at the version
// name.tsv holds. If name.tsv matches nothing in the chain at all — it was
// replaced out of band — the chain is reset to a single base version,
// because the corpus a reader can actually parse must never disagree with
// the versions the API reports. A crash can therefore leave a torn journal
// line (truncated by Open: the append was never acknowledged), a complete
// line without its '\n' (kept), a checkpoint temp file (ignored) or a
// checkpoint renamed but not yet made durable (either file folds to the
// same head).
//
// Stores written before the journal kept the chain in name.versions.json
// and each delta in name.d<seq>.tsv. Open migrates such a corpus once:
// it writes the journal atomically, then removes the old files, and an
// Open that finds both (a migration cut short) keeps the journal and
// finishes the removal. The old promise that "old stores open new
// directories" is retired: a binary from before the journal finds no
// versions.json in a migrated directory and sees the checkpoint as a
// single base version.
//
// Old versions are materialized on demand by subtraction: version k's
// histogram is the latest histogram minus the deltas k+1..n, read back from
// the journal, which is exact because counts are non-negative and merging
// is addition. The recorded digest of the target version is re-verified
// after every materialization, so a corrupt delta can never silently serve
// wrong bytes under a trusted digest.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dpslog/internal/journal"
	"dpslog/internal/obs"
	"dpslog/internal/searchlog"
)

// ErrVersionNotFound reports a digest that names no version of the corpus.
var ErrVersionNotFound = errors.New("corpus: version not found")

// ErrEmptyDelta reports an append whose delta contains no positive counts.
var ErrEmptyDelta = errors.New("corpus: append delta is empty")

// Version describes one immutable version of a corpus. The chain is
// linear: each version's Parent is the digest of the version it was
// appended onto ("" for the base version).
type Version struct {
	// Digest is the hex SHA-256 of this version's canonical TSV — the
	// identity the release key is built on. Each version's releases are
	// still charged to the corpus's one lineage in the privacy ledger,
	// which the corpus name links every version into.
	Digest string `json:"digest"`
	Parent string `json:"parent,omitempty"`
	// Seq is the 1-based position in the chain (base version is 1).
	Seq int `json:"seq"`
	// Rows counts the canonical TSV rows (non-zero user-pair cells) of the
	// materialized version; DeltaRows and DeltaUsers describe the append
	// delta that produced it (zero for the base version).
	Rows       int       `json:"rows"`
	DeltaRows  int       `json:"delta_rows,omitempty"`
	DeltaUsers int       `json:"delta_users,omitempty"`
	Size       int       `json:"size"` // total click-count mass
	NumUsers   int       `json:"num_users"`
	NumPairs   int       `json:"num_pairs"`
	Created    time.Time `json:"created"`
}

// record is one line of a chain journal: a version and, for every version
// but the base, the canonical TSV of the delta that produced it.
type record struct {
	Version
	DeltaTSV string `json:"delta,omitempty"`
}

// chain is a corpus's version chain and the state of its journal.
type chain struct {
	vs  []Version
	end []int64 // journal offset just past each version's line
	// j is the open journal; nil for a corpus whose chain is the single
	// base version synthesized from a bare name.tsv, until its first append.
	j *journal.File
	// ckpt is name.tsv's size and since the journal bytes appended after
	// the version it holds: a checkpoint is due once since reaches ckpt.
	ckpt, since int64
}

// extends reports why r cannot be the next line of c, or nil if it can.
func (c *chain) extends(r record) error {
	n := len(c.vs)
	switch {
	case r.Digest == "":
		return errors.New("version without digest")
	case r.Seq != n+1:
		return fmt.Errorf("version seq %d follows %d", r.Seq, n)
	case n == 0 && (r.Parent != "" || r.DeltaTSV != ""):
		return errors.New("base version with a parent or delta")
	case n > 0 && (r.Parent != c.vs[n-1].Digest || r.DeltaTSV == ""):
		return fmt.Errorf("version %d does not extend version %d", r.Seq, n)
	}
	return nil
}

func (s *Store) journalPath(name string) string {
	return filepath.Join(s.dir, name+".journal")
}

// baseVersion synthesizes the single-entry chain of an unversioned corpus.
func baseVersion(l *searchlog.Log, digest string, created time.Time) Version {
	return Version{
		Digest:   digest,
		Seq:      1,
		Rows:     l.NumTriplets(),
		Size:     l.Size(),
		NumUsers: l.NumUsers(),
		NumPairs: l.NumPairs(),
		Created:  created.UTC(),
	}
}

// createChain atomically replaces name's journal with the lines of
// versions 1..n of from (read back from its journal past the base), closes
// the journal of the chain it replaces and installs the new chain, whose
// checkpoint name.tsv has ckpt bytes and holds version n.
func (s *Store) createChain(name string, from *chain, n int, ckpt int64) (*chain, error) {
	lines := make([][]byte, 0, n)
	for i := range n {
		line, err := s.chainLine(name, from, i)
		if err != nil {
			return nil, err
		}
		lines = append(lines, line)
	}
	j, err := journal.Create(s.journalPath(name), "corpus.journal", lines)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if old := s.chains[name]; old != nil && old.j != nil {
		old.j.Close()
	}
	c := &chain{vs: from.vs[:n:n], j: j, ckpt: ckpt}
	for _, line := range lines {
		c.end = append(c.end, c.endOf(line))
	}
	s.chains[name] = c
	return c, nil
}

// chainLine returns the journal line of c's version i: marshaled afresh
// for the base, which carries no delta, and read back from the journal for
// every later version.
func (s *Store) chainLine(name string, c *chain, i int) ([]byte, error) {
	if i == 0 {
		return json.Marshal(record{Version: c.vs[0]})
	}
	f, err := os.Open(s.journalPath(name))
	if err != nil {
		return nil, fmt.Errorf("corpus: read journal of %s: %w", name, err)
	}
	defer f.Close()
	line := make([]byte, c.end[i]-c.end[i-1]-1)
	if _, err := f.ReadAt(line, c.end[i-1]); err != nil {
		return nil, fmt.Errorf("corpus: read journal of %s: %w", name, err)
	}
	return line, nil
}

// readDelta parses the delta that produced c's version i from its journal
// line, checking that the line is still that version's.
func (s *Store) readDelta(name string, c *chain, i int) (*searchlog.Log, error) {
	line, err := s.chainLine(name, c, i)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("corpus: journal of %s: %w", name, err)
	}
	if r.Seq != c.vs[i].Seq || r.Digest != c.vs[i].Digest {
		return nil, fmt.Errorf("corpus: journal of %s: line %d holds version %d, not %d", name, i+1, r.Seq, c.vs[i].Seq)
	}
	return searchlog.ReadTSV(strings.NewReader(r.DeltaTSV))
}

// openChain replays name's chain against name.tsv, which parsed to l with
// the given digest and size. It returns the latest version's log, digest
// and canonical TSV size, and installs the chain.
func (s *Store) openChain(name string, l *searchlog.Log, digest string, size int64, mod time.Time) (*searchlog.Log, string, int64, error) {
	if err := s.migrate(name); err != nil {
		return nil, "", 0, err
	}
	base := &chain{vs: []Version{baseVersion(l, digest, mod)}, ckpt: size}
	if _, err := os.Stat(s.journalPath(name)); errors.Is(err, os.ErrNotExist) {
		// No chain was ever recorded: a single base version, synthesized
		// in memory only — opening a store must not write to it.
		s.chains[name] = base
		return l, digest, size, nil
	}
	c := &chain{ckpt: size}
	at := -1          // the version name.tsv holds
	var fold []string // the deltas after it
	j, err := journal.Open(s.journalPath(name), "corpus.journal", func(line []byte) error {
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if err := c.extends(r); err != nil {
			return err
		}
		if at >= 0 {
			fold = append(fold, r.DeltaTSV)
		} else if r.Digest == digest {
			at = len(c.vs)
		}
		c.vs = append(c.vs, r.Version)
		c.end = append(c.end, c.endOf(line))
		return nil
	})
	if err != nil {
		return nil, "", 0, fmt.Errorf("corpus: %w", err)
	}
	c.j = j
	s.chains[name] = c
	if j.Torn() {
		s.recovery.TornTails++
	}
	if at < 0 {
		// name.tsv matches nothing in the chain — it was replaced out of
		// band, or the journal lost every line. Content wins: reset to a
		// single base version.
		_, err := s.createChain(name, base, 1, size)
		return l, digest, size, err
	}
	c.since = j.Size() - c.end[at]
	if at == len(c.vs)-1 {
		return l, digest, size, nil
	}
	latest, n, ok := l, size, true
	for _, d := range fold {
		delta, err := searchlog.ReadTSV(strings.NewReader(d))
		if err == nil {
			latest, err = searchlog.Merge(latest, delta)
		}
		if err != nil {
			ok = false
			break
		}
	}
	head := c.vs[len(c.vs)-1].Digest
	if ok {
		var d string
		n, d = imageDigest(latest)
		ok = d == head
	}
	if !ok {
		// A delta is corrupt: the content we can parse wins — truncate
		// the chain at the version name.tsv actually is.
		_, err := s.createChain(name, c, at+1, size)
		return l, digest, size, err
	}
	s.recovery.Folded += len(fold)
	return latest, head, n, nil
}

// endOf returns the journal offset just past line, the next line of c.
func (c *chain) endOf(line []byte) int64 {
	var start int64
	if n := len(c.end); n > 0 {
		start = c.end[n-1]
	}
	return start + int64(len(line)) + 1
}

// imageDigest returns the size and digest of l's canonical TSV, building
// its image if l keeps one, without writing it anywhere.
func imageDigest(l *searchlog.Log) (int64, string) {
	var n counter
	d, err := searchlog.WriteTSVDigest(&n, l)
	if err != nil {
		// A counter never fails to write.
		panic(fmt.Sprintf("corpus: digest write: %v", err))
	}
	return int64(n), d
}

// counter is an io.Writer that counts the bytes written to it.
type counter int64

func (c *counter) Write(p []byte) (int, error) {
	*c += counter(len(p))
	return len(p), nil
}

// legacyVersions is the on-disk shape of name.versions.json, the chain
// file of stores from before the journal.
type legacyVersions struct {
	Versions []Version `json:"versions"`
}

// migrate moves a legacy chain (name.versions.json plus one
// name.d<seq>.tsv per appended version) into name's journal, written
// atomically, and only then removes the old files. A chain whose journal
// already exists was migrated by an Open cut short: only the removal is
// left. A missing delta file ends the migrated chain before its version.
func (s *Store) migrate(name string) error {
	vpath := filepath.Join(s.dir, name+".versions.json")
	raw, err := os.ReadFile(vpath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("corpus: read versions of %s: %w", name, err)
	}
	var f legacyVersions
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("corpus: parse versions of %s: %w", name, err)
	}
	deltaPath := func(seq int) string {
		return filepath.Join(s.dir, fmt.Sprintf("%s.d%d.tsv", name, seq))
	}
	if _, err := os.Stat(s.journalPath(name)); errors.Is(err, os.ErrNotExist) {
		var lines [][]byte
		for _, v := range f.Versions {
			r := record{Version: v}
			if v.Seq > 1 {
				d, err := os.ReadFile(deltaPath(v.Seq))
				if err != nil {
					break
				}
				r.DeltaTSV = string(d)
			}
			line, err := json.Marshal(r)
			if err != nil {
				return fmt.Errorf("corpus: migrate versions of %s: %w", name, err)
			}
			lines = append(lines, line)
		}
		j, err := journal.Create(s.journalPath(name), "corpus.journal", lines)
		if err != nil {
			return fmt.Errorf("corpus: migrate versions of %s: %w", name, err)
		}
		j.Close()
	}
	for _, v := range f.Versions {
		if v.Seq > 1 {
			os.Remove(deltaPath(v.Seq))
		}
	}
	os.Remove(vpath)
	journal.SyncDir(s.dir)
	s.recovery.Migrated++
	return nil
}

// Append is AppendCtx without a trace.
func (s *Store) Append(name string, delta *searchlog.Log) (Meta, Version, []string, error) {
	return s.AppendCtx(context.Background(), name, delta)
}

// AppendCtx folds delta (a parsed, non-empty log of new rows) into the latest
// version of name, producing a new immutable version. It returns the new
// latest Meta, the new Version, and the sorted external IDs of the users
// the delta touched. Those are the dirty set on the child's side only: on
// the parent's side, a component is also dirty when it holds a user who
// held a delta pair before the append, because a pair unique-pair
// preprocessing dropped becomes shared when the delta gives it to a second
// user (searchlog's carried preparation handles both). Appending is atomic
// and durable: the version exists once its journal line is fsynced, and a
// crash at any point leaves the store openable at either the old or the
// new version (see the package comment).
//
// When ctx carries an obs trace, the append records three spans:
// "corpus.merge" (the fold), "corpus.stage" (the new version's image built
// and hashed; attributes image, "spliced" or "formatted", and bytes) and
// "corpus.commit" (the journal line appended and fsynced, under which the
// journal records corpus.journal.append and corpus.journal.fsync; attribute
// checkpoint, whether name.tsv was rewritten).
func (s *Store) AppendCtx(ctx context.Context, name string, delta *searchlog.Log) (Meta, Version, []string, error) {
	if delta == nil || delta.Size() == 0 {
		return Meta{}, Version{}, nil, ErrEmptyDelta
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[name]
	if !ok {
		return Meta{}, Version{}, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	parent := s.logs[name]
	_, msp := obs.Start(ctx, "corpus.merge")
	merged, err := searchlog.Merge(parent, delta)
	msp.End()
	if err != nil {
		return Meta{}, Version{}, nil, fmt.Errorf("corpus: fold append into %s: %w", name, err)
	}
	// The new version's image is built and hashed, which yields the digest
	// its journal line needs. Its rows are the parent's TSV image with the
	// touched users' rows re-formatted, when the parent built one.
	_, ssp := obs.Start(ctx, "corpus.stage")
	n, digest := imageDigest(merged)
	if merged.ImageSpliced() {
		ssp.SetAttr("image", "spliced")
	} else {
		ssp.SetAttr("image", "formatted")
	}
	ssp.SetAttr("bytes", n)
	ssp.End()
	if digest == m.Digest {
		// Cannot happen for a non-empty delta (the mass strictly grows), but
		// guard it: two chain entries with one digest would break every
		// digest-keyed consumer.
		return Meta{}, Version{}, nil, fmt.Errorf("corpus: append to %s produced no change", name)
	}
	c := s.chains[name]
	touched := make([]string, 0, delta.NumUsers())
	for k := 0; k < delta.NumUsers(); k++ {
		touched = append(touched, delta.User(k).ID)
	}

	cctx, csp := obs.Start(ctx, "corpus.commit")
	defer csp.End()
	var rows bytes.Buffer
	if _, err := searchlog.WriteTSV(&rows, delta); err != nil {
		return Meta{}, Version{}, nil, err
	}
	v := Version{
		Digest:     digest,
		Parent:     m.Digest,
		Seq:        len(c.vs) + 1,
		Rows:       merged.NumTriplets(),
		DeltaRows:  delta.NumTriplets(),
		DeltaUsers: delta.NumUsers(),
		Size:       merged.Size(),
		NumUsers:   merged.NumUsers(),
		NumPairs:   merged.NumPairs(),
		Created:    time.Now().UTC(),
	}
	line, err := json.Marshal(record{Version: v, DeltaTSV: rows.String()})
	if err != nil {
		return Meta{}, Version{}, nil, fmt.Errorf("corpus: marshal version: %w", err)
	}
	if c.j == nil {
		// The corpus's first append since a store without its journal
		// opened it: record the synthesized base first.
		if c, err = s.createChain(name, c, 1, c.ckpt); err != nil {
			return Meta{}, Version{}, nil, err
		}
	}
	if err := c.j.Append(cctx, line); err != nil {
		return Meta{}, Version{}, nil, fmt.Errorf("corpus: %w", err)
	}
	c.vs = append(c.vs, v)
	c.end = append(c.end, c.j.Size())
	c.since += int64(len(line)) + 1
	checkpoint := c.since >= c.ckpt
	csp.SetAttr("checkpoint", checkpoint)
	if checkpoint {
		// The version is durable in the journal already. A checkpoint that
		// fails leaves name.tsv at an older version, which Open folds
		// forward, and is retried by the next append.
		if _, _, err := s.writeAtomic(s.path(name), merged); err == nil {
			c.ckpt, c.since = n, 0
		}
	}

	nm := metaOf(name, merged, digest, n, v.Created)
	s.metas[name] = nm
	s.logs[name] = merged
	// The parent — no longer latest — stays reachable: seed the old-version
	// cache with it so the first ?version= read of the previous head does
	// not pay a materialization.
	s.cacheOld(name, m.Digest, parent)
	return nm, v, touched, nil
}

// Versions returns the corpus's version chain, base first.
func (s *Store) Versions(name string) ([]Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.chains[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return append([]Version(nil), c.vs...), nil
}

// VersionMeta returns the chain entry with the given digest.
func (s *Store) VersionMeta(name, digest string) (Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.chains[name]
	if !ok {
		return Version{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	for _, v := range c.vs {
		if v.Digest == digest {
			return v, nil
		}
	}
	return Version{}, fmt.Errorf("%w: %q@%s", ErrVersionNotFound, name, digest)
}

// GetVersion returns the parsed log and chain entry of the version with
// the given digest (the latest is served from the primary cache; ancestors
// are materialized by subtracting the journaled deltas that came after
// them, then digest-verified and cached).
func (s *Store) GetVersion(name, digest string) (*searchlog.Log, Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.chains[name]
	if !ok {
		return nil, Version{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	at := -1
	for i := range c.vs {
		if c.vs[i].Digest == digest {
			at = i
			break
		}
	}
	if at < 0 {
		return nil, Version{}, fmt.Errorf("%w: %q@%s", ErrVersionNotFound, name, digest)
	}
	v := c.vs[at]
	if at == len(c.vs)-1 {
		return s.logs[name], v, nil
	}
	if l, ok := s.oldLogs[oldKey(name, digest)]; ok {
		return l, v, nil
	}
	counts := s.logs[name].UserCounts()
	for i := len(c.vs) - 1; i > at; i-- {
		delta, err := s.readDelta(name, c, i)
		if err != nil {
			return nil, Version{}, fmt.Errorf("corpus: materialize %s@%s: %w", name, digest, err)
		}
		if err := subCounts(counts, delta); err != nil {
			return nil, Version{}, fmt.Errorf("corpus: materialize %s@%s: %w", name, digest, err)
		}
	}
	l, err := searchlog.BuildFromUserCounts(counts)
	if err != nil {
		return nil, Version{}, fmt.Errorf("corpus: materialize %s@%s: %w", name, digest, err)
	}
	if got := l.Digest(); got != digest {
		return nil, Version{}, fmt.Errorf("corpus: materialized %s@%s hashes to %s — journal corrupt", name, digest, got)
	}
	s.cacheOld(name, digest, l)
	return l, v, nil
}

// subCounts removes a delta log's histogram from counts in place. It is
// exact for histograms built by addition: every count stays ≥ 0 and cells
// that return to zero are dropped by BuildFromUserCounts.
func subCounts(counts map[string]map[searchlog.PairKey]int, delta *searchlog.Log) error {
	for id, m := range delta.UserCounts() {
		dst := counts[id]
		if dst == nil {
			return fmt.Errorf("corpus: delta user %q absent from descendant version", id)
		}
		for key, c := range m {
			if dst[key] < c {
				return fmt.Errorf("corpus: delta count exceeds descendant count for user %q pair (%q, %q)", id, key.Query, key.URL)
			}
			dst[key] -= c
		}
	}
	return nil
}

func oldKey(name, digest string) string { return name + "\x00" + digest }

// cacheOld remembers a materialized non-latest version, bounded so a
// pathological chain cannot pin every historical version in memory.
func (s *Store) cacheOld(name, digest string, l *searchlog.Log) {
	const maxOld = 8
	if len(s.oldLogs) >= maxOld {
		for k := range s.oldLogs {
			delete(s.oldLogs, k)
			if len(s.oldLogs) < maxOld {
				break
			}
		}
	}
	s.oldLogs[oldKey(name, digest)] = l
}

// dropOld evicts every cached old version of name (Put and Delete reset
// the chain, so prior materializations are orphaned).
func (s *Store) dropOld(name string) {
	for k := range s.oldLogs {
		if len(k) > len(name) && k[:len(name)] == name && k[len(name)] == 0 {
			delete(s.oldLogs, k)
		}
	}
}
