package corpus

// The append-only version chain of a corpus. A corpus starts life as a
// single base version (a PUT); every append folds a delta histogram into
// the latest version with searchlog.Merge and produces a new immutable
// version with its own digest. Merge is one linear pass over the two
// sorted logs that shares every row the delta leaves unchanged with the
// parent: it costs the delta plus one copy of the row headers. Writing
// the new version costs the whole corpus: the new latest file is copied,
// hashed, written and fsynced in full. Only its formatting is confined to
// the delta, because a merged log splices its parent's canonical TSV
// image and formats just the rows of the users the delta touched (see
// searchlog.WriteTSVDigest); the first append after a PUT or an Open
// formats every row. The chain metadata is rewritten whole on every
// append, so that write grows with the chain. Three kinds of file make
// up a versioned corpus on disk:
//
//	name.tsv           the materialized LATEST version (canonical TSV) —
//	                   the same file a pre-version store wrote, so old
//	                   stores open new directories and vice versa
//	name.d<seq>.tsv    the append delta that produced version <seq>
//	name.versions.json the chain metadata (digest, parent, rows, created)
//
// Every write is temp + fsync + rename. An append stages the new name.tsv
// first (written, hashed and fsynced under a temp name, which yields the
// version digest) and then commits in the order delta → versions.json →
// rename of the staged name.tsv, so a crash can strand the store in
// exactly one recoverable intermediate state: the chain already names a
// version whose materialization never landed. Open detects this (the
// latest file hashes to an ancestor, not the chain head) and self-heals by
// folding the recorded deltas forward. If name.tsv matches nothing in the
// chain at all, the TSV content wins — the chain is reset to a single
// base version — because the corpus a reader can actually parse must never
// disagree with the versions the API reports.
//
// Old versions are materialized on demand by subtraction: version k's
// histogram is the latest histogram minus the deltas k+1..n, which is
// exact because counts are non-negative and merging is addition. The
// recorded digest of the target version is re-verified after every
// materialization, so a corrupt delta file can never silently serve wrong
// bytes under a trusted digest.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

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

// versionsFile is the on-disk shape of name.versions.json.
type versionsFile struct {
	V        int       `json:"v"`
	Versions []Version `json:"versions"`
}

func (s *Store) versionsPath(name string) string {
	return filepath.Join(s.dir, name+".versions.json")
}

func (s *Store) deltaPath(name string, seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.d%d.tsv", name, seq))
}

// writeAtomic writes the bytes produced by fill to path via a temp file in
// the store directory, fsynced and renamed into place.
func (s *Store) writeAtomic(path string, fill func(io.Writer) error) (int64, error) {
	tmp, size, err := s.stage(path, fill)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	return size, s.publish(tmp, path)
}

// stage writes the bytes produced by fill, destined for path, to a new
// temp file in the store directory and fsyncs it. It returns the temp
// file's name and size; publish renames it into place, and the caller
// removes it if it is never published.
func (s *Store) stage(path string, fill func(io.Writer) error) (string, int64, error) {
	tmp, err := os.CreateTemp(s.dir, ".corpus.tmp-*")
	if err != nil {
		return "", 0, fmt.Errorf("corpus: create temp file: %w", err)
	}
	fail := func(op string, err error) (string, int64, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", 0, fmt.Errorf("corpus: %s %s: %w", op, path, err)
	}
	if err := fill(tmp); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	info, err := tmp.Stat()
	if err != nil {
		return fail("stat", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close", err)
	}
	return tmp.Name(), info.Size(), nil
}

// publish renames a staged temp file to path and makes the rename durable.
func (s *Store) publish(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("corpus: publish %s: %w", path, err)
	}
	syncDir(s.dir)
	return nil
}

// writeVersions persists the chain metadata atomically.
func (s *Store) writeVersions(name string, vs []Version) error {
	_, err := s.writeAtomic(s.versionsPath(name), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(versionsFile{V: 1, Versions: vs})
	})
	return err
}

// readVersions loads the chain metadata; a missing file returns (nil, nil)
// — the caller synthesizes a single-version chain from the TSV.
func (s *Store) readVersions(name string) ([]Version, error) {
	raw, err := os.ReadFile(s.versionsPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: read versions of %s: %w", name, err)
	}
	var f versionsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("corpus: parse versions of %s: %w", name, err)
	}
	return f.Versions, nil
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

// removeChainFiles deletes a corpus's delta files and chain metadata,
// best-effort (used by Put's chain reset and Delete).
func (s *Store) removeChainFiles(name string, vs []Version) {
	for _, v := range vs {
		if v.Seq > 1 {
			os.Remove(s.deltaPath(name, v.Seq))
		}
	}
	os.Remove(s.versionsPath(name))
}

// reconcile aligns a loaded corpus's TSV content with its recorded chain.
// It is called under the store lock at Open time, after name.tsv parsed to
// (l, digest). It returns the chain plus the (possibly healed) latest log,
// digest and byte size.
func (s *Store) reconcile(name string, l *searchlog.Log, digest string, bytes int64, mod time.Time) ([]Version, *searchlog.Log, string, int64, error) {
	vs, err := s.readVersions(name)
	if err != nil {
		return nil, nil, "", 0, err
	}
	if len(vs) == 0 {
		// Legacy (pre-version) corpus: a single base version, synthesized in
		// memory only — opening a store must not write to it.
		return []Version{baseVersion(l, digest, mod)}, l, digest, bytes, nil
	}
	if vs[len(vs)-1].Digest == digest {
		return vs, l, digest, bytes, nil
	}
	// The latest file does not match the chain head. If it matches an
	// ancestor, an append crashed between publishing the chain and
	// materializing the new latest: fold the recorded deltas forward and
	// rewrite name.tsv (self-heal).
	at := -1
	for i := range vs {
		if vs[i].Digest == digest {
			at = i
			break
		}
	}
	if at >= 0 {
		healed := l
		ok := true
		for i := at + 1; i < len(vs); i++ {
			delta, derr := s.readDelta(name, vs[i].Seq)
			if derr != nil {
				ok = false
				break
			}
			next, merr := searchlog.Merge(healed, delta)
			if merr != nil || next.Digest() != vs[i].Digest {
				ok = false
				break
			}
			healed = next
		}
		if ok {
			head := vs[len(vs)-1]
			n, werr := s.writeAtomic(s.path(name), func(w io.Writer) error {
				_, e := searchlog.WriteTSV(w, healed)
				return e
			})
			if werr != nil {
				return nil, nil, "", 0, werr
			}
			return vs, healed, head.Digest, n, nil
		}
		// Deltas missing or corrupt: the content we can parse wins — truncate
		// the chain at the version the TSV actually is.
		trunc := append([]Version(nil), vs[:at+1]...)
		if werr := s.writeVersions(name, trunc); werr != nil {
			return nil, nil, "", 0, werr
		}
		return trunc, l, digest, bytes, nil
	}
	// The TSV matches nothing in the chain — it was replaced out-of-band.
	// Content wins: reset to a single base version.
	s.removeChainFiles(name, vs)
	reset := []Version{baseVersion(l, digest, mod)}
	if werr := s.writeVersions(name, reset); werr != nil {
		return nil, nil, "", 0, werr
	}
	return reset, l, digest, bytes, nil
}

// readDelta parses the delta file that produced version seq.
func (s *Store) readDelta(name string, seq int) (*searchlog.Log, error) {
	f, err := os.Open(s.deltaPath(name, seq))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return searchlog.ReadTSV(f)
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
// user (searchlog's carried preparation handles both). Appending is atomic and
// durable: a crash at any point leaves the store openable at either the
// old or the new version (see the package comment on commit order).
//
// When ctx carries an obs trace, the append records three spans:
// "corpus.merge" (the fold), "corpus.stage" (the new latest file written,
// hashed and fsynced under a temp name; attributes image, "spliced" or
// "formatted", and bytes) and "corpus.commit" (the delta file, the chain
// and the publishing rename, each fsynced).
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
	// The new latest is serialized once: staged (fsynced, unpublished) and
	// hashed, which yields the version digest the chain entry needs before
	// anything is published. Its rows are the parent's TSV image with the
	// touched users' rows re-formatted, when the parent built one.
	_, ssp := obs.Start(ctx, "corpus.stage")
	var digest string
	staged, n, err := s.stage(s.path(name), func(w io.Writer) (err error) {
		digest, err = searchlog.WriteTSVDigest(w, merged)
		return err
	})
	if merged.ImageSpliced() {
		ssp.SetAttr("image", "spliced")
	} else {
		ssp.SetAttr("image", "formatted")
	}
	ssp.SetAttr("bytes", n)
	ssp.End()
	if err != nil {
		return Meta{}, Version{}, nil, err
	}
	defer os.Remove(staged) // no-op once published
	if digest == m.Digest {
		// Cannot happen for a non-empty delta (the mass strictly grows), but
		// guard it: two chain entries with one digest would break every
		// digest-keyed consumer.
		return Meta{}, Version{}, nil, fmt.Errorf("corpus: append to %s produced no change", name)
	}
	vs := s.versions[name]
	seq := len(vs) + 1
	touched := make([]string, 0, delta.NumUsers())
	for k := 0; k < delta.NumUsers(); k++ {
		touched = append(touched, delta.User(k).ID)
	}

	// Commit order: delta, chain, materialized latest (see package comment).
	_, csp := obs.Start(ctx, "corpus.commit")
	defer csp.End()
	if _, err := s.writeAtomic(s.deltaPath(name, seq), func(w io.Writer) error {
		_, e := searchlog.WriteTSV(w, delta)
		return e
	}); err != nil {
		return Meta{}, Version{}, nil, err
	}
	v := Version{
		Digest:     digest,
		Parent:     m.Digest,
		Seq:        seq,
		Rows:       merged.NumTriplets(),
		DeltaRows:  delta.NumTriplets(),
		DeltaUsers: delta.NumUsers(),
		Size:       merged.Size(),
		NumUsers:   merged.NumUsers(),
		NumPairs:   merged.NumPairs(),
		Created:    time.Now().UTC(),
	}
	next := append(append([]Version(nil), vs...), v)
	if err := s.writeVersions(name, next); err != nil {
		return Meta{}, Version{}, nil, err
	}
	if err := s.publish(staged, s.path(name)); err != nil {
		return Meta{}, Version{}, nil, err
	}

	nm := metaOf(name, merged, digest, n, v.Created)
	s.metas[name] = nm
	s.logs[name] = merged
	s.versions[name] = next
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
	vs, ok := s.versions[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return append([]Version(nil), vs...), nil
}

// VersionMeta returns the chain entry with the given digest.
func (s *Store) VersionMeta(name, digest string) (Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs, ok := s.versions[name]
	if !ok {
		return Version{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	for _, v := range vs {
		if v.Digest == digest {
			return v, nil
		}
	}
	return Version{}, fmt.Errorf("%w: %q@%s", ErrVersionNotFound, name, digest)
}

// GetVersion returns the parsed log and chain entry of the version with
// the given digest (the latest is served from the primary cache; ancestors
// are materialized by subtracting the deltas that came after them, then
// digest-verified and cached).
func (s *Store) GetVersion(name, digest string) (*searchlog.Log, Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs, ok := s.versions[name]
	if !ok {
		return nil, Version{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	at := -1
	for i := range vs {
		if vs[i].Digest == digest {
			at = i
			break
		}
	}
	if at < 0 {
		return nil, Version{}, fmt.Errorf("%w: %q@%s", ErrVersionNotFound, name, digest)
	}
	v := vs[at]
	if at == len(vs)-1 {
		return s.logs[name], v, nil
	}
	if l, ok := s.oldLogs[oldKey(name, digest)]; ok {
		return l, v, nil
	}
	counts := s.logs[name].UserCounts()
	for i := len(vs) - 1; i > at; i-- {
		delta, err := s.readDelta(name, vs[i].Seq)
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
		return nil, Version{}, fmt.Errorf("corpus: materialized %s@%s hashes to %s — delta files corrupt", name, digest, got)
	}
	s.cacheOld(name, digest, l)
	return l, v, nil
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
