// Package corpus is the disk-backed, multi-tenant corpus store behind
// slserve's /v1/corpora endpoints: a search log is uploaded once under a
// name and referenced forever, so sanitization requests carry options only
// instead of re-uploading (and the server re-parsing) megabyte TSV bodies.
//
// Each corpus is one canonical TSV file under the store directory, written
// atomically (temp file + fsync + rename) so a crash can never leave a
// half-written corpus behind; the file is hashed as it is written, and
// that hash is the corpus digest. An in-memory index holds every corpus's
// digest and shape, and the parsed Log itself is cached — uploads are rare
// and reads are hot, which is exactly the profile an in-memory cache wants.
// Appends add versions (see version.go): each folds a delta into the latest
// Log with a linear merge that shares the parent's unchanged rows.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"dpslog/internal/searchlog"
)

// ErrNotFound reports a name with no stored corpus.
var ErrNotFound = errors.New("corpus: not found")

// nameRE constrains corpus names to one safe path segment: it must never
// be possible to traverse out of the store directory via a crafted name.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// deltaNameRE matches the stem of an append delta file (name.d<seq>.tsv),
// which the store-directory scan must not mistake for a corpus of its own.
// The ".d<seq>" suffix is consequently reserved: ValidName refuses it.
var deltaNameRE = regexp.MustCompile(`\.d[0-9]+$`)

// ValidName reports whether name is an acceptable corpus name: 1–64 chars,
// alphanumeric plus ._-, starting alphanumeric, and not ending in the
// ".d<seq>" suffix reserved for append delta files.
func ValidName(name string) bool {
	return nameRE.MatchString(name) && !strings.Contains(name, "..") &&
		!deltaNameRE.MatchString(name)
}

// Meta describes one stored corpus.
type Meta struct {
	Name string `json:"name"`
	// Digest is the hex SHA-256 of the canonical TSV form — the identity
	// the release key is built on; the privacy ledger links it to the
	// name in one lineage.
	Digest   string    `json:"digest"`
	Size     int       `json:"size"` // total click-count mass
	NumUsers int       `json:"num_users"`
	NumPairs int       `json:"num_pairs"`
	Bytes    int64     `json:"bytes"` // on-disk TSV size
	Uploaded time.Time `json:"uploaded"`
}

// Store is the corpus registry. All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dir      string
	metas    map[string]Meta
	logs     map[string]*searchlog.Log // latest version of each corpus
	versions map[string][]Version      // append-only chain, base first
	oldLogs  map[string]*searchlog.Log // materialized non-latest versions
}

// Open creates (if needed) and loads the store directory, parsing every
// stored corpus to rebuild the digest index.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: create store dir: %w", err)
	}
	s := &Store{
		dir:      dir,
		metas:    make(map[string]Meta),
		logs:     make(map[string]*searchlog.Log),
		versions: make(map[string][]Version),
		oldLogs:  make(map[string]*searchlog.Log),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: scan store dir: %w", err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".tsv")
		if e.IsDir() || !ok || !ValidName(name) {
			// Leftovers are not corpora: temp files, chain metadata, and
			// append delta files (whose ".d<seq>" stem ValidName refuses).
			continue
		}
		if err := s.load(name, e); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// load parses one stored corpus file into the index. The stored file is
// canonical TSV, so the corpus digest is by definition the SHA-256 of the
// file's bytes: load hashes the stream while parsing it (one pass) instead
// of re-serializing the parsed log afterwards.
func (s *Store) load(name string, e os.DirEntry) error {
	path := s.path(name)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("corpus: open %s: %w", path, err)
	}
	defer f.Close()
	h := sha256.New()
	l, err := searchlog.ReadTSV(io.TeeReader(f, h))
	if err != nil {
		return fmt.Errorf("corpus: parse %s: %w", path, err)
	}
	info, err := e.Info()
	if err != nil {
		return fmt.Errorf("corpus: stat %s: %w", path, err)
	}
	// Align content with the recorded version chain (heal a crashed append,
	// or synthesize the single-version chain of a legacy corpus).
	vs, latest, digest, bytes, err := s.reconcile(name, l, hex.EncodeToString(h.Sum(nil)), info.Size(), info.ModTime())
	if err != nil {
		return err
	}
	s.metas[name] = metaOf(name, latest, digest, bytes, vs[len(vs)-1].Created)
	s.logs[name] = latest
	s.versions[name] = vs
	return nil
}

func metaOf(name string, l *searchlog.Log, digest string, bytes int64, uploaded time.Time) Meta {
	return Meta{
		Name:     name,
		Digest:   digest,
		Size:     l.Size(),
		NumUsers: l.NumUsers(),
		NumPairs: l.NumPairs(),
		Bytes:    bytes,
		Uploaded: uploaded.UTC(),
	}
}

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name+".tsv")
}

// Put stores l under name, replacing any previous corpus of that name. The
// TSV is written to a temp file, fsynced and renamed into place, so readers
// (and crashes) only ever observe complete corpora.
func (s *Store) Put(name string, l *searchlog.Log) (Meta, error) {
	if !ValidName(name) {
		return Meta{}, fmt.Errorf("corpus: invalid name %q (want 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric)", name)
	}
	if l.Size() == 0 {
		return Meta{}, errors.New("corpus: refusing to store an empty log")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The canonical rows are hashed as they are written, so storing a
	// corpus costs exactly one serialization pass — no post-hoc l.Digest()
	// re-walk of a multi-hundred-MB log.
	var digest string
	size, err := s.writeAtomic(s.path(name), func(w io.Writer) (err error) {
		digest, err = searchlog.WriteTSVDigest(w, l)
		return err
	})
	if err != nil {
		return Meta{}, err
	}
	m := metaOf(name, l, digest, size, time.Now())
	// A PUT is a full replacement, not an append: the version chain resets
	// to a single base version and any prior deltas are orphaned. (Budget
	// accounting is digest-keyed in the ledger and survives untouched.)
	s.removeChainFiles(name, s.versions[name])
	vs := []Version{baseVersion(l, m.Digest, m.Uploaded)}
	if err := s.writeVersions(name, vs); err != nil {
		return Meta{}, err
	}
	s.dropOld(name)
	s.metas[name] = m
	s.logs[name] = l
	s.versions[name] = vs
	return m, nil
}

// syncDir makes a rename durable; not all platforms support fsync on a
// directory handle, so failure is ignored.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		//slvet:ignore deferclose directory fsync is best-effort by contract: not all platforms support fsync on a directory handle
		d.Sync()
		d.Close()
	}
}

// Get returns the parsed log and metadata for name.
func (s *Store) Get(name string) (*searchlog.Log, Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[name]
	if !ok {
		return nil, Meta{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return s.logs[name], m, nil
}

// Meta returns the metadata for name without touching the parsed log.
func (s *Store) Meta(name string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[name]
	return m, ok
}

// Delete removes a stored corpus. Privacy accounting lives in the ledger,
// per lineage, and deliberately survives deletion: re-uploading under the
// same name resumes the same budget.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.metas[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := os.Remove(s.path(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("corpus: delete %s: %w", name, err)
	}
	s.removeChainFiles(name, s.versions[name])
	s.dropOld(name)
	delete(s.metas, name)
	delete(s.logs, name)
	delete(s.versions, name)
	return nil
}

// List returns the metadata of every stored corpus, sorted by name.
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.metas))
	for _, m := range s.metas {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Len returns the number of stored corpora.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.metas)
}
