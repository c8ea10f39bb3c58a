// Package searchlog implements the click-through search log data model used
// throughout the repository: interned query-url pairs with per-user counts
// (the input query-url-user histogram of the paper), user logs (Definition 1),
// preprocessing (Theorem 1, Condition 1), dataset statistics (Table 3) and
// TSV serialization in both the canonical 4-column format and the historical
// AOL 5-column format.
//
// A Log is immutable once built; use Builder to construct one. All iteration
// orders are deterministic (users sorted by ID, pairs sorted by query then
// url) so that downstream optimization and sampling are reproducible.
package searchlog

import (
	"fmt"
	"sort"
	"sync"
)

// Record is a single external search log tuple: user s_k issued query q_i,
// clicked url u_j, with an aggregated click count c_ijk.
type Record struct {
	User  string
	Query string
	URL   string
	Count int
}

// PairKey identifies a distinct click-through query-url pair (q_i, u_j).
type PairKey struct {
	Query string
	URL   string
}

// Entry is one user's contribution to a pair: the count c_ijk held by the
// user at index User (an index into Log.User space, not an external ID).
type Entry struct {
	User  int
	Count int
}

// Pair is a distinct query-url pair together with its total input count c_ij
// and the per-user breakdown (the pair's slice of the query-url-user
// histogram). Entries are sorted by user index and hold only non-zero counts.
type Pair struct {
	Query   string
	URL     string
	Total   int
	Entries []Entry
}

// Key returns the pair's identity.
func (p *Pair) Key() PairKey { return PairKey{p.Query, p.URL} }

// MaxEntry returns the largest per-user count c_ijk of the pair, and the user
// index that holds it. A pair with MaxEntry count equal to Total is "unique"
// in the paper's sense and must be removed in preprocessing.
func (p *Pair) MaxEntry() (user, count int) {
	user = -1
	for _, e := range p.Entries {
		if e.Count > count {
			user, count = e.User, e.Count
		}
	}
	return user, count
}

// UserPair is one pair held by a user, from the user-major orientation.
type UserPair struct {
	Pair  int // index into Log pair space
	Count int // c_ijk
}

// User is one user log A_k: the external pseudonymous ID and every pair the
// user holds, sorted by pair index. Total is the user's tuple mass Σ_j c_ijk.
type User struct {
	ID    string
	Pairs []UserPair
	Total int
}

// Log is an immutable search log D holding both orientations of the
// query-url-user histogram: pair-major (for sampling and constraint
// coefficients) and user-major (for per-user-log DP constraints). The
// key → index maps behind PairIndex and UserIndex are built on the first
// lookup; the release path never looks keys up, so most logs never build
// them.
type Log struct {
	pairs []Pair
	users []User
	size  int // |D| = Σ_ij c_ij

	indexOnce sync.Once
	pairIndex map[PairKey]int
	userIndex map[string]int

	// digest memoizes Digest(): a Log is immutable once built, so its
	// canonical-TSV hash never changes and concurrent solvers can share one
	// computation (the incremental re-solve path digests every component on
	// every solve).
	digestOnce sync.Once
	digest     string
}

// NumPairs returns the number of distinct query-url pairs.
func (l *Log) NumPairs() int { return len(l.pairs) }

// NumUsers returns the number of user logs.
func (l *Log) NumUsers() int { return len(l.users) }

// Size returns |D|, the total count mass Σ c_ij of the log. This is the
// quantity the paper calls "the size (the total number of query-url pairs)".
func (l *Log) Size() int { return l.size }

// Pair returns the pair at index i. The returned pointer aliases internal
// state and must not be mutated.
func (l *Log) Pair(i int) *Pair { return &l.pairs[i] }

// User returns the user log at index k. The returned pointer aliases internal
// state and must not be mutated.
func (l *Log) User(k int) *User { return &l.users[k] }

// PairIndex returns the index of the pair with the given key, or -1.
func (l *Log) PairIndex(key PairKey) int {
	l.index()
	i, ok := l.pairIndex[key]
	if !ok {
		return -1
	}
	return i
}

// UserIndex returns the index of the user with the given external ID, or -1.
func (l *Log) UserIndex(id string) int {
	l.index()
	k, ok := l.userIndex[id]
	if !ok {
		return -1
	}
	return k
}

// index builds both key → index maps once; concurrent lookups share them.
func (l *Log) index() {
	l.indexOnce.Do(func() {
		l.pairIndex = make(map[PairKey]int, len(l.pairs))
		for i := range l.pairs {
			l.pairIndex[l.pairs[i].Key()] = i
		}
		l.userIndex = make(map[string]int, len(l.users))
		for k := range l.users {
			l.userIndex[l.users[k].ID] = k
		}
	})
}

// PairCount returns c_ij for pair index i.
func (l *Log) PairCount(i int) int { return l.pairs[i].Total }

// TripletCount returns c_ijk for pair index i and user index k (0 if the user
// does not hold the pair).
func (l *Log) TripletCount(i, k int) int {
	es := l.pairs[i].Entries
	// Entries are sorted by user index.
	lo := sort.Search(len(es), func(m int) bool { return es[m].User >= k })
	if lo < len(es) && es[lo].User == k {
		return es[lo].Count
	}
	return 0
}

// Records materializes the log back into external tuples, sorted by user ID
// then query then url. The result is freshly allocated.
func (l *Log) Records() []Record {
	recs := make([]Record, 0, l.numTriplets())
	for k := range l.users {
		u := &l.users[k]
		for _, up := range u.Pairs {
			p := &l.pairs[up.Pair]
			recs = append(recs, Record{User: u.ID, Query: p.Query, URL: p.URL, Count: up.Count})
		}
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].User != recs[b].User {
			return recs[a].User < recs[b].User
		}
		if recs[a].Query != recs[b].Query {
			return recs[a].Query < recs[b].Query
		}
		return recs[a].URL < recs[b].URL
	})
	return recs
}

func (l *Log) numTriplets() int {
	n := 0
	for k := range l.users {
		n += len(l.users[k].Pairs)
	}
	return n
}

// NumTriplets returns the number of non-zero (pair, user) count cells, i.e.
// the number of rows a canonical TSV serialization of the log would have.
func (l *Log) NumTriplets() int { return l.numTriplets() }

// WithoutUser returns a copy of the log with user index k's entire user log
// removed (the neighboring input D' = D − A_k of Definition 2). Pairs whose
// count drops to zero disappear; indices are NOT preserved across the copy.
// An out-of-range k removes nothing and returns l itself.
func (l *Log) WithoutUser(k int) *Log {
	if k < 0 || k >= len(l.users) {
		return l // a Log is immutable, so it is its own copy
	}
	b := NewBuilder()
	for ki := range l.users {
		if ki == k {
			continue
		}
		u := &l.users[ki]
		for _, up := range u.Pairs {
			p := &l.pairs[up.Pair]
			b.Add(u.ID, p.Query, p.URL, up.Count)
		}
	}
	return b.Log()
}

// Builder accumulates records and produces a deterministic immutable Log.
// Adding the same (user, query, url) twice sums the counts, matching how raw
// click events aggregate into the count column.
type Builder struct {
	counts map[string]map[PairKey]int
	err    error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{counts: make(map[string]map[PairKey]int)}
}

// Add accumulates count clicks of (query, url) for user. Counts must be
// non-negative; zero counts are ignored. The first error sticks and is
// reported by Log.
func (b *Builder) Add(user, query, url string, count int) {
	if b.err != nil {
		return
	}
	if count < 0 {
		b.err = fmt.Errorf("searchlog: negative count %d for user %q pair (%q, %q)", count, user, query, url)
		return
	}
	if count == 0 {
		return
	}
	m := b.counts[user]
	if m == nil {
		m = make(map[PairKey]int)
		b.counts[user] = m
	}
	m[PairKey{query, url}] += count
}

// AddRecord accumulates an external record.
func (b *Builder) AddRecord(r Record) { b.Add(r.User, r.Query, r.URL, r.Count) }

// Err returns the first accumulation error, if any.
func (b *Builder) Err() error { return b.err }

// Log freezes the accumulated records into an immutable Log. Users with no
// pairs are dropped. Log panics if an accumulation error occurred; check Err
// or use BuildLog for the error-returning form.
func (b *Builder) Log() *Log {
	l, err := b.BuildLog()
	if err != nil {
		panic(err)
	}
	return l
}

// BuildLog is like Log but returns the accumulation error instead of
// panicking.
func (b *Builder) BuildLog() (*Log, error) {
	if b.err != nil {
		return nil, b.err
	}
	return BuildFromUserCounts(b.counts)
}

// BuildFromUserCounts freezes a user → pair → count histogram directly into
// an immutable Log. It freezes every Builder (and so every Fold) and the
// ancestor corpus versions rebuilt from UserCounts; because the
// construction below sorts users and pairs globally, the resulting Log —
// and therefore its digest — is a pure function of the histogram,
// independent of the chunks, batches or input order that produced it. Zero counts are skipped, users with no
// positive pairs are dropped, and a negative count is an error. The maps
// are read, not retained.
func BuildFromUserCounts(counts map[string]map[PairKey]int) (*Log, error) {
	userIDs := make([]string, 0, len(counts))
	for id, m := range counts {
		kept := 0
		for key, c := range m {
			if c < 0 {
				return nil, fmt.Errorf("searchlog: negative count %d for user %q pair (%q, %q)", c, id, key.Query, key.URL)
			}
			if c > 0 {
				kept++
			}
		}
		if kept > 0 {
			userIDs = append(userIDs, id)
		}
	}
	sort.Strings(userIDs)

	pairSet := make(map[PairKey]struct{})
	for _, id := range userIDs {
		for key, c := range counts[id] {
			if c > 0 {
				pairSet[key] = struct{}{}
			}
		}
	}
	keys := make([]PairKey, 0, len(pairSet))
	for key := range pairSet {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Query != keys[b].Query {
			return keys[a].Query < keys[b].Query
		}
		return keys[a].URL < keys[b].URL
	})

	l := &Log{pairs: make([]Pair, len(keys)), users: make([]User, len(userIDs))}
	pairIndex := make(map[PairKey]int, len(keys))
	for i, key := range keys {
		l.pairs[i] = Pair{Query: key.Query, URL: key.URL}
		pairIndex[key] = i
	}
	for k, id := range userIDs {
		m := counts[id]
		ups := make([]UserPair, 0, len(m))
		total := 0
		for key, c := range m {
			if c == 0 {
				continue
			}
			ups = append(ups, UserPair{Pair: pairIndex[key], Count: c})
			total += c
		}
		sort.Slice(ups, func(a, b int) bool { return ups[a].Pair < ups[b].Pair })
		l.users[k] = User{ID: id, Pairs: ups, Total: total}
		for _, up := range ups {
			p := &l.pairs[up.Pair]
			p.Total += up.Count
			p.Entries = append(p.Entries, Entry{User: k, Count: up.Count})
			l.size += up.Count
		}
	}
	// Entries were appended in increasing user order already (users iterated
	// in sorted order), so no per-pair sort is required; assert the invariant
	// cheaply in case the construction above changes.
	for i := range l.pairs {
		es := l.pairs[i].Entries
		for m := 1; m < len(es); m++ {
			if es[m-1].User >= es[m].User {
				sort.Slice(es, func(a, b int) bool { return es[a].User < es[b].User })
				break
			}
		}
	}
	return l, nil
}

// UserCounts materializes the log's user → pair → count histogram — the
// exact shape BuildFromUserCounts consumes. internal/corpus rebuilds an
// ancestor version from it by subtracting the later append deltas; appends
// themselves fold with Merge, which equals BuildFromUserCounts over the
// summed histograms. The returned maps are freshly allocated; mutating
// them does not touch the log.
func (l *Log) UserCounts() map[string]map[PairKey]int {
	counts := make(map[string]map[PairKey]int, len(l.users))
	for k := range l.users {
		u := &l.users[k]
		m := make(map[PairKey]int, len(u.Pairs))
		for _, up := range u.Pairs {
			m[l.pairs[up.Pair].Key()] = up.Count
		}
		counts[u.ID] = m
	}
	return counts
}

// FromRecords builds a Log directly from external tuples.
func FromRecords(recs []Record) (*Log, error) {
	b := NewBuilder()
	for _, r := range recs {
		b.AddRecord(r)
	}
	return b.BuildLog()
}
