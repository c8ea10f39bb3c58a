package searchlog

import (
	"fmt"
	"strings"
)

// Merge returns the log holding parent's histogram plus delta's: every
// (user, query, url) count is the sum of its counts in the two. It is the
// fold behind corpus appends, and it equals BuildFromUserCounts over the
// summed UserCounts — same order, same indices, same digest — without
// hashing or sorting: both logs already keep users sorted by ID and pairs
// by (query, url), so one two-pointer pass per orientation yields the
// merged order and the old→new index maps.
//
// The merged log shares every row slice of parent that the delta leaves
// unchanged: a user's Pairs and a pair's Entries. Logs are immutable, so
// sharing is safe. A key the delta inserts shifts the indices after it,
// and slices that reference a shifted index are copied with the new one;
// no second code path handles new keys. Like every Log, the merged one
// builds its key → index maps on first lookup. Neither input is modified.
// The only error is a cell count that overflows int.
func Merge(parent, delta *Log) (*Log, error) {
	pp, dp := parent.pairs, delta.pairs
	pairAt, dPairAt, np := mergeOrder(len(pp), len(dp), func(i, j int) int {
		if c := strings.Compare(pp[i].Query, dp[j].Query); c != 0 {
			return c
		}
		return strings.Compare(pp[i].URL, dp[j].URL)
	})
	pu, du := parent.users, delta.users
	userAt, dUserAt, nu := mergeOrder(len(pu), len(du), func(i, j int) int {
		return strings.Compare(pu[i].ID, du[j].ID)
	})
	m := &Log{pairs: make([]Pair, np), users: make([]User, nu), size: parent.size + delta.size}

	for i := range pp {
		p := pp[i]
		p.Entries = remap(p.Entries, userAt)
		m.pairs[pairAt[i]] = p
	}
	for j := range dp {
		d, p := &dp[j], &m.pairs[dPairAt[j]]
		// A parent pair holds at least one entry, so nil Entries mark a
		// pair only the delta has.
		if p.Entries == nil {
			*p = Pair{Query: d.Query, URL: d.URL, Total: d.Total, Entries: remap(d.Entries, dUserAt)}
			continue
		}
		es, ok := add(p.Entries, d.Entries, dUserAt)
		if !ok {
			return nil, fmt.Errorf("searchlog: merged count overflows for pair (%q, %q)", d.Query, d.URL)
		}
		p.Entries, p.Total = es, p.Total+d.Total
	}

	for k := range pu {
		u := pu[k]
		u.Pairs = remap(u.Pairs, pairAt)
		m.users[userAt[k]] = u
	}
	for j := range du {
		d, u := &du[j], &m.users[dUserAt[j]]
		// Likewise, a parent user holds at least one pair.
		if u.Pairs == nil {
			*u = User{ID: d.ID, Pairs: remap(d.Pairs, dPairAt), Total: d.Total}
			continue
		}
		ups, ok := add(u.Pairs, d.Pairs, dPairAt)
		if !ok {
			return nil, fmt.Errorf("searchlog: merged count overflows for user %q", d.ID)
		}
		u.Pairs, u.Total = ups, u.Total+d.Total
	}
	return m, nil
}

// mergeOrder walks two strictly ascending key sequences of lengths na and
// nb, where cmp(i, j) compares a-key i with b-key j, and returns the index
// each key takes in their ascending union (a key on both sides takes one)
// and the union's length.
func mergeOrder(na, nb int, cmp func(i, j int) int) (at, bt []int, n int) {
	at, bt = make([]int, na), make([]int, nb)
	i, j := 0, 0
	for ; i < na || j < nb; n++ {
		c := -1 // only a-keys left
		if i == na {
			c = 1
		} else if j < nb {
			c = cmp(i, j)
		}
		if c <= 0 {
			at[i] = n
			i++
		}
		if c >= 0 {
			bt[j] = n
			j++
		}
	}
	return at, bt, n
}

// cell is one (index, count) element of either orientation: an Entry (user
// index, c_ijk) or a UserPair (pair index, c_ijk).
type cell[T any] interface {
	Entry | UserPair
	index() int
	count() int
	with(index, count int) T
}

func (e Entry) index() int                { return e.User }
func (e Entry) count() int                { return e.Count }
func (Entry) with(index, count int) Entry { return Entry{User: index, Count: count} }

func (up UserPair) index() int                  { return up.Pair }
func (up UserPair) count() int                  { return up.Count }
func (UserPair) with(index, count int) UserPair { return UserPair{Pair: index, Count: count} }

// remap returns cs with each index i moved to to[i]. An index map from
// mergeOrder never lowers an index, and it moves none until the first key
// the other side inserts, so when the last index of cs is unmoved none is
// and cs itself is returned.
func remap[T cell[T]](cs []T, to []int) []T {
	if len(cs) == 0 || to[cs[len(cs)-1].index()] == cs[len(cs)-1].index() {
		return cs
	}
	out := make([]T, len(cs))
	for n, c := range cs {
		out[n] = c.with(to[c.index()], c.count())
	}
	return out
}

// add returns, in a fresh slice, the cells a (already in merged indices)
// plus the cells b with each index i moved to to[i], summing the counts of
// a shared index. Both inputs ascend by index and are not modified. It
// reports false when a summed count overflows.
func add[T cell[T]](a, b []T, to []int) ([]T, bool) {
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].index() < to[b[0].index()]:
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || to[b[0].index()] < a[0].index():
			out, b = append(out, b[0].with(to[b[0].index()], b[0].count())), b[1:]
		default:
			c := a[0].count() + b[0].count()
			if c < 0 {
				return nil, false
			}
			out, a, b = append(out, a[0].with(a[0].index(), c)), a[1:], b[1:]
		}
	}
	return out, true
}
