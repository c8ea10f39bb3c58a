// Package partition decomposes a preprocessed search log into the connected
// components of its user–pair incidence graph (vertices: users and pairs;
// edges: c_ijk > 0). The Theorem-1 constraint rows never span two components
// — each row is one user log and a user's pairs all lie in the user's
// component — so the utility-maximizing problems in internal/ump solve each
// component independently and stitch the sub-plans back together (see
// DESIGN.md §6 for the additivity argument per objective).
//
// The decomposition is purely structural: it depends on which (user, pair)
// cells are non-zero, not on the privacy parameters. Single-market Zipf
// corpora (the gen tiny/small/paper profiles) typically form one giant
// component because head pairs are shared by most users; multi-market logs
// (the *-sharded profiles, or any per-locale corpus) split into one
// component per market and solve embarrassingly parallel.
package partition

import (
	"context"

	"dpslog/internal/obs"
	"dpslog/internal/searchlog"
)

// Component is one connected component of the user–pair incidence graph.
type Component struct {
	// Log is the component sub-log. Its pair order (and user order) is the
	// parent's order restricted to the component, so local index j maps to
	// parent index Pairs[j] (Users[k] for users).
	Log *searchlog.Log
	// Pairs maps local pair index → parent pair index, strictly ascending.
	Pairs []int
	// Users maps local user index → parent user index, strictly ascending.
	Users []int
}

// Scatter copies a component-local per-pair slice into the parent-indexed
// dst (len dst = parent NumPairs). Entries of dst outside the component are
// left untouched; components are disjoint, so scattering every component
// fills dst exactly once per pair.
func (c *Component) Scatter(local []int, dst []int) {
	for j, v := range local {
		dst[c.Pairs[j]] = v
	}
}

// Whole returns the log as its own single component, sharing l, with
// identity index maps: the shape Decompose gives a connected log, built
// without the union-find pass.
func Whole(l *searchlog.Log) Component {
	pairs := make([]int, l.NumPairs())
	for i := range pairs {
		pairs[i] = i
	}
	users := make([]int, l.NumUsers())
	for k := range users {
		users[k] = k
	}
	return Component{Log: l, Pairs: pairs, Users: users}
}

// unionFind is a standard disjoint-set forest with path halving and union by
// size, over user indices.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}

// Decompose splits the log into the connected components of its user–pair
// incidence graph. Components are ordered by their smallest parent pair
// index, and the construction is deterministic, so downstream parallel
// solves stitch identically regardless of scheduling. A connected log comes
// back as a single component sharing the parent *Log (no copy); an empty
// log yields nil.
func Decompose(l *searchlog.Log) []Component {
	return DecomposeCtx(context.Background(), l)
}

// DecomposeCtx is Decompose with a "partition.decompose" span recording the
// component count and graph size when ctx carries an active obs trace.
func DecomposeCtx(ctx context.Context, l *searchlog.Log) []Component {
	_, sp := obs.Start(ctx, "partition.decompose")
	comps := decompose(l)
	sp.SetAttr("components", len(comps))
	sp.SetAttr("pairs", l.NumPairs())
	sp.SetAttr("users", l.NumUsers())
	sp.End()
	return comps
}

func decompose(l *searchlog.Log) []Component {
	if l.NumPairs() == 0 {
		return nil
	}
	uf := newUnionFind(l.NumUsers())
	for i := 0; i < l.NumPairs(); i++ {
		es := l.Pair(i).Entries
		for _, e := range es[1:] {
			uf.union(es[0].User, e.User)
		}
	}

	// Component ids in order of first appearance over ascending pair index,
	// which orders components by smallest parent pair index.
	compOf := make(map[int]int)
	var comps []Component
	for i := 0; i < l.NumPairs(); i++ {
		root := uf.find(l.Pair(i).Entries[0].User)
		ci, ok := compOf[root]
		if !ok {
			ci = len(comps)
			compOf[root] = ci
			comps = append(comps, Component{})
		}
		comps[ci].Pairs = append(comps[ci].Pairs, i)
	}
	if len(comps) == 1 {
		return []Component{Whole(l)}
	}
	for k := 0; k < l.NumUsers(); k++ {
		// Every user in a Log holds at least one pair, so its root is mapped.
		ci := compOf[uf.find(k)]
		comps[ci].Users = append(comps[ci].Users, k)
	}
	for ci := range comps {
		comps[ci].Log = l.Restrict(comps[ci].Pairs, comps[ci].Users)
	}
	return comps
}
