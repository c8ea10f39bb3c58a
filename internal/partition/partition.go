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
//
// The union-find pass and the sub-log split live with the Log
// (searchlog's Log.Components), because an appended version carries its
// parent's components forward there; this package is the solvers' view of
// them, with the parent index maps and the decompose span.
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

// Decompose splits the log into the connected components of its user–pair
// incidence graph (searchlog's Log.Components). Components are ordered by
// their smallest parent pair index, and the construction is deterministic,
// so downstream parallel solves stitch identically regardless of
// scheduling. A connected log comes back as a single component sharing the
// parent *Log (no copy); an empty log yields nil. On the preprocessed log
// of an appended version the components are carried from the parent
// version's: only the ones the append dirtied are rebuilt. The slice is the
// caller's; the component sub-logs and index lists are shared.
func Decompose(l *searchlog.Log) []Component {
	return DecomposeCtx(context.Background(), l)
}

// DecomposeCtx is Decompose with a "partition.decompose" span recording the
// component count, how many were carried and the graph size when ctx
// carries an active obs trace.
func DecomposeCtx(ctx context.Context, l *searchlog.Log) []Component {
	_, sp := obs.Start(ctx, "partition.decompose")
	subs, sels, carried := l.Components()
	var comps []Component
	if len(subs) > 0 {
		comps = make([]Component, len(subs))
		for ci, sub := range subs {
			comps[ci] = Component{Log: sub, Pairs: sels[ci].Pairs, Users: sels[ci].Users}
		}
	}
	sp.SetAttr("components", len(comps))
	sp.SetAttr("carried_components", carried)
	sp.SetAttr("pairs", l.NumPairs())
	sp.SetAttr("users", l.NumUsers())
	sp.End()
	return comps
}
