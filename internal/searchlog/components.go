package searchlog

import (
	"slices"
	"sync"
)

// parts is the component memo of a preprocessed log in a prepared state
// (carry.go): Components' result, built on first use.
type parts struct {
	mu      sync.Mutex
	done    bool
	subs    []*Log
	sels    []Selection
	carried int
	// from relates the log to its parent's preprocessed log, kept until the
	// memo is built; nil decomposes from scratch.
	from *partsSource
}

// partsSource is the parent preprocessed log's component memo and where
// merge put the parent's pairs and users (aPairAt, aUserAt) and X's
// (bPairAt, bUserAt) in the carried log.
type partsSource struct {
	parent *parts
	mergeIndex
}

// parentParts returns the parent's components, if there is a parent and
// its components have been built.
func (src *partsSource) parentParts() (subs []*Log, sels []Selection, ok bool) {
	if src == nil {
		return nil, nil, false
	}
	p := src.parent
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.subs, p.sels, p.done
}

// Components splits the log into the connected components of its user–pair
// incidence graph (vertices: users and pairs; edges: c_ijk > 0). subs[c] is
// component c's sub-log and sels[c] its parent pair and user indices, as
// Split builds them. Components are ordered by smallest pair index. A
// connected log comes back as one component sharing l, with identity
// selections; an empty log yields none.
//
// On the preprocessed log of an appended version (see Preprocess) the
// result is memoized, and carried is the number of components taken
// unchanged — the same *Log, with its digest memo — from the parent
// version's components. The returned slices are shared and must not be
// modified.
func (l *Log) Components() (subs []*Log, sels []Selection, carried int) {
	m := l.parts
	if m == nil {
		subs, sels = l.components()
		return subs, sels, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.done {
		if psubs, psels, ok := m.from.parentParts(); ok {
			m.subs, m.sels, m.carried = l.carryComponents(psubs, psels, m.from)
		} else {
			m.subs, m.sels = l.components()
		}
		m.done, m.from = true, nil
	}
	return m.subs, m.sels, m.carried
}

// components is Components from scratch.
func (l *Log) components() ([]*Log, []Selection) {
	all := make([]int, len(l.pairs))
	for i := range all {
		all[i] = i
	}
	return l.splitRegion(l.connected(all))
}

// splitRegion builds the sub-logs of the given components, unless there
// is one component and it holds every pair: that is l itself.
func (l *Log) splitRegion(sels []Selection) ([]*Log, []Selection) {
	switch {
	case len(sels) == 0:
		return nil, nil
	case len(sels) == 1 && len(sels[0].Pairs) == len(l.pairs):
		return []*Log{l}, sels
	}
	return l.Split(sels), sels
}

// carryComponents derives l's components from its parent's, psubs and
// psels, given src (see the file comment of carry.go): clean parent
// components keep their sub-log and are re-based, the dirty region is
// decomposed and split, and all are ordered by smallest pair index.
func (l *Log) carryComponents(psubs []*Log, psels []Selection, src *partsSource) ([]*Log, []Selection, int) {
	np := len(src.aPairAt)
	compOf := make([]int, np+len(src.aUserAt))
	pairComp, userComp := compOf[:np], compOf[np:]
	for c, s := range psels {
		for _, i := range s.Pairs {
			pairComp[i] = c
		}
		for _, k := range s.Users {
			userComp[k] = c
		}
	}
	// A cell of X dirties the parent component of its pair and of its
	// user; a pair or user the parent lacks is in the region itself.
	dirty := make([]bool, len(psels))
	region := make([]bool, len(l.pairs))
	for _, x := range src.bPairAt {
		if i, ok := slices.BinarySearch(src.aPairAt, x); ok {
			dirty[pairComp[i]] = true
		} else {
			region[x] = true
		}
	}
	for _, x := range src.bUserAt {
		if k, ok := slices.BinarySearch(src.aUserAt, x); ok {
			dirty[userComp[k]] = true
		}
	}
	var clean []int
	for c, s := range psels {
		if !dirty[c] {
			clean = append(clean, c)
			continue
		}
		for _, i := range s.Pairs {
			region[src.aPairAt[i]] = true
		}
	}
	var pairs []int
	for i, in := range region {
		if in {
			pairs = append(pairs, i)
		}
	}
	dsels := l.connected(pairs)
	if len(clean) == 0 || len(clean)+len(dsels) == 1 {
		// Nothing to carry, or one component, which is l itself, as from
		// scratch.
		if len(clean) == 1 {
			dsels = []Selection{rebased(psels[clean[0]], src)}
		}
		subs, sels := l.splitRegion(dsels)
		return subs, sels, 0
	}
	var dsubs []*Log
	if len(dsels) > 0 {
		dsubs = l.Split(dsels)
	}

	n := len(clean) + len(dsels)
	subs, sels := make([]*Log, 0, n), make([]Selection, 0, n)
	d := 0
	for _, c := range clean {
		s := rebased(psels[c], src)
		for ; d < len(dsels) && dsels[d].Pairs[0] < s.Pairs[0]; d++ {
			subs, sels = append(subs, dsubs[d]), append(sels, dsels[d])
		}
		subs, sels = append(subs, psubs[c]), append(sels, s)
	}
	subs, sels = append(subs, dsubs[d:]...), append(sels, dsels[d:]...)
	return subs, sels, len(clean)
}

// rebased returns a parent component's selection in the carried log's
// indices.
func rebased(s Selection, src *partsSource) Selection {
	return Selection{Pairs: rebase(s.Pairs, src.aPairAt), Users: rebase(s.Users, src.aUserAt)}
}

// rebase returns idx with each index i moved to at[i]. Like remap, it
// returns idx itself when at moves none of them.
func rebase(idx, at []int) []int {
	if len(idx) == 0 || at[idx[len(idx)-1]] == idx[len(idx)-1] {
		return idx
	}
	out := make([]int, len(idx))
	for n, i := range idx {
		out[n] = at[i]
	}
	return out
}

// connected returns the connected components of the region of l spanned
// by pairs (ascending), ordered by smallest pair index, as selections. The
// region must be closed: every pair of a user who holds a region pair is in
// the region too.
func (l *Log) connected(pairs []int) []Selection {
	if len(pairs) == 0 {
		return nil
	}
	uf := newUnionFind(len(l.users))
	for _, i := range pairs {
		es := l.pairs[i].Entries
		for _, e := range es[1:] {
			uf.union(es[0].User, e.User)
		}
	}

	// Component ids in order of first appearance over ascending pair index,
	// which orders components by smallest pair index. compOf maps a
	// union-find root to its component id + 1 (0: not a region root), and a
	// root's union-find size is its component's user count; a user outside
	// the region is its own root and never a region root.
	compOf := make([]int, len(l.users))
	var roots, numPairs []int
	for _, i := range pairs {
		root := uf.find(l.pairs[i].Entries[0].User)
		if compOf[root] == 0 {
			roots = append(roots, root)
			numPairs = append(numPairs, 0)
			compOf[root] = len(roots)
		}
		numPairs[compOf[root]-1]++
	}
	// Every component's index lists are carved, at their exact length, from
	// one slab.
	sels := make([]Selection, len(roots))
	size := len(pairs)
	for _, root := range roots {
		size += uf.size[root]
	}
	slab := make([]int, size)
	for ci, root := range roots {
		np, nu := numPairs[ci], uf.size[root]
		sels[ci] = Selection{Pairs: slab[:0:np], Users: slab[np : np : np+nu]}
		slab = slab[np+nu:]
	}
	for _, i := range pairs {
		s := &sels[compOf[uf.find(l.pairs[i].Entries[0].User)]-1]
		s.Pairs = append(s.Pairs, i)
	}
	for k := range l.users {
		if c := compOf[uf.find(k)]; c > 0 {
			sels[c-1].Users = append(sels[c-1].Users, k)
		}
	}
	return sels
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
