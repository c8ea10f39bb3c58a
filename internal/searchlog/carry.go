package searchlog

// The prepared state of an appended version. A release preprocesses its
// log (Preprocess) and splits the result into the connected components of
// its user–pair graph (Components). An append changes few of those
// components, so a log built by Merge carries its parent's prepared state
// forward instead of rebuilding it:
//
//   - The child's preprocessed log is merge(parentPre, X). X holds the
//     delta's cells on every delta pair the child keeps and, for a pair the
//     delta turns from unique to shared, all of the child's cells: the
//     parent's raw cells that preprocessing had dropped, summed with the
//     delta's. A pair the parent kept has two holders and keeps them, so X
//     is every cell the child's preprocessed log adds to the parent's.
//   - A parent component that no cell of X touches, by pair or by user, is
//     a component of the child's preprocessed log with the same content. It
//     keeps its *Log, and with it the digest memo; only its index lists are
//     re-based. The parent-side dirty set is therefore the components of
//     the delta users with a kept delta cell and of every parent holder of
//     a kept delta pair: a pair held by one user, and so dropped, that the
//     delta makes shared dirties that user's component although the user
//     is not in the delta. The dirty components, with X's new pairs and
//     users, form the dirty region, which is decomposed and split once.
//   - The child's canonical TSV image splices the parent's: only the rows
//     of the users the delta touched are formatted (image.go).
//
// Only logs built by Merge keep a prepared state: a never-appended corpus
// would pin a preprocessed log and an image for nothing. A child takes its
// parent's state over, and the parent keeps none from then on, so a
// version chain holds at most one. Each state and each component memo is
// built once, under its own lock, by the first caller.

import (
	"fmt"
	"slices"
	"sync"
)

// prep is the prepared state a log built by Merge keeps: its preprocessed
// log and stats and its TSV image, each built on first use. Every Log has
// one, unused unless keep is set.
type prep struct {
	mu sync.Mutex
	// keep is set by Merge and cleared when a child takes the state over;
	// a log without it preprocesses from scratch and keeps nothing.
	keep    bool
	pre     *Log
	stats   PreprocessStats
	carried bool
	// from is what the parent handed over, kept until the state is built;
	// nil builds from scratch.
	from *carrySource
	// img is the log's canonical TSV image, built on its first write or
	// digest from imgFrom, the parent's image, or in full when that is nil
	// (image.go).
	img     *image
	imgFrom *imageSource
}

// carrySource is a parent's preprocessed log and the delta Merge folded
// onto the parent, with the child indices the delta's pairs and users
// landed at.
type carrySource struct {
	pre            *Log
	delta          *Log
	pairAt, userAt []int
}

// handOver makes l's child by Merge with delta, whose rows landed where idx
// says, keep a prepared state. The child carries l's preprocessed log and
// l's TSV image, each if l has built it, and l keeps none from now on.
func (l *Log) handOver(child, delta *Log, idx mergeIndex) {
	child.prep.keep = true
	p := &l.prep
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pre != nil {
		child.prep.from = &carrySource{pre: p.pre, delta: delta, pairAt: idx.bPairAt, userAt: idx.bUserAt}
	}
	if p.img != nil {
		child.prep.imgFrom = &imageSource{img: p.img, userAt: idx.aUserAt, deltaUserAt: idx.bUserAt}
	}
	p.keep, p.pre, p.from, p.img, p.imgFrom = false, nil, nil, nil, nil
}

// preprocessed returns l's prepared preprocessed log and stats, building
// them on first use, and whether they were carried from the parent's. ok
// is false when l keeps no prepared state.
func (l *Log) preprocessed() (pre *Log, st PreprocessStats, carried, ok bool) {
	p := &l.prep
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.keep {
		return nil, st, false, false
	}
	if p.pre == nil {
		if p.from != nil {
			p.pre, p.stats = carry(l, p.from)
			p.carried = true
		} else {
			p.pre, p.stats = preprocess(l)
			// A log with nothing to remove is its own preprocessed log and
			// gets no component memo: l is already published, and
			// Components reads the field without a lock.
			if p.pre != l {
				p.pre.parts = &parts{}
			}
		}
		p.from = nil
	}
	return p.pre, p.stats, p.carried, true
}

// carry derives child's preprocessed log and stats from the state its
// parent handed over. The result has a component memo that carries the
// parent's components, if the parent's preprocessed log has one.
func carry(child *Log, src *carrySource) (*Log, PreprocessStats) {
	x := carriedCells(child, src.delta, src.pairAt, src.userAt)
	pre, idx, err := merge(src.pre, x)
	if err != nil {
		// Every cell merge sums is a cell of child, which did not overflow.
		panic(fmt.Sprintf("searchlog: carry: %v", err))
	}
	pre.parts = &parts{}
	if src.pre.parts != nil {
		pre.parts.from = &partsSource{parent: src.pre.parts, mergeIndex: idx}
	}
	return pre, PreprocessStats{
		RemovedPairs: len(child.pairs) - len(pre.pairs),
		RemovedUsers: len(child.users) - len(pre.users),
		RemovedMass:  child.size - pre.size,
	}
}

// carriedCells returns X, the cells child's preprocessed log holds beyond
// its parent's (see the file comment). delta's pair j and user k are
// child's pairAt[j] and userAt[k]. X's pairs and users are child's, in
// child's order, so X is a Log merge can fold.
func carriedCells(child, delta *Log, pairAt, userAt []int) *Log {
	type row struct {
		pair  int     // child pair index
		cells []Entry // child user indices
	}
	rows := make([]row, 0, len(delta.pairs))
	var users []int
	for j := range delta.pairs {
		c := &child.pairs[pairAt[j]]
		if len(c.Entries) < 2 {
			continue // unique in the child, so dropped
		}
		cells := remap(delta.pairs[j].Entries, userAt)
		if parentHolders(c.Entries, cells) < 2 {
			cells = c.Entries // the parent dropped the pair, or never had it
		}
		rows = append(rows, row{pairAt[j], cells})
		for _, e := range cells {
			users = append(users, e.User)
		}
	}
	slices.Sort(users)
	users = slices.Compact(users)

	x := &Log{pairs: make([]Pair, len(rows)), users: make([]User, len(users))}
	for k, u := range users {
		x.users[k].ID = child.users[u].ID
	}
	for i, r := range rows {
		p := &child.pairs[r.pair]
		es := make([]Entry, len(r.cells))
		total := 0
		for n, e := range r.cells {
			k, _ := slices.BinarySearch(users, e.User)
			es[n] = Entry{User: k, Count: e.Count}
			total += e.Count
			u := &x.users[k]
			u.Pairs = append(u.Pairs, UserPair{Pair: i, Count: e.Count})
			u.Total += e.Count
		}
		x.pairs[i] = Pair{Query: p.Query, URL: p.URL, Total: total, Entries: es}
		x.size += total
	}
	return x
}

// parentHolders counts the users that held a pair before the delta: the
// child's cells whose count exceeds the delta's cell of the same user. Both
// lists ascend by child user index.
func parentHolders(child, delta []Entry) int {
	n := 0
	for _, e := range child {
		for len(delta) > 0 && delta[0].User < e.User {
			delta = delta[1:]
		}
		if len(delta) == 0 || delta[0].User != e.User || e.Count > delta[0].Count {
			n++
		}
	}
	return n
}
