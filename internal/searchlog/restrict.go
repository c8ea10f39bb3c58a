package searchlog

import "fmt"

// Selection names one sub-log of a parent log by parent pair and parent user
// indices, both strictly ascending.
type Selection struct {
	Pairs []int
	Users []int
}

// slot records where a parent pair or user lands in Split's output: the
// selection (1-based, so the zero value means "outside every selection")
// and the local index there.
type slot struct{ sel, local int }

// Split builds the sub-log induced by each of the given disjoint selections,
// in one pass over the parent. A sub-log's pair order (and user order) is
// the parent's order restricted to its selection, so local index j
// corresponds to parent index sel.Pairs[j] (sel.Users[k] for users) — the
// property the component decomposition in internal/partition relies on to
// stitch per-component plans back into parent-indexed ones. Preprocess is
// the one-selection case.
//
// Every entry of a selected pair must reference a user of the same
// selection: a pair's count mass may not be silently dropped, because the
// Theorem-1 constraint coefficients ln(c_ij/(c_ij − c_ijk)) depend on the
// full per-user breakdown of c_ij. Selected users may hold pairs outside
// their selection, unselected or selected by another; those are omitted and
// the user's Total shrinks accordingly. Split panics on an out-of-range,
// unsorted, overlapping or mass-dropping selection — all are programmer
// errors.
//
// One parent-sized table translates parent indices for every selection at
// once, and each sub-log keeps its entries in one Entry slab and one
// UserPair slab, so the allocations grow with the number of selections, not
// with the rows. Sub-logs build their index maps on first lookup.
func (l *Log) Split(sels []Selection) []*Log {
	np := len(l.pairs)
	slots := make([]slot, np+len(l.users))
	pairSlot, userSlot := slots[:np], slots[np:]
	for g, s := range sels {
		claim("pair", s.Pairs, pairSlot, g)
		claim("user", s.Users, userSlot, g)
	}

	subs := make([]*Log, len(sels))
	for g, s := range sels {
		sub := &Log{pairs: make([]Pair, len(s.Pairs)), users: make([]User, len(s.Users))}
		// Every entry of a selected pair is a cell of a selected user, so the
		// two orientations hold the same number of cells.
		n := 0
		for _, pi := range s.Pairs {
			n += len(l.pairs[pi].Entries)
		}
		entries := make([]Entry, n)
		for j, pi := range s.Pairs {
			p := &l.pairs[pi]
			es := entries[:len(p.Entries):len(p.Entries)]
			entries = entries[len(p.Entries):]
			for e, en := range p.Entries {
				us := userSlot[en.User]
				if us.sel != g+1 {
					panic(fmt.Sprintf("searchlog: Split drops user %d holding %d of pair %d (%q, %q)",
						en.User, en.Count, pi, p.Query, p.URL))
				}
				// Parent entries ascend by parent user index; the
				// order-preserving user map keeps them ascending by local index.
				es[e] = Entry{User: us.local, Count: en.Count}
			}
			sub.pairs[j] = Pair{Query: p.Query, URL: p.URL, Total: p.Total, Entries: es}
			sub.size += p.Total
		}
		ups := make([]UserPair, n)
		for k, pk := range s.Users {
			u := &l.users[pk]
			m, total := 0, 0
			for _, up := range u.Pairs {
				if ps := pairSlot[up.Pair]; ps.sel == g+1 {
					ups[m] = UserPair{Pair: ps.local, Count: up.Count}
					m++
					total += up.Count
				}
			}
			sub.users[k] = User{ID: u.ID, Pairs: ups[:m:m], Total: total}
			ups = ups[m:]
		}
		subs[g] = sub
	}
	return subs
}

// claim records selection g's parent indices idx in table, panicking on an
// index out of range, out of order or already claimed by a selection.
func claim(what string, idx []int, table []slot, g int) {
	for local, i := range idx {
		if i < 0 || i >= len(table) {
			panic(fmt.Sprintf("searchlog: Split %s index %d out of range [0, %d)", what, i, len(table)))
		}
		if local > 0 && idx[local-1] >= i {
			panic(fmt.Sprintf("searchlog: Split %s indices must be strictly ascending", what))
		}
		if table[i].sel != 0 {
			panic(fmt.Sprintf("searchlog: Split %s index %d is in selections %d and %d", what, i, table[i].sel-1, g))
		}
		table[i] = slot{sel: g + 1, local: local}
	}
}
