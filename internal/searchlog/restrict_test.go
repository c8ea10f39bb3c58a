package searchlog

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func restrictFixture(t *testing.T) *Log {
	t.Helper()
	b := NewBuilder()
	// Two islands: {a,b}×{(q1,u1)} and {c,d}×{(q2,u2),(q3,u3)}.
	b.Add("a", "q1", "u1", 2)
	b.Add("b", "q1", "u1", 3)
	b.Add("c", "q2", "u2", 1)
	b.Add("d", "q2", "u2", 1)
	b.Add("c", "q3", "u3", 2)
	b.Add("d", "q3", "u3", 5)
	l, err := b.BuildLog()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// restrict is the one-selection sub-log constructor Split replaced, kept
// as its oracle: the parent restricted to ascending pair and user indices,
// translating indices through dense tables, with one fresh slice per row.
func restrict(l *Log, pairs, users []int) *Log {
	userLocal := make([]int, len(l.users))
	for i := range userLocal {
		userLocal[i] = -1
	}
	for k, pk := range users {
		if pk < 0 || pk >= len(l.users) {
			panic(fmt.Sprintf("restrict: user index %d out of range [0, %d)", pk, len(l.users)))
		}
		if k > 0 && users[k-1] >= pk {
			panic("restrict: user indices must be strictly ascending")
		}
		userLocal[pk] = k
	}
	pairLocal := make([]int, len(l.pairs))
	for i := range pairLocal {
		pairLocal[i] = -1
	}
	for j, pi := range pairs {
		if pi < 0 || pi >= len(l.pairs) {
			panic(fmt.Sprintf("restrict: pair index %d out of range [0, %d)", pi, len(l.pairs)))
		}
		if j > 0 && pairs[j-1] >= pi {
			panic("restrict: pair indices must be strictly ascending")
		}
		pairLocal[pi] = j
	}
	sub := &Log{pairs: make([]Pair, len(pairs)), users: make([]User, len(users))}
	for j, pi := range pairs {
		p := &l.pairs[pi]
		entries := make([]Entry, len(p.Entries))
		for e, en := range p.Entries {
			lk := userLocal[en.User]
			if lk < 0 {
				panic(fmt.Sprintf("restrict: drops user %d of pair %d", en.User, pi))
			}
			entries[e] = Entry{User: lk, Count: en.Count}
		}
		sub.pairs[j] = Pair{Query: p.Query, URL: p.URL, Total: p.Total, Entries: entries}
		sub.size += p.Total
	}
	for k, pk := range users {
		u := &l.users[pk]
		ups := make([]UserPair, 0, len(u.Pairs))
		total := 0
		for _, up := range u.Pairs {
			if lj := pairLocal[up.Pair]; lj >= 0 {
				ups = append(ups, UserPair{Pair: lj, Count: up.Count})
				total += up.Count
			}
		}
		sub.users[k] = User{ID: u.ID, Pairs: ups, Total: total}
	}
	return sub
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// checkSplit compares l.Split(sels) with the oracle applied to each
// selection on its own: the same panic, or the same rows, size, digest and
// index lookups. The oracle does not know about the other selections, so a
// selection overlapping another must panic in Split alone.
func checkSplit(t *testing.T, l *Log, sels []Selection, overlap bool) {
	t.Helper()
	want := make([]*Log, len(sels))
	oraclePanics := false
	for g, s := range sels {
		if panics(func() { want[g] = restrict(l, s.Pairs, s.Users) }) {
			oraclePanics = true
		}
	}
	var got []*Log
	if p := panics(func() { got = l.Split(sels) }); p != (oraclePanics || overlap) {
		t.Fatalf("Split panicked %v, want %v (oracle %v, overlap %v) on %+v", p, !p, oraclePanics, overlap, sels)
	}
	if got == nil {
		return
	}
	for g := range sels {
		sub, ref := got[g], want[g]
		if !reflect.DeepEqual(sub.pairs, ref.pairs) || !reflect.DeepEqual(sub.users, ref.users) {
			t.Fatalf("selection %d rows differ from the oracle:\npairs %+v\nwant  %+v\nusers %+v\nwant  %+v",
				g, sub.pairs, ref.pairs, sub.users, ref.users)
		}
		if sub.Size() != ref.Size() || sub.Digest() != ref.Digest() {
			t.Fatalf("selection %d size %d digest %s, oracle %d %s", g, sub.Size(), sub.Digest(), ref.Size(), ref.Digest())
		}
		for j := range sub.pairs {
			if i := sub.PairIndex(sub.pairs[j].Key()); i != j {
				t.Fatalf("selection %d: PairIndex of pair %d = %d", g, j, i)
			}
		}
		for k := range sub.users {
			if i := sub.UserIndex(sub.users[k].ID); i != k {
				t.Fatalf("selection %d: UserIndex of user %d = %d", g, k, i)
			}
		}
	}
}

func TestRestrictPreservesOrderAndCounts(t *testing.T) {
	l := restrictFixture(t)
	// Pairs sorted (q1,u1)=0 (q2,u2)=1 (q3,u3)=2; users a=0 b=1 c=2 d=3.
	subs := l.Split([]Selection{{Pairs: []int{0}, Users: []int{0, 1}}, {Pairs: []int{1, 2}, Users: []int{2, 3}}})
	sub := subs[1]
	if sub.NumPairs() != 2 || sub.NumUsers() != 2 {
		t.Fatalf("sub shape %dx%d, want 2x2", sub.NumPairs(), sub.NumUsers())
	}
	if sub.Size() != 9 || subs[0].Size() != 5 {
		t.Fatalf("sub sizes %d, %d, want 5, 9", subs[0].Size(), sub.Size())
	}
	if sub.Pair(0).Query != "q2" || sub.Pair(1).Query != "q3" {
		t.Fatalf("pair order not preserved: %q, %q", sub.Pair(0).Query, sub.Pair(1).Query)
	}
	if sub.User(0).ID != "c" || sub.User(1).ID != "d" {
		t.Fatalf("user order not preserved: %q, %q", sub.User(0).ID, sub.User(1).ID)
	}
	if got := sub.TripletCount(1, 1); got != 5 { // (q3,u3) held by d
		t.Fatalf("remapped triplet count %d, want 5", got)
	}
	if got := sub.PairIndex(PairKey{"q3", "u3"}); got != 1 {
		t.Fatalf("pair index lookup %d, want 1", got)
	}
	if got := sub.UserIndex("d"); got != 1 {
		t.Fatalf("user index lookup %d, want 1", got)
	}
	// The restriction of an island digests like the island built directly.
	b := NewBuilder()
	b.Add("c", "q2", "u2", 1)
	b.Add("d", "q2", "u2", 1)
	b.Add("c", "q3", "u3", 2)
	b.Add("d", "q3", "u3", 5)
	direct := b.Log()
	if sub.Digest() != direct.Digest() {
		t.Fatal("restricted island digest differs from directly built log")
	}
}

func TestRestrictUserWithOutsidePairs(t *testing.T) {
	l := restrictFixture(t)
	// Selecting only (q2,u2) keeps c and d but shrinks their totals, alone
	// or beside another selection.
	for _, sels := range [][]Selection{
		{{Pairs: []int{1}, Users: []int{2, 3}}},
		{{Pairs: []int{1}, Users: []int{2, 3}}, {Pairs: []int{0}, Users: []int{0, 1}}},
	} {
		sub := l.Split(sels)[0]
		if sub.Size() != 2 {
			t.Fatalf("sub size %d, want 2", sub.Size())
		}
		if got := sub.User(0).Total; got != 1 {
			t.Fatalf("user c total %d, want 1", got)
		}
	}
}

func TestRestrictPanics(t *testing.T) {
	l := restrictFixture(t)
	for name, sels := range map[string][]Selection{
		"dropped mass":        {{Pairs: []int{0}, Users: []int{0}}}, // pair 0 also held by b
		"mass in other sel":   {{Pairs: []int{0}, Users: []int{0}}, {Pairs: []int{1}, Users: []int{1, 2, 3}}},
		"unsorted pairs":      {{Pairs: []int{2, 1}, Users: []int{2, 3}}},
		"unsorted users":      {{Pairs: []int{1, 2}, Users: []int{3, 2}}},
		"pair out of range":   {{Pairs: []int{99}, Users: []int{0}}},
		"user out of range":   {{Pairs: []int{0}, Users: []int{0, 1, 4}}},
		"negative index":      {{Pairs: []int{-1}, Users: []int{0}}},
		"pair in two sels":    {{Pairs: []int{1, 2}, Users: []int{2, 3}}, {Pairs: []int{2}}},
		"user in two sels":    {{Pairs: []int{0}, Users: []int{0, 1}}, {Users: []int{1}}},
		"same sel duplicated": {{Pairs: []int{0}, Users: []int{0, 1}}, {Pairs: []int{0}, Users: []int{0, 1}}},
	} {
		if !panics(func() { l.Split(sels) }) {
			t.Errorf("%s: expected panic", name)
		}
	}
}

// FuzzSplit: for any log and any disjoint selections, Split must equal the
// per-selection oracle, and it must panic exactly where the oracle does or
// the selections overlap.
//
// rows decode through decodeRows. Each byte of assign gives a user's
// selection (value mod 4, 3 meaning none); each byte of pick then gives a
// pair's: 0 leaves it out, 1 puts it in its first user's selection, 2 does
// too unless its users disagree, 3 puts it in selection 0. mode corrupts
// the selections: 1 adds an out-of-range pair, 2 swaps two users, 3 copies
// a pair of selection 0 into selection 1.
func FuzzSplit(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 0, 0, 1, 2, 1, 1, 3, 3, 1, 1, 1}, []byte{0, 0, 1, 1}, []byte{1, 2, 1}, byte(0))
	f.Add([]byte{0, 0, 0, 2, 1, 0, 0, 1, 2, 3, 2, 1}, []byte{0, 1, 2}, []byte{3, 3, 3}, byte(0))
	f.Add([]byte{0, 1, 2, 3, 4, 1, 2, 3, 6, 4, 0, 9, 5, 0, 0, 1}, []byte{2, 2, 2, 2}, []byte{2, 2, 2, 2}, byte(1))
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 1, 2, 1, 1, 1, 3, 1, 1, 1}, []byte{0, 0, 0, 0}, []byte{1, 1}, byte(2))
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 1, 2, 1, 1, 1, 3, 1, 1, 1}, []byte{0, 1, 1, 1}, []byte{1, 1}, byte(3))
	f.Fuzz(func(t *testing.T, rows, assign, pick []byte, mode byte) {
		l, err := decodeRows(rows)
		if err != nil {
			return
		}
		sels := make([]Selection, 3)
		userSel := make([]int, l.NumUsers())
		for k := range userSel {
			userSel[k] = 3
			if k < len(assign) {
				userSel[k] = int(assign[k] % 4)
			}
			if g := userSel[k]; g < 3 {
				sels[g].Users = append(sels[g].Users, k)
			}
		}
		for i := range l.pairs {
			if i >= len(pick) {
				break
			}
			es := l.pairs[i].Entries
			g := userSel[es[0].User]
			switch pick[i] % 4 {
			case 0:
				continue
			case 2:
				for _, e := range es {
					if userSel[e.User] != g {
						g = 3
					}
				}
			case 3:
				g = 0
			}
			if g < 3 {
				sels[g].Pairs = append(sels[g].Pairs, i)
			}
		}
		overlap := false
		switch mode % 4 {
		case 1:
			sels[0].Pairs = append(sels[0].Pairs, l.NumPairs())
		case 2:
			if us := sels[0].Users; len(us) >= 2 {
				us[0], us[1] = us[1], us[0]
			}
		case 3:
			if ps := sels[0].Pairs; len(ps) > 0 {
				sels[1].Pairs = append([]int{ps[0]}, sels[1].Pairs...)
				overlap = len(sels[1].Pairs) == 1 || sels[1].Pairs[1] > ps[0]
			}
		}
		checkSplit(t, l, sels, overlap)
	})
}

// TestIndexConcurrentLookups: the key → index maps build lazily on the
// first lookup, so concurrent first lookups on a shared log — a split
// sub-log, a merged log — must agree and not race.
func TestIndexConcurrentLookups(t *testing.T) {
	parent := shareLog(t, 200)
	var all Selection
	for i := range parent.pairs {
		all.Pairs = append(all.Pairs, i)
	}
	for k := range parent.users {
		all.Users = append(all.Users, k)
	}
	sub := parent.Split([]Selection{all})[0]
	merged, err := Merge(parent, testDelta(t, "new\tq000001\tl\t4\nu000002\tnew\tl\t1\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*Log{sub, merged} {
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range l.pairs {
					if got := l.PairIndex(l.pairs[i].Key()); got != i {
						t.Errorf("PairIndex = %d, want %d", got, i)
						return
					}
				}
				for k := range l.users {
					if got := l.UserIndex(l.users[k].ID); got != k {
						t.Errorf("UserIndex = %d, want %d", got, k)
						return
					}
				}
				if l.PairIndex(PairKey{"absent", "absent"}) != -1 || l.UserIndex("absent") != -1 {
					t.Error("lookup of an absent key found an index")
				}
			}()
		}
		wg.Wait()
	}
}
