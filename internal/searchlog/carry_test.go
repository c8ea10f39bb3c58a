package searchlog

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// sameLog fails unless got and want hold the same rows, size and digest.
func sameLog(t *testing.T, what string, got, want *Log) {
	t.Helper()
	if !reflect.DeepEqual(got.pairs, want.pairs) || !reflect.DeepEqual(got.users, want.users) || got.size != want.size {
		t.Fatalf("%s: rows differ\npairs %+v\nwant  %+v\nusers %+v\nwant  %+v", what, got.pairs, want.pairs, got.users, want.users)
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("%s: digest %s, want %s", what, got.Digest(), want.Digest())
	}
}

// checkPrepared compares l's preprocessed log and components with the
// ones built from scratch over a fresh copy of l's histogram, and returns
// whether the preprocessed log was carried and how many components were.
func checkPrepared(t *testing.T, l *Log) (carried bool, carriedComps int) {
	t.Helper()
	fresh, err := BuildFromUserCounts(l.UserCounts())
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt := Preprocess(fresh)
	pre, st, carried := PreprocessCarried(l)
	if st != wantSt {
		t.Fatalf("stats %+v, want %+v", st, wantSt)
	}
	sameLog(t, "preprocessed log", pre, want)
	wantSubs, wantSels, _ := want.Components()
	subs, sels, carriedComps := pre.Components()
	if !reflect.DeepEqual(sels, wantSels) {
		t.Fatalf("component selections %v, want %v", sels, wantSels)
	}
	for c := range wantSubs {
		sameLog(t, fmt.Sprintf("component %d", c), subs[c], wantSubs[c])
	}
	if len(subs) == 1 && subs[0] != pre {
		t.Fatal("a connected preprocessed log is not its own component")
	}
	// A log that keeps a prepared state returns it on a second call.
	if again, _ := Preprocess(l); l.prep.keep && again != pre {
		t.Fatal("Preprocess rebuilt a prepared log")
	}
	if again, _, _ := pre.Components(); pre.parts != nil && len(again) > 0 && &again[0] != &subs[0] {
		t.Fatal("Components rebuilt a memoized decomposition")
	}
	return carried, carriedComps
}

// decodeChain turns fuzz bytes into a base log and a chain of deltas over
// a small key space, so deltas often share, un-unique and bridge pairs.
// Every 4 bytes are one row (user, query, url, count byte); a count byte
// ≡ 0 mod 4 ends the current log instead, and its user byte is returned as
// the log's flags (1 for the last log). In FuzzCarry the low bit asks for
// a release of the current version before the next append.
func decodeChain(data []byte) (logs []*Log, flags []byte) {
	b := NewBuilder()
	end := func(f byte) {
		logs, flags = append(logs, b.Log()), append(flags, f)
		b = NewBuilder()
	}
	for ; len(data) >= 4; data = data[4:] {
		if data[3]%4 == 0 {
			end(data[0])
			continue
		}
		b.Add(fmt.Sprintf("u%d", data[0]%9), fmt.Sprintf("q%d", data[1]%6), fmt.Sprintf("l%d", data[2]%3), int(data[3]%4))
	}
	end(1)
	return logs, flags
}

// rows encodes rows for decodeChain: each is (user, query, url, count),
// and a count of 0 ends a log with a release.
func rows(rs ...[4]byte) []byte {
	var out []byte
	for _, r := range rs {
		if r[3] == 0 {
			r[0] |= 1
		}
		out = append(out, r[:]...)
	}
	return out
}

// FuzzCarry runs random append chains, releasing some versions before the
// next append, and checks at every version that its preprocessed log and
// components — carried whenever the parent had prepared them — equal the
// ones built from scratch: same rows, digests, order, index lists and
// stats. The parent keeps none once its child took the state over.
func FuzzCarry(f *testing.F) {
	sep := [4]byte{1, 0, 0, 0}
	// The pitfall: u0 alone holds q0 (dropped); the delta gives q0 to u2,
	// which bridges {u0,u1 on q1} and {u2,u3 on q2} although u0 is not in
	// the delta.
	f.Add(rows([4]byte{0, 0, 0, 1}, [4]byte{0, 1, 0, 1}, [4]byte{1, 1, 0, 2}, [4]byte{2, 2, 0, 1}, [4]byte{3, 2, 0, 1},
		sep, [4]byte{2, 0, 0, 1}))
	// New keys sort first and shift every index: user u0 and query q0
	// enter a log over u1..u3 and q1..q3.
	f.Add(rows([4]byte{1, 1, 1, 1}, [4]byte{2, 1, 1, 1}, [4]byte{2, 2, 1, 1}, [4]byte{3, 2, 1, 3}, [4]byte{3, 3, 2, 1}, [4]byte{1, 3, 2, 1},
		sep, [4]byte{0, 0, 0, 1}, [4]byte{1, 0, 0, 1}, [4]byte{0, 1, 1, 2}))
	// A delta that creates a new component: u7 and u8 share a new pair.
	f.Add(rows([4]byte{0, 0, 0, 1}, [4]byte{1, 0, 0, 1}, [4]byte{1, 1, 1, 2}, [4]byte{2, 1, 1, 1},
		sep, [4]byte{7, 5, 2, 1}, [4]byte{8, 5, 2, 3}))
	// The only holder of q4, u4, is absent from the parent's preprocessed
	// log; the delta gives q4 to u5, so u4 enters it.
	f.Add(rows([4]byte{4, 4, 0, 2}, [4]byte{0, 0, 0, 1}, [4]byte{1, 0, 0, 1},
		sep, [4]byte{5, 4, 0, 1}))
	// Every pair stays unique, so both preprocessed logs are empty.
	f.Add(rows([4]byte{0, 0, 0, 1}, sep, [4]byte{0, 0, 0, 2}))
	// A chain of several releases and appends, one append without a
	// release before it.
	f.Add(rows([4]byte{0, 0, 0, 1}, [4]byte{1, 0, 0, 1}, [4]byte{2, 1, 0, 1}, [4]byte{3, 1, 0, 1},
		sep, [4]byte{0, 0, 0, 2}, sep, [4]byte{2, 2, 0, 1}, [4]byte{0, 2, 0, 1},
		[4]byte{0, 0, 0, 0}, [4]byte{4, 3, 0, 1}, [4]byte{5, 3, 0, 1}, sep, [4]byte{4, 1, 0, 1}))
	f.Fuzz(checkCarryChain)
}

// checkCarryChain is FuzzCarry's check of one input.
func checkCarryChain(t *testing.T, data []byte) {
	logs, flags := decodeChain(data)
	release := func(s int) bool { return flags[s]&1 == 1 }
	// The base log is folded onto an empty one, so it keeps a prepared
	// state like every appended version and the first delta can carry.
	l, err := Merge(&Log{}, logs[0])
	if err != nil {
		t.Fatal(err)
	}
	// prepared: l's prepared state has been built.
	prepared := release(0)
	if prepared {
		checkPrepared(t, l)
	}
	for s, delta := range logs[1:] {
		if delta.Size() == 0 {
			continue
		}
		parent := l
		if l, err = Merge(parent, delta); err != nil {
			t.Fatal(err)
		}
		if parent.prep.keep || parent.prep.pre != nil || parent.prep.from != nil || parent.prep.img != nil || parent.prep.imgFrom != nil {
			t.Fatal("the parent kept its prepared state past the append")
		}
		wantCarry := prepared
		prepared = false
		if !release(s + 1) {
			continue
		}
		if carried, _ := checkPrepared(t, l); carried != wantCarry {
			t.Fatalf("append %d: carried %t, want %t", s+1, carried, wantCarry)
		}
		prepared = true
		checkPrepared(t, parent) // from scratch now
	}
}

// TestCarryPitfallDirtiesHolder pins the pitfall seed: the delta's only
// user is u2, yet the parent component of u0 — the sole holder of the
// pair the delta makes shared — is rebuilt, merged with u2's.
func TestCarryPitfallDirtiesHolder(t *testing.T) {
	b := NewBuilder()
	for _, r := range []Record{{"u0", "q0", "l", 1}, {"u0", "q1", "l", 1}, {"u1", "q1", "l", 2}, {"u2", "q2", "l", 1}, {"u3", "q2", "l", 1}, {"u4", "q3", "l", 1}, {"u5", "q3", "l", 1}} {
		b.AddRecord(r)
	}
	v1 := b.Log()
	v2, err := Merge(v1, testDelta(t, "u9\tq9\tl\t1\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkPrepared(t, v2) // v2 prepares from scratch and keeps its state
	v3, err := Merge(v2, testDelta(t, "u2\tq0\tl\t1\n"))
	if err != nil {
		t.Fatal(err)
	}
	carried, comps := checkPrepared(t, v3)
	if !carried || comps != 1 {
		t.Fatalf("carried %t with %d carried components, want true and 1 ({u4,u5})", carried, comps)
	}
	pre, _ := Preprocess(v3)
	subs, _, _ := pre.Components()
	if len(subs) != 2 || subs[0].NumUsers() != 4 {
		t.Fatalf("%d components, first with %d users; want u0..u3 merged into one of 2", len(subs), subs[0].NumUsers())
	}
}

// TestCarryConcurrentFirstUse: eight goroutines preprocess and decompose
// one carried version at once; all get the one state, built once.
func TestCarryConcurrentFirstUse(t *testing.T) {
	v1 := paperLog(t)
	v2, err := Merge(v1, testDelta(t, "carry-a\tcarry q\tl\t1\ncarry-b\tcarry q\tl\t1\n"))
	if err != nil {
		t.Fatal(err)
	}
	pre2, _ := Preprocess(v2)
	pre2.Components()
	v3, err := Merge(v2, testDelta(t, "carry-c\tcarry q\tl\t2\n"))
	if err != nil {
		t.Fatal(err)
	}
	pres := make([]*Log, 8)
	comps := make([][]*Log, 8)
	var wg sync.WaitGroup
	for g := range pres {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pres[g], _ = Preprocess(v3)
			comps[g], _, _ = pres[g].Components()
		}()
	}
	wg.Wait()
	for g := range pres {
		if pres[g] != pres[0] || &comps[g][0] != &comps[0][0] {
			t.Fatalf("goroutine %d got a second state", g)
		}
	}
	if carried, _ := checkPrepared(t, v3); !carried {
		t.Fatal("v3 was not carried from v2")
	}
}
