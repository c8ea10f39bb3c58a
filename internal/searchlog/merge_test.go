package searchlog

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// mergeReference is the fold Merge replaced: the summed UserCounts of
// parent and delta, frozen by BuildFromUserCounts. A cell sum that
// overflows wraps negative there, which BuildFromUserCounts rejects.
func mergeReference(parent, delta *Log) (*Log, error) {
	counts := parent.UserCounts()
	for id, m := range delta.UserCounts() {
		dst := counts[id]
		if dst == nil {
			counts[id] = m
			continue
		}
		for key, c := range m {
			dst[key] += c
		}
	}
	return BuildFromUserCounts(counts)
}

// decodeRows turns fuzz bytes into a log over a small key space, so parent
// and delta overlap often: every 4 bytes are one row (user, query, url,
// count), and a count byte of 255 stands for a count near MaxInt, so sums
// can overflow. Rows that already overflow within one log fail to build.
func decodeRows(data []byte) (*Log, error) {
	b := NewBuilder()
	for ; len(data) >= 4; data = data[4:] {
		count := int(data[3])
		if count == 255 {
			count = math.MaxInt - 1
		}
		b.Add(fmt.Sprintf("u%d", data[0]%7), fmt.Sprintf("q%d", data[1]%5), fmt.Sprintf("l%d", data[2]%3), count)
	}
	return b.BuildLog()
}

// snapshot deep-copies a log's rows so a later comparison can prove they
// were not written through a shared slice.
func snapshot(l *Log) (pairs []Pair, users []User, tsv []byte) {
	for _, p := range l.pairs {
		p.Entries = slices.Clone(p.Entries)
		pairs = append(pairs, p)
	}
	for _, u := range l.users {
		u.Pairs = slices.Clone(u.Pairs)
		users = append(users, u)
	}
	var buf bytes.Buffer
	if _, err := WriteTSV(&buf, l); err != nil {
		panic(err)
	}
	return pairs, users, buf.Bytes()
}

// checkMerge compares Merge(parent, delta) with the reference fold on the
// digest, every Pair and User field, every key lookup and the size, and
// checks that neither input changed.
func checkMerge(t *testing.T, parent, delta *Log) *Log {
	t.Helper()
	pPairs, pUsers, pTSV := snapshot(parent)
	dPairs, dUsers, dTSV := snapshot(delta)
	want, wantErr := mergeReference(parent, delta)
	got, err := Merge(parent, delta)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("Merge error %v, reference error %v", err, wantErr)
	}
	if err == nil {
		if got.Digest() != want.Digest() {
			t.Fatalf("digest %s, reference %s", got.Digest(), want.Digest())
		}
		if !reflect.DeepEqual(got.pairs, want.pairs) || !reflect.DeepEqual(got.users, want.users) {
			t.Fatalf("rows differ from reference:\npairs %+v\nwant  %+v\nusers %+v\nwant  %+v", got.pairs, want.pairs, got.users, want.users)
		}
		for i := range want.pairs {
			if k := want.pairs[i].Key(); got.PairIndex(k) != i {
				t.Fatalf("PairIndex(%v) = %d, reference %d", k, got.PairIndex(k), i)
			}
		}
		for k := range want.users {
			if id := want.users[k].ID; got.UserIndex(id) != k {
				t.Fatalf("UserIndex(%q) = %d, reference %d", id, got.UserIndex(id), k)
			}
		}
		if got.Size() != want.Size() {
			t.Fatalf("size %d, reference %d", got.Size(), want.Size())
		}
	}
	for _, in := range []struct {
		name         string
		l            *Log
		pairs, users any
		tsv          []byte
	}{{"parent", parent, pPairs, pUsers, pTSV}, {"delta", delta, dPairs, dUsers, dTSV}} {
		pairs, users, tsv := snapshot(in.l)
		if !reflect.DeepEqual(pairs, in.pairs) || !reflect.DeepEqual(users, in.users) || !bytes.Equal(tsv, in.tsv) {
			t.Fatalf("Merge modified its %s", in.name)
		}
	}
	return got
}

// FuzzMerge: for any two logs, Merge must equal the reference fold and
// leave both inputs untouched.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 0, 0, 1}, []byte{1, 0, 0, 5, 6, 4, 2, 1})
	f.Add([]byte{}, []byte{3, 3, 3, 3})
	f.Add([]byte{3, 3, 3, 3}, []byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 1, 2, 3, 6, 4, 0, 9}, []byte{5, 0, 0, 1, 2, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 255}, []byte{0, 0, 0, 255})
	f.Fuzz(func(t *testing.T, parent, delta []byte) {
		p, perr := decodeRows(parent)
		d, derr := decodeRows(delta)
		if perr != nil || derr != nil {
			return // not a log: no merge to check
		}
		checkMerge(t, p, d)
	})
}

// shareLog builds a log of n users over n/2 pairs: user k holds pairs
// k/2 and (k/2+1) mod n/2, so every pair has entries from several users.
func shareLog(t *testing.T, n int) *Log {
	t.Helper()
	b := NewBuilder()
	for k := range n {
		b.Add(fmt.Sprintf("u%06d", k), fmt.Sprintf("q%06d", k/2), "l", 1+k%3)
		b.Add(fmt.Sprintf("u%06d", k), fmt.Sprintf("q%06d", (k/2+1)%(n/2)), "l", 1)
	}
	l, err := b.BuildLog()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestMergeSharesUnchangedSlices: a delta that adds no user and no pair
// costs allocations in proportion to the cells it touches, not to the
// corpus, because untouched rows are shared and no index map is built.
func TestMergeSharesUnchangedSlices(t *testing.T) {
	// Three existing cells, on distinct users and distinct pairs.
	delta := testDelta(t, "u000002\tq000001\tl\t4\nu000010\tq000005\tl\t1\nu000020\tq000010\tl\t7\n")
	allocs := map[int]float64{}
	for _, n := range []int{40, 4000} {
		parent := shareLog(t, n)
		parent.PairIndex(PairKey{}) // the parent's maps exist; Merge must not copy them
		var m *Log
		allocs[n] = testing.AllocsPerRun(20, func() {
			var err error
			if m, err = Merge(parent, delta); err != nil {
				t.Fatal(err)
			}
		})
		if m.pairIndex != nil || m.userIndex != nil {
			t.Errorf("n=%d: Merge built or shared index maps, want them left to the first lookup", n)
		}
		checkMerge(t, parent, delta)
		untouchedPair, untouchedUser := parent.PairIndex(PairKey{"q000003", "l"}), parent.UserIndex("u000003")
		if &m.Pair(untouchedPair).Entries[0] != &parent.Pair(untouchedPair).Entries[0] ||
			&m.User(untouchedUser).Pairs[0] != &parent.User(untouchedUser).Pairs[0] {
			t.Errorf("n=%d: untouched rows copied, want shared", n)
		}
	}
	if allocs[40] != allocs[4000] {
		t.Errorf("allocations grow with the corpus: %v at 40 users, %v at 4000", allocs[40], allocs[4000])
	}
	// Four index arrays, the Log and its two row arrays, then one fresh slice
	// per touched pair and per touched user.
	if want := float64(7 + 2*delta.NumTriplets()); allocs[4000] > want {
		t.Errorf("%v allocations, want ≤ %v", allocs[4000], want)
	}
}

// TestMergeInsertsKeys covers deltas whose new keys shift indices at the
// front, the middle and the end of both orientations.
func TestMergeInsertsKeys(t *testing.T) {
	parent := shareLog(t, 40)
	for _, rows := range []string{
		"a\tq000001\tl\t1\n", // new first user, existing pair
		"u000005\ta\tl\t2\n", // existing user, new first pair
		"u000010x\tq000010x\tl\t3\nu000011\tq000005\tl\t1\n", // new middle user and pair
		"z\tz\tz\t1\nu000039\tq000000\tl\t2\n",               // new last user and pair
	} {
		checkMerge(t, parent, testDelta(t, rows))
	}
}

func testDelta(t *testing.T, rows string) *Log {
	t.Helper()
	l, err := ReadTSV(bytes.NewReader([]byte(rows)))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestWriteTSVDigestSeedsMemo: serializing a log through WriteTSVDigest
// yields its file and its memoized identity in one pass.
func TestWriteTSVDigestSeedsMemo(t *testing.T) {
	l := paperLog(t)
	var buf bytes.Buffer
	d, err := WriteTSVDigest(&buf, l)
	if err != nil {
		t.Fatal(err)
	}
	if l.digest != d {
		t.Fatalf("memo %q after WriteTSVDigest, want %q", l.digest, d)
	}
	var plain bytes.Buffer
	if _, err := WriteTSV(&plain, l); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), plain.Bytes()) || d != paperLog(t).Digest() {
		t.Fatal("WriteTSVDigest diverged from WriteTSV or Digest")
	}
}
