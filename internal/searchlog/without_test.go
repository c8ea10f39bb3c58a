package searchlog_test

import (
	"reflect"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
)

// withoutUserReference is the rebuild WithoutUser replaced: every row of
// every other user through a Builder.
func withoutUserReference(l *searchlog.Log, k int) *searchlog.Log {
	b := searchlog.NewBuilder()
	for j := 0; j < l.NumUsers(); j++ {
		if j == k {
			continue
		}
		u := l.User(j)
		for _, up := range u.Pairs {
			p := l.Pair(up.Pair)
			b.Add(u.ID, p.Query, p.URL, up.Count)
		}
	}
	return b.Log()
}

// TestWithoutUserMatchesBuilder: the one-pass WithoutUser equals the
// Builder rebuild field for field and digest for digest, for every user of
// tiny and 50 seeded users of small, and leaves its input unchanged.
func TestWithoutUserMatchesBuilder(t *testing.T) {
	for _, tc := range []struct {
		profile string
		users   int // 0: every user
	}{{"tiny", 0}, {"small", 50}} {
		p, err := gen.Profiles(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		l, err := gen.Generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		digest := l.Digest()
		users := make([]int, 0, l.NumUsers())
		if tc.users == 0 {
			for k := range l.NumUsers() {
				users = append(users, k)
			}
		} else {
			g := rng.New(7)
			for range tc.users {
				users = append(users, g.IntN(l.NumUsers()))
			}
		}
		for _, k := range users {
			got, want := l.WithoutUser(k), withoutUserReference(l, k)
			if got.NumPairs() != want.NumPairs() || got.NumUsers() != want.NumUsers() || got.Size() != want.Size() {
				t.Fatalf("%s user %d: shape %d pairs, %d users, size %d; want %d, %d, %d", tc.profile, k,
					got.NumPairs(), got.NumUsers(), got.Size(), want.NumPairs(), want.NumUsers(), want.Size())
			}
			for i := range want.NumPairs() {
				if !reflect.DeepEqual(*got.Pair(i), *want.Pair(i)) {
					t.Fatalf("%s user %d: pair %d is %+v, want %+v", tc.profile, k, i, *got.Pair(i), *want.Pair(i))
				}
			}
			for j := range want.NumUsers() {
				if !reflect.DeepEqual(*got.User(j), *want.User(j)) {
					t.Fatalf("%s user %d: user %d is %+v, want %+v", tc.profile, k, j, *got.User(j), *want.User(j))
				}
			}
			if got.Digest() != want.Digest() {
				t.Fatalf("%s user %d: digest %s, want %s", tc.profile, k, got.Digest(), want.Digest())
			}
		}
		if fresh, _ := gen.Generate(p, 1); fresh.Digest() != digest || !reflect.DeepEqual(fresh.Records(), l.Records()) {
			t.Fatalf("%s: WithoutUser modified its input", tc.profile)
		}
	}
}
