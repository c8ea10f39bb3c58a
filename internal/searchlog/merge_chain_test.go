package searchlog_test

import (
	"fmt"
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
)

// TestMergeChainMatchesRebuild appends 24 deltas of about 1% of the rows
// to the paper-sharded corpus and checks every version's digest against
// the fold Merge replaced: BuildFromUserCounts over the running histogram.
// Every third delta also adds new users and new pairs, so the chain covers
// both the sharing path and the index shifts.
func TestMergeChainMatchesRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-sharded chain in -short mode")
	}
	l, err := gen.Generate(gen.PaperSharded(), 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := l.UserCounts()
	g := rng.New(3)
	rows := l.NumTriplets() / 100
	for step := range 24 {
		b := searchlog.NewBuilder()
		for range rows {
			p := l.Pair(g.IntN(l.NumPairs()))
			e := p.Entries[g.IntN(len(p.Entries))]
			b.Add(l.User(e.User).ID, p.Query, p.URL, 1+g.IntN(3))
		}
		if step%3 == 2 {
			old := l.Pair(g.IntN(l.NumPairs()))
			b.Add(fmt.Sprintf("new-user-%d", step), old.Query, old.URL, 2)
			b.Add(l.User(g.IntN(l.NumUsers())).ID, fmt.Sprintf("new query %d", step), "http://new", 1)
			b.Add(fmt.Sprintf("%d-first-user", step), fmt.Sprintf("%d first query", step), "http://a", 1)
		}
		delta, err := b.BuildLog()
		if err != nil {
			t.Fatal(err)
		}
		for id, m := range delta.UserCounts() {
			if counts[id] == nil {
				counts[id] = map[searchlog.PairKey]int{}
			}
			for key, c := range m {
				counts[id][key] += c
			}
		}
		want, err := searchlog.BuildFromUserCounts(counts)
		if err != nil {
			t.Fatal(err)
		}
		if l, err = searchlog.Merge(l, delta); err != nil {
			t.Fatal(err)
		}
		if l.Digest() != want.Digest() {
			t.Fatalf("append %d: merged digest %s, rebuild %s", step+1, l.Digest(), want.Digest())
		}
	}
}
