package partition

import (
	"testing"

	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
)

// buildLog assembles a log from (user, query, url, count) tuples.
func buildLog(t *testing.T, recs [][4]string, counts []int) *searchlog.Log {
	t.Helper()
	b := searchlog.NewBuilder()
	for i, r := range recs {
		b.Add(r[0], r[1], r[2], counts[i])
	}
	l, err := b.BuildLog()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestDecomposeHandBuilt checks the decomposition of a log with two obvious
// islands: users a,b share pair (q1,u1); users c,d share (q2,u2) and (q3,u3).
func TestDecomposeHandBuilt(t *testing.T) {
	l := buildLog(t, [][4]string{
		{"a", "q1", "u1", ""}, {"b", "q1", "u1", ""},
		{"c", "q2", "u2", ""}, {"d", "q2", "u2", ""},
		{"c", "q3", "u3", ""}, {"d", "q3", "u3", ""},
	}, []int{2, 3, 1, 1, 2, 5})
	comps := Decompose(l)
	if len(comps) != 2 {
		t.Fatalf("want 2 components, got %d", len(comps))
	}
	// Pairs are sorted by (query, url): q1/u1=0, q2/u2=1, q3/u3=2. Users by
	// ID: a=0, b=1, c=2, d=3. Component order: by smallest pair index.
	if got := comps[0].Pairs; len(got) != 1 || got[0] != 0 {
		t.Errorf("component 0 pairs = %v, want [0]", got)
	}
	if got := comps[1].Pairs; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("component 1 pairs = %v, want [1 2]", got)
	}
	if got := comps[0].Users; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("component 0 users = %v, want [0 1]", got)
	}
	if got := comps[1].Users; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("component 1 users = %v, want [2 3]", got)
	}
	// Sub-log pair totals must equal the parent's: every user holding a
	// pair lives in the pair's component.
	for ci, c := range comps {
		for j, pi := range c.Pairs {
			if c.Log.PairCount(j) != l.PairCount(pi) {
				t.Errorf("component %d pair %d count %d != parent %d", ci, j, c.Log.PairCount(j), l.PairCount(pi))
			}
		}
	}
	if comps[1].Log.Size() != 9 {
		t.Errorf("component 1 size = %d, want 9", comps[1].Log.Size())
	}
}

// TestDecomposeConnectedSharesLog asserts the single-component fast path
// returns the parent log itself with identity maps, not a copy.
func TestDecomposeConnectedSharesLog(t *testing.T) {
	l := buildLog(t, [][4]string{
		{"a", "q1", "u1", ""}, {"b", "q1", "u1", ""}, {"b", "q2", "u2", ""}, {"c", "q2", "u2", ""},
	}, []int{1, 1, 1, 1})
	comps := Decompose(l)
	if len(comps) != 1 {
		t.Fatalf("want 1 component, got %d", len(comps))
	}
	if comps[0].Log != l {
		t.Error("single component should share the parent *Log")
	}
	for j, pi := range comps[0].Pairs {
		if j != pi {
			t.Fatalf("identity pair map broken at %d -> %d", j, pi)
		}
	}
	for k, pk := range comps[0].Users {
		if k != pk {
			t.Fatalf("identity user map broken at %d -> %d", k, pk)
		}
	}
}

func TestDecomposeEmpty(t *testing.T) {
	l := buildLog(t, nil, nil)
	if comps := Decompose(l); comps != nil {
		t.Fatalf("empty log should decompose to nil, got %d components", len(comps))
	}
}

// TestDecomposeSharded checks the generated multi-market corpora: exactly
// one component per market, disjoint pair covers, preserved counts and
// per-component digest stability under restriction.
func TestDecomposeSharded(t *testing.T) {
	p, err := gen.Profiles("tiny-sharded")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		raw, err := gen.Generate(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		pre, _ := searchlog.Preprocess(raw)
		comps := Decompose(pre)
		if len(comps) != p.Shards {
			t.Fatalf("seed %d: %d components, want %d (markets never share pairs)", seed, len(comps), p.Shards)
		}
		seenPair := make([]bool, pre.NumPairs())
		seenUser := make([]bool, pre.NumUsers())
		for ci, c := range comps {
			if c.Log.NumPairs() != len(c.Pairs) || c.Log.NumUsers() != len(c.Users) {
				t.Fatalf("seed %d comp %d: log shape %dx%d != maps %dx%d",
					seed, ci, c.Log.NumPairs(), c.Log.NumUsers(), len(c.Pairs), len(c.Users))
			}
			for j, pi := range c.Pairs {
				if seenPair[pi] {
					t.Fatalf("seed %d: pair %d in two components", seed, pi)
				}
				seenPair[pi] = true
				pp, cp := pre.Pair(pi), c.Log.Pair(j)
				if pp.Query != cp.Query || pp.URL != cp.URL || pp.Total != cp.Total || len(pp.Entries) != len(cp.Entries) {
					t.Fatalf("seed %d: pair %d mismatch under restriction", seed, pi)
				}
				for e := range pp.Entries {
					if pp.Entries[e].Count != cp.Entries[e].Count ||
						c.Users[cp.Entries[e].User] != pp.Entries[e].User {
						t.Fatalf("seed %d: pair %d entry %d remap broken", seed, pi, e)
					}
				}
			}
			for _, pk := range c.Users {
				if seenUser[pk] {
					t.Fatalf("seed %d: user %d in two components", seed, pk)
				}
				seenUser[pk] = true
			}
		}
		for i, ok := range seenPair {
			if !ok {
				t.Fatalf("seed %d: pair %d missing from all components", seed, i)
			}
		}
		for k, ok := range seenUser {
			if !ok {
				t.Fatalf("seed %d: user %d missing from all components", seed, k)
			}
		}
	}
}

// TestScatter checks the stitch helper fills disjoint parent slots.
func TestScatter(t *testing.T) {
	l := buildLog(t, [][4]string{
		{"a", "q1", "u1", ""}, {"b", "q1", "u1", ""},
		{"c", "q2", "u2", ""}, {"d", "q2", "u2", ""},
	}, []int{1, 2, 3, 4})
	comps := Decompose(l)
	if len(comps) != 2 {
		t.Fatalf("want 2 components, got %d", len(comps))
	}
	dst := make([]int, l.NumPairs())
	comps[0].Scatter([]int{7}, dst)
	comps[1].Scatter([]int{9}, dst)
	if dst[0] != 7 || dst[1] != 9 {
		t.Fatalf("scatter produced %v, want [7 9]", dst)
	}
}

// TestPreprocessAndDecomposeAllocs: the release path's two sub-log
// constructions allocate per component, not per pair or user. On
// small-sharded (thousands of pairs) a per-row allocation anywhere in
// Preprocess or Decompose blows both bounds.
func TestPreprocessAndDecomposeAllocs(t *testing.T) {
	p, err := gen.Profiles("small-sharded")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := gen.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	pre, st := searchlog.Preprocess(raw)
	if st.RemovedPairs == 0 {
		t.Fatal("small-sharded lost no pair to preprocessing; the Preprocess bound would measure nothing")
	}
	comps := len(Decompose(pre))
	if comps != p.Shards {
		t.Fatalf("%d components, want %d", comps, p.Shards)
	}
	// Three index arrays and the one-selection split: its table, result
	// slice, and the sub-log with its two row arrays and two cell slabs.
	if got := testing.AllocsPerRun(5, func() { searchlog.Preprocess(raw) }); got > 12 {
		t.Errorf("Preprocess: %v allocations, want ≤ 12 (%d pairs, %d users)", got, raw.NumPairs(), raw.NumUsers())
	}
	// Union-find, the component lists and the split: a constant part plus
	// a Log, two row arrays and two cell slabs per component.
	if got, want := testing.AllocsPerRun(5, func() { Decompose(pre) }), float64(24+6*comps); got > want {
		t.Errorf("Decompose: %v allocations over %d components, want ≤ %v (%d pairs, %d users)",
			got, comps, want, pre.NumPairs(), pre.NumUsers())
	}
}
