// Package gen synthesizes AOL-like click-through search logs. The paper's
// corpus is the (retracted, non-redistributable) 2006 AOL release; every
// quantity the sanitization mechanism consumes is a function of the
// query-url(-user) histogram shape, so the substitution preserving that
// shape is what matters (see DESIGN.md §2):
//
//   - Zipf-distributed query popularity → a small head of pairs shared by
//     many users and a huge tail of unique pairs (the preprocessing step
//     removes the tail, exactly as in Table 3 where 163,681 raw pairs shrink
//     to 6,043),
//   - per-query Zipf url choice → clicked urls concentrated on a few
//     results per query,
//   - heavy-tailed user activity → a few prolific users, many light ones.
//
// Three calibrated profiles are provided: Tiny (unit tests), Small (default
// benchmarks) and Paper (Table-3 scale).
package gen

import (
	"fmt"
	"strings"

	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
)

// Profile parameterizes the synthetic corpus.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// Users is the number of user logs ("user-IDs") to generate.
	Users int
	// QueryVocab is the distinct query vocabulary size.
	QueryVocab int
	// URLVocab is the distinct url vocabulary size.
	URLVocab int
	// URLsPerQuery is how many candidate urls each query links to.
	URLsPerQuery int
	// QueryZipf is the Zipf exponent of query popularity (≈1 for web logs).
	QueryZipf float64
	// URLZipf is the Zipf exponent of the per-query url click distribution.
	URLZipf float64
	// MinClicks/MaxClicks bound each user's click volume.
	MinClicks, MaxClicks int
	// ActivityZipf skews users toward the light end (larger = more skew).
	ActivityZipf float64
	// RepeatProb is the probability that a click revisits one of the user's
	// own earlier query-url pairs instead of sampling a fresh one. Real
	// search users re-issue queries heavily; this drives the per-triplet
	// counts c_ijk above 1 and keeps user logs at the AOL-like width of a
	// handful of distinct pairs per user.
	RepeatProb float64
	// Shards models a multi-market corpus: users, queries and urls are
	// namespaced into Shards disjoint markets (per-locale or per-tenant
	// logs), so no query-url pair is ever shared across markets and the
	// user–pair incidence graph decomposes into at least Shards connected
	// components (see internal/partition). 0 or 1 means a single market —
	// whose Zipf head couples almost all users into one giant component.
	// Users and vocabularies are divided evenly across the markets, keeping
	// total scale comparable to the unsharded profile.
	Shards int
}

// Validate checks the profile ranges.
func (p Profile) Validate() error {
	switch {
	case p.Users <= 0:
		return fmt.Errorf("gen: Users must be positive")
	case p.QueryVocab <= 0 || p.URLVocab <= 0 || p.URLsPerQuery <= 0:
		return fmt.Errorf("gen: vocabulary sizes must be positive")
	case p.MinClicks <= 0 || p.MaxClicks < p.MinClicks:
		return fmt.Errorf("gen: need 0 < MinClicks ≤ MaxClicks")
	case p.QueryZipf <= 0 || p.URLZipf <= 0 || p.ActivityZipf <= 0:
		return fmt.Errorf("gen: Zipf exponents must be positive")
	case p.RepeatProb < 0 || p.RepeatProb >= 1:
		return fmt.Errorf("gen: RepeatProb must lie in [0, 1)")
	case p.Shards < 0:
		return fmt.Errorf("gen: Shards must be non-negative")
	case p.Shards > p.Users:
		return fmt.Errorf("gen: Shards (%d) exceeds Users (%d)", p.Shards, p.Users)
	}
	return nil
}

// Tiny is the unit-test profile: a few dozen users, enough shared pairs to
// exercise every code path in milliseconds.
func Tiny() Profile {
	return Profile{
		Name: "tiny", Users: 40, QueryVocab: 150, URLVocab: 120, URLsPerQuery: 3,
		QueryZipf: 1.05, URLZipf: 1.3, MinClicks: 8, MaxClicks: 60, ActivityZipf: 1.1,
		RepeatProb: 0.5,
	}
}

// Small is the default benchmark profile: roughly a quarter of the paper's
// preprocessed scale, so every experiment grid completes in seconds while
// preserving the sparsity regime (most raw pairs unique, a shared core
// surviving preprocessing).
func Small() Profile {
	return Profile{
		Name: "small", Users: 600, QueryVocab: 12000, URLVocab: 9000, URLsPerQuery: 4,
		QueryZipf: 1.02, URLZipf: 1.25, MinClicks: 12, MaxClicks: 250, ActivityZipf: 1.2,
		RepeatProb: 0.55,
	}
}

// Paper approximates the paper's experimental corpus (Table 3: 2,500 user
// logs, ≈163k raw pairs, ≈6k pairs and |D| ≈ 53k after preprocessing).
func Paper() Profile {
	return Profile{
		Name: "paper", Users: 2500, QueryVocab: 70000, URLVocab: 50000, URLsPerQuery: 4,
		QueryZipf: 1.02, URLZipf: 1.25, MinClicks: 15, MaxClicks: 600, ActivityZipf: 1.25,
		RepeatProb: 0.55,
	}
}

// Dense is the ingest-stress profile: a small vocabulary hammered by very
// heavy per-user click volumes, so the raw click stream is enormous
// relative to its aggregated (user, query, url) histogram — one generated
// block is ~3M AOL rows (~180 MB) folding into under ~100k distinct
// triplets. This is the regime the streaming ingest is judged in:
// corpus size is unbounded, resident memory is histogram-bounded.
func Dense() Profile {
	return Profile{
		Name: "dense", Users: 800, QueryVocab: 60, URLVocab: 50, URLsPerQuery: 2,
		QueryZipf: 1.1, URLZipf: 1.3, MinClicks: 3000, MaxClicks: 5000, ActivityZipf: 1.2,
		RepeatProb: 0.7,
	}
}

// TinySharded is Tiny split into 4 markets — the smallest corpus whose
// user–pair graph decomposes into multiple connected components.
func TinySharded() Profile {
	p := Tiny()
	p.Name, p.Shards = "tiny-sharded", 4
	return p
}

// SmallSharded is Small split into 8 markets, the decomposition benchmark
// profile: per-component solves are parallel and each component's LP is an
// order of magnitude smaller than the monolithic one.
func SmallSharded() Profile {
	p := Small()
	p.Name, p.Shards = "small-sharded", 8
	return p
}

// PaperSharded is Paper split into 16 markets — the continual-release
// benchmark profile. Per-component LP cost is superlinear in component
// size, so at this scale re-solving one touched component is dominated by
// the saved solves rather than by the linear decompose+digest overhead;
// this is the regime the ≥5x incremental-append speedup gate runs in.
func PaperSharded() Profile {
	p := Paper()
	p.Name, p.Shards = "paper-sharded", 16
	return p
}

// named lists every named profile in presentation order; Profiles and
// ProfileNames both read it.
var named = []func() Profile{Tiny, Small, Paper, Dense, TinySharded, SmallSharded, PaperSharded}

// ProfileNames lists the named profiles in presentation order.
func ProfileNames() []string {
	names := make([]string, len(named))
	for i, f := range named {
		names[i] = f().Name
	}
	return names
}

// Profiles returns the named profile.
func Profiles(name string) (Profile, error) {
	for _, f := range named {
		if p := f(); p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("gen: unknown profile %q (have %s)", name, strings.Join(ProfileNames(), ", "))
}

// Generate synthesizes a corpus for the profile, deterministically in the
// seed. The returned log is raw (not preprocessed). A sharded profile
// generates each market from its own seed-derived random stream with
// market-prefixed user, query and url namespaces; a single-market profile
// is byte-identical to what this function produced before Shards existed.
func Generate(p Profile, seed uint64) (*searchlog.Log, error) {
	b := searchlog.NewBuilder()
	if err := Stream(p, seed, func(user, query, url string, count int) error {
		b.Add(user, query, url, count)
		return b.Err()
	}); err != nil {
		return nil, err
	}
	return b.BuildLog()
}

// Stream synthesizes the corpus click by click, calling emit for every raw
// (user, query, url, count) event in generation order, without holding the
// accumulated log in memory — the generator's working set is one user's
// click history. Generate is Stream plus a Builder, so the two are
// click-for-click identical; Stream exists for the bulk-load path
// (cmd/slingest) where a multi-hundred-MB corpus is written or uploaded
// while it is being generated. An emit error aborts the stream and is
// returned as-is.
func Stream(p Profile, seed uint64, emit func(user, query, url string, count int) error) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Shards <= 1 {
		return generateMarket(emit, p, rng.New(seed), p.QueryVocab, p.URLVocab, 0, p.Users, "")
	}
	queryVocab := max(p.QueryVocab/p.Shards, 1)
	urlVocab := max(p.URLVocab/p.Shards, 1)
	for s := 0; s < p.Shards; s++ {
		lo := p.Users * s / p.Shards
		hi := p.Users * (s + 1) / p.Shards
		// Independent per-market stream: markets are insensitive to each
		// other's sizes, and the golden-ratio step decorrelates the seeds.
		g := rng.New(seed ^ (uint64(s+1) * 0x9e3779b97f4a7c15))
		if err := generateMarket(emit, p, g, queryVocab, urlVocab, lo, hi, fmt.Sprintf("m%02d-", s)); err != nil {
			return err
		}
	}
	return nil
}

// generateMarket emits users [userLo, userHi) of one market. prefix
// namespaces the market's user-IDs, queries and urls (empty for a
// single-market corpus, preserving the historical naming).
func generateMarket(emit func(user, query, url string, count int) error, p Profile, g *rng.RNG, queryVocab, urlVocab, userLo, userHi int, prefix string) error {
	queryDist := rng.NewZipf(g, p.QueryZipf, queryVocab)
	urlDist := rng.NewZipf(g, p.URLZipf, p.URLsPerQuery)
	activity := rng.NewZipf(g, p.ActivityZipf, p.MaxClicks-p.MinClicks+1)

	type pair struct{ q, u int }
	for k := userLo; k < userHi; k++ {
		user := prefix + fmt.Sprintf("%06d", k)
		clicks := p.MinClicks + activity.Sample()
		var history []pair
		for c := 0; c < clicks; c++ {
			var pr pair
			if len(history) > 0 && g.Float64() < p.RepeatProb {
				// Revisit one of the user's own earlier clicks, proportional
				// to how often the pair was already clicked (Pólya-urn
				// rich-get-richer): navigational queries accumulate heavy
				// per-user counts, exactly like real search histories.
				pr = history[g.IntN(len(history))]
			} else {
				q := queryDist.Sample()
				r := urlDist.Sample()
				// Per-query url candidates map into the market's url
				// vocabulary via a fixed mixing hash so that popular urls
				// are shared across queries, like real search results.
				u := int((uint64(q)*2654435761 + uint64(r)*40503) % uint64(urlVocab))
				pr = pair{q: q, u: u}
			}
			// Every click (fresh or repeat) feeds the urn.
			history = append(history, pr)
			if err := emit(user, prefix+fmt.Sprintf("q%05d", pr.q), prefix+fmt.Sprintf("url%05d.example.com", pr.u), 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// GeneratePreprocessed generates a corpus and applies the unique-pair
// preprocessing in one step, returning both logs and the removal stats.
func GeneratePreprocessed(p Profile, seed uint64) (raw, pre *searchlog.Log, st searchlog.PreprocessStats, err error) {
	raw, err = Generate(p, seed)
	if err != nil {
		return nil, nil, searchlog.PreprocessStats{}, err
	}
	pre, st = searchlog.Preprocess(raw)
	return raw, pre, st, nil
}
