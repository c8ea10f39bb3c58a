package replay

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"time"

	"dpslog"
	"dpslog/internal/rng"
)

// SynthConfig parameterizes the -record trace synthesizer. The output is
// deterministic in (Profile, GenSeed, Seed, RPS, Duration, mix knobs) —
// two machines given the same config synthesize byte-identical traces,
// which is what lets CI gate a replayed run against a committed per-class
// count baseline.
type SynthConfig struct {
	// Profile and GenSeed name the synthetic corpus every payload-bearing
	// request carries (or references once uploaded).
	Profile string
	GenSeed uint64
	// RPS and Duration shape the Poisson arrival process of the mixed
	// section; Seed drives it and the class mix.
	RPS      float64
	Duration time.Duration
	Seed     uint64
	// EExp and Delta are the privacy parameters of sanitize requests.
	// Corpus-referencing releases spend (ln EExp, Delta) of the server's
	// per-lineage budget per distinct seed, and the mech_sanitize class adds
	// two more distinct releases — one zealous at (ln EExp, Delta), one
	// laplace at (ln EExp, 10⁻³) — so the main corpus spends
	// (CorpusDistinct+2)·ln EExp and (CorpusDistinct+1)·Delta + 10⁻³;
	// repeats of a (mechanism, seed) pair are idempotent releases and
	// charge nothing. At the defaults (EExp 2, Delta 0.25, CorpusDistinct 2)
	// that is (4·ln 2, 0.751), exactly the server's default ε = ln 16. The
	// append_sanitize class adds to it: its sanitize pins seed 1, so at most
	// one (ln EExp, Delta) release is charged per version of the append
	// corpus, and every version draws on that corpus's one lineage budget.
	// Both corpora upload the same payload, so a sanitize that races its
	// append and lands on the append corpus's base releases the main
	// corpus's digest and joins the two lineages. A replaying server's
	// budget must cover the sum of both corpora's spend.
	EExp, Delta float64
	Objective   string
	// Distinct rotates stateless sanitize seeds (how often a release
	// repeats);
	// CorpusDistinct bounds the distinct corpus-release seeds (budget
	// spend). Defaults 4 and 2.
	Distinct, CorpusDistinct int
	// Storm429 appends a deliberate over-budget burst: requests whose ε
	// alone exceeds any sane corpus budget, each expecting a 429. Fired
	// at 2ms spacing right after the mixed section.
	Storm429 int
	// CorpusName is the stored corpus the referencing classes use
	// (default "replay").
	CorpusName string
	// CreatedBy labels the header.
	CreatedBy string
}

// The mixed-traffic classes and their weights: mostly solves (stateless
// and corpus-referencing, sync and async), a slice of non-UMP mechanism
// releases, a steady trickle of corpus re-uploads and continual-release
// append+sanitize pairs, and cheap budget/stats probes.
var synthMix = []struct {
	class  string
	weight float64
}{
	{"sanitize", 0.27},
	{"corpus_sanitize", 0.15},
	{"mech_sanitize", 0.10},
	{"sanitize_async", 0.10},
	{"ingest_put", 0.05},
	{"append_sanitize", 0.05},
	{"budget", 0.14},
	{"stats", 0.14},
}

// Synthesize derives a mixed-scenario trace from a gen profile: one
// setup upload of the corpus, a Poisson-paced mixed section, and an
// optional deliberate 429 storm.
func Synthesize(cfg SynthConfig) (*Trace, error) {
	if cfg.Profile == "" {
		cfg.Profile = "tiny"
	}
	if cfg.GenSeed == 0 {
		cfg.GenSeed = 1
	}
	if cfg.RPS <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("replay: synthesize needs RPS > 0 and Duration > 0")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.EExp == 0 {
		cfg.EExp = 2
	}
	if cfg.Delta == 0 {
		cfg.Delta = 0.25
	}
	if cfg.Objective == "" {
		cfg.Objective = "output-size"
	}
	if cfg.Distinct <= 0 {
		cfg.Distinct = 4
	}
	if cfg.CorpusDistinct <= 0 {
		cfg.CorpusDistinct = 2
	}
	if cfg.CorpusName == "" {
		cfg.CorpusName = "replay"
	}
	if _, err := dpslog.Generate(cfg.Profile, cfg.GenSeed); err != nil {
		return nil, err
	}
	obj, err := dpslog.ParseObjective(cfg.Objective)
	if err != nil {
		return nil, err
	}

	tr := &Trace{Header: Header{
		V:         Version,
		Kind:      "header",
		CreatedBy: cfg.CreatedBy,
		Payloads:  map[string]Payload{"corpus": {Profile: cfg.Profile, Seed: cfg.GenSeed}},
	}}

	// Setup: the corpora the referencing classes depend on must exist
	// before the open-loop section starts — a timed upload could lose the
	// race against the first corpus_sanitize at high speedup. The append
	// class gets its own corpus so its version chain grows undisturbed by
	// the ingest_put re-uploads of the main one.
	for _, name := range []string{cfg.CorpusName, cfg.CorpusName + "-app"} {
		tr.Records = append(tr.Records, Record{
			Class:       "setup",
			Setup:       true,
			Method:      "PUT",
			Path:        "/v1/corpora/" + name,
			ContentType: "text/tab-separated-values",
			BodyRef:     "corpus",
		})
	}

	corpusBody := func(seed uint64, epsilon, delta float64) string {
		return ReleaseBody(dpslog.Options{Epsilon: epsilon, Delta: delta, Objective: obj, Seed: seed})
	}
	// Non-UMP mechanism releases pin seed 1: the class exercises the
	// dispatch and per-mechanism charging paths, and a single (mechanism,
	// seed) identity per mechanism keeps its budget spend flat however many
	// requests the mix deals it.
	mechBody := func(mech string, delta float64, d int) string {
		return ReleaseBody(dpslog.Options{Mechanism: mech, Epsilon: math.Log(cfg.EExp), Delta: delta, D: d, Seed: 1})
	}

	g := rng.New(cfg.Seed)
	var t time.Duration
	for i := 0; ; i++ {
		t += time.Duration(-math.Log(1-g.Float64()) / cfg.RPS * float64(time.Second))
		if t > cfg.Duration {
			break
		}
		rec := Record{TMS: float64(t) / float64(time.Millisecond)}
		x := g.Float64()
		var class string
		for _, m := range synthMix {
			if x < m.weight {
				class = m.class
				break
			}
			x -= m.weight
		}
		if class == "" {
			class = synthMix[len(synthMix)-1].class
		}
		rec.Class = class
		switch class {
		case "sanitize":
			rec.Method = "POST"
			rec.Path = "/v1/sanitize?" + SanitizeQuery(cfg.EExp, cfg.Delta, cfg.Objective, i%cfg.Distinct+1).Encode()
			rec.ContentType = "text/tab-separated-values"
			rec.BodyRef = "corpus"
		case "sanitize_async":
			rec.Method = "POST"
			rec.Path = "/v1/jobs?" + SanitizeQuery(cfg.EExp, cfg.Delta, cfg.Objective, i%cfg.Distinct+1).Encode()
			rec.ContentType = "text/tab-separated-values"
			rec.BodyRef = "corpus"
		case "corpus_sanitize":
			rec.Method = "POST"
			rec.Path = "/v1/corpora/" + cfg.CorpusName + "/sanitize"
			rec.ContentType = "application/json"
			rec.Body = corpusBody(uint64(i%cfg.CorpusDistinct+1), math.Log(cfg.EExp), cfg.Delta)
		case "mech_sanitize":
			rec.Method = "POST"
			rec.Path = "/v1/corpora/" + cfg.CorpusName + "/sanitize"
			rec.ContentType = "application/json"
			if i%2 == 0 {
				rec.Body = mechBody("zealous", cfg.Delta, 0)
			} else {
				rec.Body = mechBody("laplace", 1e-3, 5)
			}
		case "ingest_put":
			rec.Method = "PUT"
			rec.Path = "/v1/corpora/" + cfg.CorpusName
			rec.ContentType = "text/tab-separated-values"
			rec.BodyRef = "corpus"
		case "append_sanitize":
			// Continual release: fold a small delta into the append corpus —
			// two fresh users sharing one fresh pair, so the rows survive
			// preprocessing as a new connected component — then sanitize the
			// latest version. The sanitize is appended as a sibling record
			// 1 ms later under the same class; with open-loop arrivals it may
			// race the append and land on the prior version, which is equally
			// valid traffic (seed 1 keeps any repeat idempotent).
			rec.Method = "POST"
			rec.Path = "/v1/corpora/" + cfg.CorpusName + "-app/append"
			rec.ContentType = "text/tab-separated-values"
			rec.Body = fmt.Sprintf("appA%d\tappq%d\thttp://app.example/%d\t2\nappB%d\tappq%d\thttp://app.example/%d\t1\n",
				i, i, i, i, i, i)
			tr.Records = append(tr.Records, rec)
			rec = Record{
				TMS:         rec.TMS + 1,
				Class:       class,
				Method:      "POST",
				Path:        "/v1/corpora/" + cfg.CorpusName + "-app/sanitize",
				ContentType: "application/json",
				Body:        corpusBody(1, math.Log(cfg.EExp), cfg.Delta),
			}
		case "budget":
			rec.Method = "GET"
			rec.Path = "/v1/corpora/" + cfg.CorpusName + "/budget"
		case "stats":
			rec.Method = "POST"
			rec.Path = "/v1/stats"
			rec.ContentType = "text/tab-separated-values"
			rec.BodyRef = "corpus"
		}
		tr.Records = append(tr.Records, rec)
	}

	// The deliberate 429 storm: ε = 1000 nats exceeds any plausible
	// per-lineage budget on its own, so the server's pre-solve budget check
	// refuses every one with a structured 429 — deterministically,
	// whatever the prior spend.
	for i := 0; i < cfg.Storm429; i++ {
		tr.Records = append(tr.Records, Record{
			TMS:         float64(cfg.Duration)/float64(time.Millisecond) + float64(i)*2,
			Class:       "storm_429",
			Method:      "POST",
			Path:        "/v1/corpora/" + cfg.CorpusName + "/sanitize",
			ContentType: "application/json",
			Body:        corpusBody(uint64(1000+i), 1000, cfg.Delta),
			Expect:      "429",
		})
	}
	return tr, nil
}

// SanitizeQuery is the query of a stateless sanitize request (POST
// /v1/sanitize or /v1/jobs with a TSV body); callers may add parameters
// before encoding it.
func SanitizeQuery(eexp, delta float64, objective string, seed int) url.Values {
	return url.Values{
		"eexp":      {fmt.Sprint(eexp)},
		"delta":     {fmt.Sprint(delta)},
		"objective": {objective},
		"seed":      {fmt.Sprint(seed)},
	}
}

// ReleaseBody is the options-only JSON body of a corpus-referencing
// release, POST /v1/corpora/{name}/sanitize.
func ReleaseBody(opts dpslog.Options) string {
	// Marshal fails only on a NaN or infinite float; the empty body then
	// draws the server's 400.
	env, _ := json.Marshal(struct {
		Options dpslog.Options `json:"options"`
	}{opts})
	return string(env)
}
