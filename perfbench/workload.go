package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"dpslog/internal/gen"
	"dpslog/internal/ledger"
	"dpslog/internal/mechanism"
	"dpslog/internal/partition"
	"dpslog/internal/replay"
	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
)

// The privacy parameters of every release the workloads request: e^ε = 2,
// δ = 0.25, the replay synthesizer's defaults.
const (
	releaseEExp  = 2.0
	releaseDelta = 0.25
)

// Workload sizes.
const (
	// minOps is the fewest operations a closed loop completes, whatever
	// --seconds says, so that a p90 has at least ten samples beyond it.
	minOps = 100
	// lpOpsPerSecond sizes release-lp: it uploads lpOpsPerSecond × --seconds
	// distinct corpora (at least minOps) and releases every one of them, a
	// cold solve of 100–190 ms each on a 2-vCPU host. A fixed amount of
	// work rather than a time cut keeps the server's peak RSS, which grows
	// with every corpus released, independent of how fast the host runs.
	lpOpsPerSecond = 5
	// chainDeltas is the length of append-chain's prepared delta list, more
	// than a 35-second run gets through (about 330 at 100–130 ms each).
	chainDeltas = 600
	// mixedRPS is mixed-replay's arrival rate (requests per second).
	mixedRPS = 40
	// stormSize is the number of ε = 1000 requests closing mixed-replay.
	stormSize = 25
	// warmupSeed is the sampling seed of mixed-replay's set-up release; the
	// synthesizer's own seeds are small integers, so it never collides.
	warmupSeed = 1 << 20
)

// benchmarked lists the workloads of BENCHMARK.json, in its order.
var benchmarked = []string{"release-lp", "append-chain"}

// workloadNames lists every workload the program runs. mixed-replay is not
// in BENCHMARK.json: on a 2-core host its tail percentiles, over the few
// hundred requests a run can afford, spread past any admissible bound.
var workloadNames = []string{"release-lp", "append-chain", "mixed-replay"}

// workload is one benchmark input set: the requests that set a fresh
// server up, and the measured requests, either as closed-loop operations
// (one client runs an operation's requests in order, then the next
// operation) or as an open-loop schedule (each request sent at its trace
// offset, whether or not earlier ones have completed).
type workload struct {
	name string
	// payloads holds the request bodies the records reference by BodyRef.
	payloads map[string][]byte
	setup    []replay.Record
	ops      [][]replay.Record
	timed    []replay.Record
	// least is the fewest operations a closed loop completes, whatever its
	// duration.
	least int
	// reuseAllButOne marks a workload whose "release" requests each follow
	// an append that touched exactly one connected component.
	reuseAllButOne bool
}

func (w *workload) openLoop() bool { return w.timed != nil }

// newWorkload builds the named workload's inputs from the seed. An
// open-loop schedule spans d.
func newWorkload(name string, seed uint64, d time.Duration) (*workload, error) {
	switch name {
	case "release-lp":
		return releaseLP(seed, max(minOps, int(d.Seconds()*lpOpsPerSecond)))
	case "append-chain":
		return appendChain(seed, chainDeltas)
	case "mixed-replay":
		return mixedReplay(seed, d, mixedRPS)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// derive maps (seed, stream) to a non-zero generator seed, so that each
// input stream of a workload is independent and every workload seed gives
// different inputs.
func derive(seed uint64, stream int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(stream+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return x | 1
}

// releaseBody is the JSON body of a UMP release at the workload parameters.
func releaseBody(seed uint64) string {
	b, err := json.Marshal(struct {
		Options mechanism.Options `json:"options"`
	}{mechanism.Options{Epsilon: math.Log(releaseEExp), Delta: releaseDelta, Seed: seed}})
	if err != nil {
		panic(err) // a plain Options value always marshals
	}
	return string(b)
}

func tsvBytes(l *searchlog.Log) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := searchlog.WriteTSV(&buf, l); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func putRecord(class, name string) replay.Record {
	return replay.Record{Class: class, Method: "PUT", Path: "/v1/corpora/" + name,
		ContentType: "text/tab-separated-values", BodyRef: name}
}

func releaseRecord(class, name string, seed uint64) replay.Record {
	return replay.Record{Class: class, Method: "POST", Path: "/v1/corpora/" + name + "/sanitize",
		ContentType: "application/json", Body: releaseBody(seed)}
}

// releaseLP uploads n distinct single-market small corpora in set-up; each
// of the n operations, all of which a run completes, releases one corpus
// the server has not released before, so the plan, component and
// warm-start caches all miss.
//
// The corpora share one content, the small profile at generation seed 1
// (as append-chain's corpus is fixed), and differ only in their user IDs:
// corpus i prefixes every ID with the workload seed and i. The prefix keeps
// the users' order, so every release solves the same LP cold, under a
// digest no cache has seen. Every operation thus does the same work, and
// what spreads a run's latencies — and runs of different seeds — is the
// host, not which corpora a seed happened to draw.
func releaseLP(seed uint64, n int) (*workload, error) {
	w := &workload{name: "release-lp", payloads: make(map[string][]byte, n), least: n}
	base, err := gen.Generate(gen.Small(), 1)
	if err != nil {
		return nil, err
	}
	raw, err := tsvBytes(base)
	if err != nil {
		return nil, err
	}
	rows := bytes.SplitAfter(raw, []byte("\n"))
	for i := range n {
		name := fmt.Sprintf("lp-%04d", i)
		prefix := fmt.Sprintf("%x-%04d-", seed, i)
		var b bytes.Buffer
		for _, row := range rows {
			if len(row) > 0 {
				b.WriteString(prefix)
				b.Write(row)
			}
		}
		w.payloads[name] = b.Bytes()
		w.setup = append(w.setup, putRecord("put", name))
		w.ops = append(w.ops, []replay.Record{releaseRecord("release", name, 1)})
	}
	return w, nil
}

// appendChain uploads the 16-market paper-sharded corpus (generation seed
// 1, whatever the workload seed) and primes it with a release; each of the
// n prepared operations appends a delta of about 1% of the corpus rows,
// confined to one connected component, then releases the new version. The
// workload seed picks the components and cells the deltas touch.
func appendChain(seed uint64, n int) (*workload, error) {
	raw, err := gen.Generate(gen.PaperSharded(), 1)
	if err != nil {
		return nil, err
	}
	w := &workload{name: "append-chain", payloads: make(map[string][]byte, n+1), least: minOps, reuseAllButOne: true}
	const name = "chain"
	if w.payloads[name], err = tsvBytes(raw); err != nil {
		return nil, err
	}
	w.setup = []replay.Record{putRecord("put", name), releaseRecord("prime", name, 1)}

	// A delta only adds clicks to existing (user, pair) cells of one
	// component of the preprocessed corpus: no edge of the user–pair graph
	// appears or disappears and no pair becomes unique, so exactly that
	// component's content changes and every other one is reused.
	pre, _ := searchlog.Preprocess(raw)
	comps := partition.Decompose(pre)
	sort.SliceStable(comps, func(a, b int) bool { return comps[a].Log.NumTriplets() > comps[b].Log.NumTriplets() })
	comps = comps[:min(16, len(comps))]
	rows := max(raw.NumTriplets()/100, 1)
	g := rng.New(derive(seed, 1))
	for i := range n {
		ref := fmt.Sprintf("delta-%03d", i)
		w.payloads[ref] = deltaBody(comps[g.IntN(len(comps))].Log, rows, g)
		w.ops = append(w.ops, []replay.Record{
			{Class: "append", Method: "POST", Path: "/v1/corpora/" + name + "/append",
				ContentType: "text/tab-separated-values", BodyRef: ref},
			releaseRecord("release", name, 1),
		})
	}
	return w, nil
}

// deltaBody renders, as TSV, rows clicks each added to a random existing
// (user, pair) cell of the preprocessed log l. Every cell already exists,
// so the delta adds no edge to the user–pair graph and makes no pair unique.
func deltaBody(l *searchlog.Log, rows int, g *rng.RNG) []byte {
	cells := make(map[string]int, rows)
	for range rows {
		p := l.Pair(g.IntN(l.NumPairs()))
		e := p.Entries[g.IntN(len(p.Entries))]
		cells[l.User(e.User).ID+"\t"+p.Query+"\t"+p.URL]++
	}
	var b bytes.Buffer
	for _, k := range slices.Sorted(maps.Keys(cells)) {
		fmt.Fprintf(&b, "%s\t%d\n", k, cells[k])
	}
	return b.Bytes()
}

// mixedReplay is the replay synthesizer's deterministic mix on the small
// profile at rps requests per second for d, closed by the ε = 1000 storm.
// Set-up uploads the trace's corpora and runs one stateless release at an
// unused seed, so the component cache holds the corpus plan before timing
// starts and the measured releases are cache hits, probes or refusals.
func mixedReplay(seed uint64, d time.Duration, rps float64) (*workload, error) {
	tr, err := replay.Synthesize(replay.SynthConfig{
		Profile:   "small",
		GenSeed:   derive(seed, 0),
		Seed:      derive(seed, 1),
		RPS:       rps,
		Duration:  d,
		EExp:      releaseEExp,
		Delta:     releaseDelta,
		Storm429:  stormSize,
		CreatedBy: "perfbench",
	})
	if err != nil {
		return nil, err
	}
	payloads, err := tr.Materialize()
	if err != nil {
		return nil, err
	}
	w := &workload{name: "mixed-replay", payloads: payloads}
	for _, rec := range tr.Records {
		if rec.Setup {
			w.setup = append(w.setup, rec)
		} else {
			w.timed = append(w.timed, rec)
		}
	}
	w.setup = append(w.setup, replay.Record{Class: "warmup", Method: "POST",
		Path:        fmt.Sprintf("/v1/sanitize?delta=%g&eexp=%g&seed=%d", releaseDelta, releaseEExp, warmupSeed),
		ContentType: "text/tab-separated-values", BodyRef: "corpus"})
	evenArrivals(w.timed, d)
	sort.SliceStable(w.timed, func(a, b int) bool { return w.timed[a].TMS < w.timed[b].TMS })
	return w, nil
}

// evenArrivals re-times the synthesizer's Poisson arrivals (records in
// generation order) onto evenly spaced slots across d, keeping the mix,
// each append_sanitize release 1 ms after its append, and the storm's own
// offsets past d. A fixed rate without Poisson bursts keeps queueing — and
// so the latency percentiles — from depending on how a seed happens to
// cluster its arrivals.
func evenArrivals(recs []replay.Record, d time.Duration) {
	arrival := func(i int) bool {
		sibling := i > 0 && recs[i].Class == "append_sanitize" && recs[i-1].Class == "append_sanitize" &&
			isSanitize(recs[i].Path) && !isSanitize(recs[i-1].Path)
		return recs[i].Class != "storm_429" && !sibling
	}
	n := 0
	for i := range recs {
		if arrival(i) {
			n++
		}
	}
	gap := float64(d) / float64(time.Millisecond) / float64(n+1)
	k := 0
	for i := range recs {
		switch {
		case arrival(i):
			k++
			recs[i].TMS = gap * float64(k)
		case recs[i].Class != "storm_429":
			recs[i].TMS = recs[i-1].TMS + 1
		}
	}
}

// allRecords flattens a workload's set-up and measured requests.
func (w *workload) allRecords() []replay.Record {
	recs := slices.Clone(w.setup)
	for _, op := range w.ops {
		recs = append(recs, op...)
	}
	return append(recs, w.timed...)
}

// serverBudget is the per-corpus (ε, δ) allowance slserve runs with: one
// release per version of the longest chain any workload can build
// (append-chain's base plus one version per prepared delta). Summed over
// the whole chain rather than per version digest, every workload's spend
// still fits (see chainSpend), and the storm's ε = 1000 exceeds it alone.
func serverBudget() ledger.Budget {
	n := float64(chainDeltas + 1)
	return ledger.Budget{Epsilon: n * math.Log(releaseEExp), Delta: n * releaseDelta}
}

// corpusRoute splits /v1/corpora/{name}[/{action}][?query] into its name
// and action ("" for the corpus resource itself); other paths yield "".
func corpusRoute(path string) (name, action string) {
	path, _, _ = strings.Cut(path, "?")
	rest, ok := strings.CutPrefix(path, "/v1/corpora/")
	if !ok {
		return "", ""
	}
	name, action, _ = strings.Cut(rest, "/")
	return name, action
}
