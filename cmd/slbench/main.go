// Command slbench measures the solver hot paths — monolithic vs
// component-decomposed, sequential vs parallel — plus the multinomial
// sampling step, the warm-started grid sweeps, the streaming ingest fold
// and every registered release mechanism end to end, and emits a
// machine-readable benchmark trajectory (BENCH_slbench.json, the committed
// baseline) that future changes are compared against.
//
// Usage:
//
//	slbench [-o BENCH_slbench.json] [-profiles tiny,small,tiny-sharded,small-sharded]
//	        [-objectives output-size,diversity] [-benchtime 1s|1x] [-seed 1]
//	        [-baseline BENCH_slbench.json] [-no-sweeps]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// Each benchmark runs through testing.Benchmark, so -benchtime follows the
// go test convention (a duration, or N iterations as "Nx"). Corpus
// generation and preprocessing happen outside the timed region; the numbers
// are pure solve cost. Single-market profiles (tiny, small) form one giant
// connected component — there the decomposed rows measure the
// decomposition's overhead, not a speedup; the *-sharded profiles decompose
// into one component per market and show the win.
//
// The {profile}/mechanism/{name} rows run each mechanism registered in
// internal/mechanism (ump, laplace, zealous) through its full
// Sanitize path at a matched e^ε = 2 budget; the gated objective is the
// released row count, which is deterministic in -seed, so the baseline
// comparison doubles as a cross-machine determinism check of every release
// path the server can dispatch to.
//
// Two in-process gates read the median of paired ratios, each pair timed
// under the same machine state: on profiles with ≥ 16 components an
// incremental post-append re-solve must be ≥ 5× faster than a cold one,
// and on every profile SPE must be no slower than the slowest LP-based BIP
// solver (the paper's Figure 5 ordering).
//
// With -baseline, slbench looks up every emitted row in the named earlier
// trajectory by benchmark name and exits nonzero when a row is missing or
// its objective value or LP pivot and refactorization counts differ: speed
// may drift between machines, λ, plan objectives and the simplex's path to
// them may not. A run with every row filter (-profiles, -objectives,
// -no-sweeps, -append-profiles) at its default also fails on a baseline row
// it does not emit, so the committed file holds no stale rows; partial runs
// gate against the full file and ignore the rows they skip.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"dpslog/internal/bip"
	"dpslog/internal/dp"
	"dpslog/internal/experiments"
	"dpslog/internal/gen"
	"dpslog/internal/ingest"
	"dpslog/internal/mechanism"
	"dpslog/internal/rng"
	"dpslog/internal/sampling"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// benchResult is one benchmark row of the emitted trajectory.
type benchResult struct {
	Name           string  `json:"name"`
	Profile        string  `json:"profile"`
	Objective      string  `json:"objective"`
	Mode           string  `json:"mode"`
	Parallelism    int     `json:"parallelism"`
	Components     int     `json:"components"`
	Pairs          int     `json:"pairs"`
	Users          int     `json:"users"`
	ObjectiveValue float64 `json:"objective_value"`

	// LPIterations and LPRefactorizations are the simplex pivots and basis
	// factorizations behind the row's plans (0 for rows without an LP).
	// They are gated like the objective: an exact change to the LP engine
	// cannot move them.
	LPIterations       int `json:"lp_iterations,omitempty"`
	LPRefactorizations int `json:"lp_refactorizations,omitempty"`

	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type trajectory struct {
	GoMaxProcs int           `json:"go_max_procs"`
	Seed       uint64        `json:"seed"`
	Benchtime  string        `json:"benchtime"`
	EExp       float64       `json:"eexp"`
	Delta      float64       `json:"delta"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// The row filters' defaults: a run with all of them emits every row.
const (
	defaultProfiles       = "tiny,small,tiny-sharded,small-sharded"
	defaultObjectives     = "output-size,diversity"
	defaultAppendProfiles = "tiny-sharded,small-sharded,paper-sharded"
)

func main() {
	out := flag.String("o", "BENCH_slbench.json", "output JSON file (- for stdout)")
	profiles := flag.String("profiles", defaultProfiles, "comma-separated corpus profiles")
	objectives := flag.String("objectives", defaultObjectives, "comma-separated objectives: output-size, diversity")
	benchtime := flag.String("benchtime", "", "per-benchmark budget, go test style (e.g. 2s or 1x); empty = testing default (1s)")
	seed := flag.Uint64("seed", 1, "corpus generation seed")
	baseline := flag.String("baseline", "", "earlier trajectory JSON; every emitted row must be in it with the same objective value (λ drift fails the run)")
	noSweeps := flag.Bool("no-sweeps", false, "skip the warm-started table4/frontier sweep benchmarks")
	appendProfiles := flag.String("append-profiles", defaultAppendProfiles, "comma-separated multi-market profiles for the continual-release append benchmark (empty = skip)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file once the benchmarks finish")
	testing.Init()
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fatal(err)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}

	params := dp.Params{Eps: math.Log(2), Delta: 0.5}
	traj := trajectory{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Benchtime:  *benchtime,
		EExp:       2.0,
		Delta:      0.5,
	}

	for _, profile := range strings.Split(*profiles, ",") {
		profile = strings.TrimSpace(profile)
		p, err := gen.Profiles(profile)
		if err != nil {
			fatal(err)
		}
		raw, err := gen.Generate(p, *seed)
		if err != nil {
			fatal(err)
		}
		pre, _ := searchlog.Preprocess(raw)

		modes := []struct {
			name string
			opts ump.Options
			par  int
		}{
			{"monolithic", ump.Options{NoDecompose: true}, 1},
			{"decomposed-p1", ump.Options{Parallelism: 1}, 1},
			{"decomposed-pmax", ump.Options{}, runtime.GOMAXPROCS(0)},
		}
		for _, objective := range strings.Split(*objectives, ",") {
			objective = strings.TrimSpace(objective)
			for _, mode := range modes {
				solve, err := solverFor(objective, pre, params, mode.opts)
				if err != nil {
					fatal(err)
				}
				// One untimed solve for the plan-shaped metadata.
				plan, err := solve()
				if err != nil {
					fatal(fmt.Errorf("%s/%s/%s: %w", profile, objective, mode.name, err))
				}
				r := measure(func() error { _, err := solve(); return err })
				traj.add(profile, objective, mode.name, pre, mode.par, plan.Components, plan.Objective, lpOf(plan.Iterations, plan.Stats), r)
			}
		}

		// The multinomial sampling step, for the end-to-end picture.
		counts := make([]int, pre.NumPairs())
		for i := range counts {
			counts[i] = pre.PairCount(i) / 2
		}
		g := rng.New(7)
		r := measure(func() error { _, err := sampling.Output(g, pre, counts); return err })
		traj.add(profile, "sampling", "sampling", pre, 1, 1, 0, lpWork{}, r)

		// Warm-started sweep benchmarks: the experiment-layer workloads the
		// warm starts were built for, on the small profiles only (the tiny
		// ones drown in fixed costs).
		if !*noSweeps && strings.HasPrefix(profile, "small") {
			benchSweeps(&traj, profile, pre)
		}

		// The streaming ingest fold over the raw corpus bytes. The
		// recorded objective is the ingested log's total size — any drift
		// means the streaming path no longer reproduces the histogram,
		// which is exactly what the baseline gate should catch.
		benchIngest(&traj, profile, raw)

		// Every registered release mechanism, end to end.
		benchMechanisms(&traj, profile, pre, *seed)

		// Figure 5's solver ordering, as a paired-median gate.
		benchSolverOrder(profile, pre)

	}

	// The continual-release incremental re-solve runs over its own profile
	// list: the ratio only exists on multi-market corpora (a single giant
	// component leaves an append nothing to reuse), and the gated profile —
	// paper-sharded, where superlinear per-component solve cost dominates
	// the linear decompose+digest overhead — is too heavy to drag through
	// the full per-profile suite above.
	for _, profile := range strings.Split(*appendProfiles, ",") {
		profile = strings.TrimSpace(profile)
		if profile == "" {
			continue
		}
		p, err := gen.Profiles(profile)
		if err != nil {
			fatal(err)
		}
		raw, err := gen.Generate(p, *seed)
		if err != nil {
			fatal(err)
		}
		benchAppend(&traj, profile, raw, params)
	}

	// Profiles are flushed before the baseline gate: a gate failure is
	// exactly when the CPU picture of the run is most wanted.
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	enc, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *baseline != "" {
		full := *profiles == defaultProfiles && *objectives == defaultObjectives &&
			!*noSweeps && *appendProfiles == defaultAppendProfiles
		if err := checkBaseline(traj, *baseline, full); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "slbench: objective values and LP counts match baseline %s\n", *baseline)
	}
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "slbench: wrote %d benchmarks to %s\n", len(traj.Benchmarks), *out)
}

// measure times op through testing.Benchmark with allocation reporting.
func measure(op func() error) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// lpWork is the simplex work behind a row's plans: pivots and basis
// factorizations, summed over every LP solved.
type lpWork struct{ iterations, refactorizations int }

// lpOf reads the LP work of one plan from its iteration count and solver
// counters. A plan without LP solves (D-UMP) did no simplex work; its
// Iterations counts BIP nodes.
func lpOf(iterations int, st ump.SolveStats) lpWork {
	if st.LPSolves == 0 {
		return lpWork{}
	}
	return lpWork{iterations, st.Refactorizations}
}

func (w *lpWork) add(o lpWork) {
	w.iterations += o.iterations
	w.refactorizations += o.refactorizations
}

// add appends and logs one row: the run r of the named benchmark over the
// corpus l, with its parallelism, component count, gated objective value
// and gated LP work.
func (t *trajectory) add(profile, objective, mode string, l *searchlog.Log, par, comps int, value float64, work lpWork, r testing.BenchmarkResult) {
	row := benchResult{
		Name:               rowName(profile, objective, mode),
		Profile:            profile,
		Objective:          objective,
		Mode:               mode,
		Parallelism:        par,
		Components:         comps,
		Pairs:              l.NumPairs(),
		Users:              l.NumUsers(),
		ObjectiveValue:     value,
		LPIterations:       work.iterations,
		LPRefactorizations: work.refactorizations,
		N:                  r.N,
		NsPerOp:            float64(r.NsPerOp()),
		BytesPerOp:         r.AllocedBytesPerOp(),
		AllocsPerOp:        r.AllocsPerOp(),
	}
	t.Benchmarks = append(t.Benchmarks, row)
	fmt.Fprintf(os.Stderr, "slbench: %-48s %12.0f ns/op  %8d allocs/op  (N=%d, comps=%d, obj=%g, pivots=%d, refactors=%d)\n",
		row.Name, row.NsPerOp, row.AllocsPerOp, row.N, row.Components, row.ObjectiveValue, row.LPIterations, row.LPRefactorizations)
}

// rowName is profile/objective/mode, keeping the two spellings the
// baseline is keyed on: the sampling row (objective = mode) is
// profile/sampling, and the append rows (output-size solves) are
// profile/append/mode.
func rowName(profile, objective, mode string) string {
	switch {
	case mode == objective:
		return profile + "/" + objective
	case strings.HasPrefix(mode, "append-"):
		return profile + "/append/" + mode
	}
	return profile + "/" + objective + "/" + mode
}

// benchSweeps measures the table4 λ sweep (distinct budgets of the paper
// grid) and the frontier ladder (min-privacy solves for rising targets),
// cold versus warm-started, and records the summed integral objectives so
// the baseline gate covers the sweeps too.
func benchSweeps(traj *trajectory, profile string, pre *searchlog.Log) {
	budgets := experiments.DistinctBudgets(experiments.EExpGrid7, experiments.DeltaGrid7)
	reference := dp.FromEExp(2.0, 0.5)

	for _, mode := range []string{"cold", "warm"} {
		total := 0.0
		var work lpWork
		r := measure(func() error {
			total, work = 0, lpWork{}
			var pool *ump.WarmStarts
			if mode == "warm" {
				// Anchor exactly like internal/experiments: one cold
				// solve of the reference point seeds the sticky pool;
				// every other budget warm-starts from it.
				pool = ump.NewWarmStarts(true)
				plan, err := ump.MaxOutputSize(pre, reference, ump.Options{Warm: pool})
				if err != nil {
					return err
				}
				work.add(lpOf(plan.Iterations, plan.Stats))
			}
			for _, p := range budgets {
				plan, err := ump.MaxOutputSize(pre, p, ump.Options{Warm: pool})
				if err != nil {
					return err
				}
				total += math.Floor(plan.RelaxationObjective)
				work.add(lpOf(plan.Iterations, plan.Stats))
			}
			return nil
		})
		traj.add(profile, "sweep-table4", mode, pre, runtime.GOMAXPROCS(0), len(budgets), total, work, r)
	}

	// Frontier ladder: targets as fractions of the reference λ.
	refPlan, err := ump.MaxOutputSize(pre, reference, ump.Options{})
	if err != nil {
		fatal(err)
	}
	ref := int(math.Floor(refPlan.RelaxationObjective))
	if ref < 4 {
		return
	}
	var targets []int
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		if t := int(frac * float64(ref)); t >= 1 {
			targets = append(targets, t)
		}
	}
	for _, mode := range []string{"cold", "warm"} {
		total := 0.0
		var work lpWork
		r := measure(func() error {
			total, work = 0, lpWork{}
			var pool *ump.WarmStarts
			if mode == "warm" {
				// Sequential ladder: rolling semantics, each step
				// continues from its predecessor's basis.
				pool = ump.NewWarmStarts(false)
			}
			for _, target := range targets {
				res, err := ump.MinPrivacy(pre, target, ump.Options{Warm: pool})
				if err != nil {
					return err
				}
				total += float64(res.Plan.OutputSize)
				work.add(lpOf(res.Plan.Iterations, res.Plan.Stats))
			}
			return nil
		})
		traj.add(profile, "sweep-frontier", mode, pre, 1, len(targets), total, work, r)
	}
}

// benchIngest measures ingest.Ingest over the profile's canonical TSV
// bytes, asserting along the way that the fold reproduces the generated
// log's digest, and records the ingested size as the gated objective.
func benchIngest(traj *trajectory, profile string, raw *searchlog.Log) {
	var buf bytes.Buffer
	if _, err := searchlog.WriteTSV(&buf, raw); err != nil {
		fatal(err)
	}
	data := buf.Bytes()
	l, _, err := ingest.Ingest(bytes.NewReader(data), ingest.Config{})
	if err != nil {
		fatal(fmt.Errorf("%s/ingest: %w", profile, err))
	}
	if l.Digest() != raw.Digest() {
		fatal(fmt.Errorf("%s/ingest: digest diverged from the generated log", profile))
	}
	r := measure(func() error {
		_, _, err := ingest.Ingest(bytes.NewReader(data), ingest.Config{})
		return err
	})
	traj.add(profile, "ingest", "ingest", raw, 1, 1, float64(l.Size()), lpWork{}, r)
}

// benchAppend measures the continual-release re-solve (PR 10): a ~1%
// append into one connected component of a multi-market corpus, solved
// cold versus incrementally through a component-plan cache primed with the
// pre-append solve. The incremental plan must be byte-identical to the
// cold one and reuse every untouched component — the cache may only change
// wall-clock — and on profiles with ≥ 16 components (paper-sharded) the
// incremental path must be ≥ 5× faster in the median of gateRounds
// paired runs, the continual-release headline gate (enforced in-process:
// the ratio is same-machine, unlike the cross-machine objective baseline).
// Smaller sharded profiles report the ratio ungated: their components are
// small enough that the linear decompose+digest floor both paths share
// compresses the achievable ratio.
func benchAppend(traj *trajectory, profile string, raw *searchlog.Log, params dp.Params) {
	pre1, _ := searchlog.Preprocess(raw)

	// v2 merges a one-cell delta of ~1% of the corpus mass, the fold the
	// server runs on an append: the cell's pair is non-unique in pre1 (so
	// it survives preprocessing in v2 too) and exactly one component's
	// content changes.
	touched := pre1.Pair(0)
	b := searchlog.NewBuilder()
	b.Add(pre1.User(touched.Entries[0].User).ID, touched.Query, touched.URL, raw.Size()/100+1)
	v2, err := searchlog.Merge(raw, b.Log())
	if err != nil {
		fatal(err)
	}
	pre2, _ := searchlog.Preprocess(v2)

	solve := func(cache *ump.ComponentCache) (*ump.Plan, error) {
		return ump.MaxOutputSize(pre2, params, ump.Options{Parallelism: 1, Comp: cache})
	}
	// primed returns a cache holding the pre-append solve's per-component
	// plans — the state a server's shared cache is in when the append lands.
	primed := func() *ump.ComponentCache {
		cache := ump.NewComponentCache(0)
		if _, err := ump.MaxOutputSize(pre1, params, ump.Options{Parallelism: 1, Comp: cache}); err != nil {
			fatal(err)
		}
		return cache
	}

	// Correctness before speed: equal plans, all-but-one component reused.
	cold, err := solve(nil)
	if err != nil {
		fatal(fmt.Errorf("%s/append/cold: %w", profile, err))
	}
	inc, err := solve(primed())
	if err != nil {
		fatal(fmt.Errorf("%s/append/incremental: %w", profile, err))
	}
	if len(cold.Counts) != len(inc.Counts) {
		fatal(fmt.Errorf("%s/append: plan shapes diverged", profile))
	}
	for i := range cold.Counts {
		if cold.Counts[i] != inc.Counts[i] {
			fatal(fmt.Errorf("%s/append: incremental plan diverged from cold at pair %d", profile, i))
		}
	}
	if inc.Reused != inc.Components-1 {
		fatal(fmt.Errorf("%s/append: reused %d of %d components, want all but the touched one", profile, inc.Reused, inc.Components))
	}

	ratios, rCold, rInc := appendSpeedups(appendBench(solve, func() *ump.ComponentCache { return nil }), appendBench(solve, primed))
	for _, row := range []struct {
		mode string
		plan *ump.Plan
		r    testing.BenchmarkResult
	}{
		{"append-cold", cold, rCold},
		{"append-incremental", inc, rInc},
	} {
		traj.add(profile, "output-size", row.mode, pre2, 1, row.plan.Components, row.plan.Objective, lpOf(row.plan.Iterations, row.plan.Stats), row.r)
	}
	if err := appendGate(profile, inc.Components, inc.Reused, ratios); err != nil {
		fatal(err)
	}
}

// gateRounds is the number of alternating measurement rounds behind each
// paired-median gate (append speedup, Figure 5 solver ordering).
const gateRounds = 5

// appendBench times solve against the cache state fresh returns, rebuilt
// outside the timed region before every iteration: each iteration of the
// incremental side measures one post-append re-solve against the
// pre-append cache state, not a fully warmed second pass.
func appendBench(solve func(*ump.ComponentCache) (*ump.Plan, error), fresh func() *ump.ComponentCache) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := fresh()
			b.StartTimer()
			if _, err := solve(cache); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// appendSpeedups runs gateRounds alternating (cold, incremental) pairs
// and returns each pair's cold/incremental ratio, plus each side's
// median-time run for the emitted rows.
func appendSpeedups(cold, inc func(b *testing.B)) (ratios []float64, rCold, rInc testing.BenchmarkResult) {
	runs := pairedRuns(cold, inc)
	for k := range gateRounds {
		ratios = append(ratios, float64(runs[0][k].NsPerOp())/float64(runs[1][k].NsPerOp()))
	}
	byTime := func(a, b testing.BenchmarkResult) int { return cmp.Compare(a.NsPerOp(), b.NsPerOp()) }
	for _, r := range runs {
		slices.SortFunc(r, byTime)
	}
	return ratios, runs[0][gateRounds/2], runs[1][gateRounds/2]
}

// pairedRuns runs gateRounds rounds of testing.Benchmark over benches,
// each round running every bench once in order, and returns
// runs[bench][round]. Alternation puts every side of a round under the
// same machine state, and the gates read the median ratio over rounds: at
// -benchtime 1x one descheduling blip swings a single one-iteration ratio
// far more than any real regression.
func pairedRuns(benches ...func(b *testing.B)) [][]testing.BenchmarkResult {
	runs := make([][]testing.BenchmarkResult, len(benches))
	for i := range runs {
		runs[i] = make([]testing.BenchmarkResult, gateRounds)
	}
	for k := range gateRounds {
		for i, bench := range benches {
			runs[i][k] = testing.Benchmark(bench)
		}
	}
	return runs
}

// appendGate prints the min/median/max paired speedup and enforces the
// continual-release headline bound on its median: with ≥ 16 components
// the incremental re-solve must be ≥ 5× faster than cold. Below that the
// ratio is reported ungated.
func appendGate(profile string, components, reused int, ratios []float64) error {
	bound := 0.0
	if components >= 16 {
		bound = 5
	}
	return medianGate(profile+"/append speedup", ratios, bound,
		fmt.Sprintf(", %d/%d components reused", reused, components))
}

// medianGate prints the min/median/max of paired ratios and fails when
// their median is below bound.
func medianGate(what string, ratios []float64, bound float64, detail string) error {
	sorted := slices.Sorted(slices.Values(ratios))
	median := sorted[len(sorted)/2]
	fmt.Fprintf(os.Stderr, "slbench: %s median %.2fx (min %.2fx, max %.2fx over %d pairs%s)\n",
		what, median, sorted[0], sorted[len(sorted)-1], len(sorted), detail)
	if median < bound {
		return fmt.Errorf("%s: median %.2fx over %d pairs, want ≥ %gx", what, median, len(sorted), bound)
	}
	return nil
}

// benchSolverOrder checks Figure 5's headline on the profile's D-UMP
// instance (e^ε = 1.7, δ = 10⁻³, as slexp's fig5 builds it): SPE is no
// slower than the slowest LP-based solver — rounding, the feasibility pump
// or branch & bound, at slexp's default limits of 5. Each round of
// pairedRuns times every solver once, and the gate needs the median over
// rounds of slowest-LP/SPE to be ≥ 1. It emits no row: the claim is an
// ordering, not a speed to track.
func benchSolverOrder(profile string, pre *searchlog.Log) {
	cons, err := dp.Build(pre, dp.FromEExp(1.7, 1e-3))
	if err != nil {
		fatal(err)
	}
	solvers := []bip.Solver{bip.SPE{}, bip.Rounding{}, bip.FeasPump{MaxIter: 5}, bip.BranchBound{NodeLimit: 5}}
	benches := make([]func(*testing.B), len(solvers))
	for i, s := range solvers {
		benches[i] = func(b *testing.B) {
			for range b.N {
				if _, err := s.Solve(cons); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	runs := pairedRuns(benches...)
	ratios := make([]float64, gateRounds)
	for k := range ratios {
		var lpMax int64
		for _, r := range runs[1:] {
			lpMax = max(lpMax, r[k].NsPerOp())
		}
		ratios[k] = float64(lpMax) / float64(runs[0][k].NsPerOp())
	}
	if err := medianGate(profile+"/fig5 slowest-LP/SPE", ratios, 1, ""); err != nil {
		fatal(err)
	}
}

// benchMechanisms runs every registered release mechanism end to end over
// the preprocessed corpus at a matched e^ε = 2 budget and records the
// released row count as the gated objective. All three paths are seeded, so
// a row-count drift on any machine means a release path changed behaviour —
// the same invariant the server's ledger identity depends on. Every
// mechanism runs at mechanism.Calibrated, as the experiment tables do.
func benchMechanisms(traj *trajectory, profile string, pre *searchlog.Log, seed uint64) {
	ctx := context.Background()
	for _, name := range mechanism.Names() {
		m, err := mechanism.Get(name)
		if err != nil {
			fatal(err)
		}
		opts := mechanism.Calibrated(name, math.Log(2), seed)
		rel, err := m.Sanitize(ctx, pre, opts)
		if err != nil {
			fatal(fmt.Errorf("%s/mechanism/%s: %w", profile, name, err))
		}
		var work lpWork
		if rel.Result != nil {
			work = lpOf(rel.Result.Plan.Iterations, rel.Result.Plan.Solver)
		}
		r := measure(func() error { _, err := m.Sanitize(ctx, pre, opts); return err })
		traj.add(profile, "mechanism", name, pre, 1, 1, float64(rel.Rows()), work, r)
	}
}

// checkBaseline fails when an emitted benchmark is missing from the baseline
// at path or disagrees with it on its objective value or LP work: engines
// and machines may change speed, never λ, plan objectives or the pivots
// that reach them, and a new row is gated from the run that adds it.
// Baseline rows this run does not emit fail a full run (every row filter at
// its default), and are ignored otherwise.
func checkBaseline(traj trajectory, path string, full bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base trajectory
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	baseRows := make(map[string]benchResult, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseRows[r.Name] = r
	}
	var mismatches []string
	compared := 0
	emitted := make(map[string]bool, len(traj.Benchmarks))
	for _, r := range traj.Benchmarks {
		emitted[r.Name] = true
		want, ok := baseRows[r.Name]
		if !ok {
			mismatches = append(mismatches, fmt.Sprintf("%s: missing from baseline", r.Name))
			continue
		}
		compared++
		if r.ObjectiveValue != want.ObjectiveValue {
			mismatches = append(mismatches, fmt.Sprintf("%s: objective %g != baseline %g", r.Name, r.ObjectiveValue, want.ObjectiveValue))
		}
		if r.LPIterations != want.LPIterations || r.LPRefactorizations != want.LPRefactorizations {
			mismatches = append(mismatches, fmt.Sprintf("%s: LP work %d pivots, %d refactorizations != baseline %d, %d",
				r.Name, r.LPIterations, r.LPRefactorizations, want.LPIterations, want.LPRefactorizations))
		}
	}
	if full {
		for _, r := range base.Benchmarks {
			if !emitted[r.Name] {
				mismatches = append(mismatches, fmt.Sprintf("%s: stale baseline row, not emitted by a full run", r.Name))
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s shares no benchmark names with this run", path)
	}
	if len(mismatches) > 0 {
		return fmt.Errorf("rows disagree with baseline %s:\n  %s", path, strings.Join(mismatches, "\n  "))
	}
	return nil
}

// solverFor binds one objective solve over the preprocessed corpus.
func solverFor(objective string, pre *searchlog.Log, params dp.Params, opts ump.Options) (func() (*ump.Plan, error), error) {
	switch objective {
	case "output-size", "size":
		return func() (*ump.Plan, error) { return ump.MaxOutputSize(pre, params, opts) }, nil
	case "diversity":
		return func() (*ump.Plan, error) { return ump.Diversity(pre, params, opts) }, nil
	}
	return nil, fmt.Errorf("slbench: unknown objective %q (have output-size, diversity)", objective)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slbench:", err)
	os.Exit(1)
}
