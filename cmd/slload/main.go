// Command slload is the load harness for slserve: a synthetic-arrival
// load generator, a trace synthesizer, and a recorded-trace replayer with
// per-class SLO gates. Both modes that send requests run a trace through
// one engine, replay.Run: live mode builds its trace in memory, -replay
// reads it from a file. This command wires flags to it.
//
// Live load generation (the historical mode):
//
//	slload [-url http://localhost:8080] [-rps 20] [-duration 15s]
//	       [-arrivals poisson|uniform] [-profile tiny] [-gen-seed 1]
//	       [-eexp 2] [-delta 0.5] [-objective size] [-solver spe]
//	       [-distinct 4] [-batch 5s] [-timeout 30s]
//	       [-endpoint sanitize|lambda|stats]
//	       [-corpus NAME] [-expect-429] [-trace-out FILE]
//
// The arrival offsets (every 1/rps, or Poisson from -load-seed) are drawn
// once up to -duration, one request record each, and the trace is paced
// open-loop with batched per-class p50/p95/p99 reporting. -distinct
// rotates the sanitization seed across N values so the run mixes
// plan-cache hits with real solves; -distinct 1 measures the pure cache
// path after the first request. The process exits non-zero if any request
// fails, making it usable as a CI smoke gate.
//
// -corpus switches to the corpus-referencing mode against a stateful
// slserve (-data-dir): the TSV corpus is uploaded ONCE to
// /v1/corpora/NAME, then every request POSTs an options-only JSON body to
// /v1/corpora/NAME/sanitize. Releases are charged against the server's
// per-corpus privacy budget; 429 budget-exhausted responses are failures
// unless -expect-429 is given, in which case they are counted separately
// and the run fails only if NO 429 is observed (the CI budget-exhaustion
// smoke gate).
//
// -trace-out FILE captures the run as a REPLAYABLE ndjson trace: a header
// line naming the synthetic corpus (profile + seed, regenerated on
// replay rather than embedded), then one line per request with its
// planned offset, class, method, path, body reference, expected status
// class and the observed latency/status/X-Trace-Id. Feed the file back
// through -replay to reproduce the run's per-class request mix exactly.
//
// Trace synthesis (offline, no server needed):
//
//	slload -record FILE [-profile tiny] [-gen-seed 1] [-rps 40]
//	       [-duration 5s] [-load-seed 7] [-eexp 2] [-delta 0.25]
//	       [-distinct 4] [-corpus-distinct 2] [-storm-429 25]
//	       [-corpus replay]
//
// Synthesizes a deterministic mixed trace — chunked ingest PUTs, sync and
// async sanitize, corpus-referencing sanitize (UMP plus alternating
// zealous/localdp mechanism releases), budget and stats queries, and a
// deliberate over-budget 429 storm — Poisson-paced at -rps for -duration.
// The same flags always produce the same trace, so a replayed run can be
// gated against a committed per-class count baseline.
//
// Trace replay with SLO gates:
//
//	slload -replay FILE [-url http://localhost:8080] [-speedup 1]
//	       [-n 0] [-d 0] [-slo '*:err<1%'] [-bench-out BENCH_replay.json]
//	       [-baseline BENCH_replay.json] [-batch 5s] [-timeout 30s]
//	       [-trace-out FILE]
//
// Replays the trace open-loop at its recorded timestamps (divided by
// -speedup), -n/-d bounding the replayed section, reporting batched
// p50/p95/p99 per request class. The run fails on any -slo violation
// (grammar: "class:p95<250ms,err<1%;*:p99<2s"; "none" disables the
// default '*:err<1%'), on per-class count drift against -baseline, and on
// a trace that cannot be written out intact.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dpslog/internal/loadgen"
	"dpslog/internal/replay"
)

func main() {
	f := parseFlags(flag.CommandLine, os.Args[1:])
	switch {
	case *f.record != "":
		runRecord(f)
	case *f.replayFile != "":
		os.Exit(runReplay(f))
	default:
		os.Exit(runLive(f))
	}
}

// flags is the full surface; the three modes read overlapping subsets.
type flags struct {
	base       *string
	rps        *float64
	duration   *time.Duration
	arrivals   *string
	profile    *string
	genSeed    *uint64
	eexp       *float64
	delta      *float64
	objective  *string
	solver     *string
	support    *float64
	distinct   *int
	batch      *time.Duration
	timeout    *time.Duration
	endpoint   *string
	loadSeed   *uint64
	corpusName *string
	expect429  *bool
	traceOut   *string

	record         *string
	corpusDistinct *int
	storm429       *int

	replayFile *string
	speedup    *float64
	n          *int
	d          *time.Duration
	slo        *string
	benchOut   *string
	baseline   *string
}

func parseFlags(fs *flag.FlagSet, args []string) *flags {
	f := &flags{
		base:       fs.String("url", "http://localhost:8080", "slserve base URL"),
		rps:        fs.Float64("rps", 20, "target request rate per second (live and -record modes)"),
		duration:   fs.Duration("duration", 15*time.Second, "how long to send (live) or synthesize (-record) load"),
		arrivals:   fs.String("arrivals", "poisson", "arrival process: uniform or poisson (live mode)"),
		profile:    fs.String("profile", "tiny", "synthetic corpus profile: tiny, small, paper, dense, tiny-sharded or small-sharded"),
		genSeed:    fs.Uint64("gen-seed", 1, "corpus generation seed"),
		eexp:       fs.Float64("eexp", 2.0, "privacy parameter e^ε"),
		delta:      fs.Float64("delta", 0.5, "privacy parameter δ"),
		objective:  fs.String("objective", "size", "sanitization objective (size, frequent, diversity, ...)"),
		solver:     fs.String("solver", "", "D-UMP BIP solver (diversity objectives)"),
		support:    fs.Float64("support", 0.002, "frequent-pair minimum support (objective=frequent)"),
		distinct:   fs.Int("distinct", 4, "rotate the sanitize seed across N values (1 = pure cache path)"),
		batch:      fs.Duration("batch", 5*time.Second, "latency reporting batch window"),
		timeout:    fs.Duration("timeout", 30*time.Second, "per-request timeout"),
		endpoint:   fs.String("endpoint", "sanitize", "target endpoint: sanitize, lambda or stats (live mode)"),
		loadSeed:   fs.Uint64("load-seed", 7, "arrival schedule seed (poisson, -record synthesis)"),
		corpusName: fs.String("corpus", "", "corpus-referencing mode: upload the corpus once under this name, then sanitize by reference (requires slserve -data-dir); names the stored corpus in -record mode (default replay)"),
		expect429:  fs.Bool("expect-429", false, "budget-exhausted 429s are expected: count them separately and fail only if none is seen (live mode)"),
		traceOut:   fs.String("trace-out", "", "capture the run as a replayable ndjson trace at this path"),

		record:         fs.String("record", "", "synthesize a mixed-traffic trace to this path and exit (no server contacted)"),
		corpusDistinct: fs.Int("corpus-distinct", 2, "-record: distinct corpus-release seeds; each spends (ln eexp, delta) of the per-corpus budget once, on top of the mech_sanitize class's two mechanism releases"),
		storm429:       fs.Int("storm-429", 25, "-record: deliberate over-budget requests appended as a burst, each expecting 429"),

		replayFile: fs.String("replay", "", "replay the ndjson trace at this path against -url"),
		speedup:    fs.Float64("speedup", 1, "-replay: timeline compression (2 = twice the recorded rate)"),
		n:          fs.Int("n", 0, "-replay: cap the replayed requests (0 = whole trace)"),
		d:          fs.Duration("d", 0, "-replay: cap the replayed trace time, pre-speedup (0 = whole trace)"),
		slo:        fs.String("slo", "*:err<1%", "-replay: SLO gates, e.g. 'sanitize:p95<250ms,err<1%;*:p99<2s' ('none' disables)"),
		benchOut:   fs.String("bench-out", "", "-replay: write the per-class BENCH_replay JSON report to this path"),
		baseline:   fs.String("baseline", "", "-replay: committed BENCH_replay JSON whose per-class request counts this run must reproduce exactly"),
	}
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if *f.record != "" && *f.replayFile != "" {
		fatal(fmt.Errorf("-record and -replay are mutually exclusive"))
	}
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slload:", err)
	os.Exit(1)
}

// execute runs tr against -url through replay.Run — the one engine of the
// live and -replay modes — with cfg's speedup and limits, capturing the
// run to -trace-out when set, and prints the per-class summary. It returns
// the summary, the timed section's wall-clock duration, and false when the
// capture could not be written intact: downstream replays gate CI, so a
// silently short capture is worse than a loud one.
func execute(f *flags, tr *replay.Trace, cfg replay.Config, createdBy string) (loadgen.Summary, time.Duration, bool) {
	if *f.traceOut != "" {
		var err error
		if cfg.Capture, err = loadgen.CreateTrace(*f.traceOut); err != nil {
			fatal(err)
		}
		h := tr.Header
		h.V, h.Kind, h.Base, h.CreatedBy = replay.Version, "header", *f.base, createdBy
		cfg.Capture.Write(h)
	}
	cfg.BaseURL = *f.base
	cfg.Client = replay.NewClient(*f.timeout)
	cfg.Window = *f.batch
	sum, elapsed, err := replay.Run(tr, cfg)
	if err != nil {
		fatal(err)
	}

	for _, class := range sum.ClassNames() {
		st := sum.Classes[class]
		fmt.Printf("slload: class %-16s sent=%d ok=%d fail=%d budget_exhausted=%d  %s\n",
			class, st.Sent, st.OK, st.Errors(), st.Exhausted, loadgen.FormatLatencies(st.Latencies))
	}
	fmt.Printf("slload: total sent=%d ok=%d fail=%d budget_exhausted=%d achieved=%.1f rps in %s\n",
		sum.Sent, sum.OK, sum.Errors(), sum.Exhausted,
		float64(sum.Sent)/max(elapsed.Seconds(), 1e-9), elapsed.Round(time.Millisecond))
	if cfg.Capture != nil {
		if err := cfg.Capture.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "slload: writing %s: %v\n", *f.traceOut, err)
			return sum, elapsed, false
		}
	}
	return sum, elapsed, true
}
