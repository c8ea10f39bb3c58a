package main

// The live load-generation mode: synthetic uniform/Poisson arrivals
// against one endpoint, built as an in-memory trace and run by the same
// engine as -replay.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"dpslog"
	"dpslog/internal/loadgen"
	"dpslog/internal/replay"
	"dpslog/internal/rng"
)

// runLive builds the live run's trace and runs it, returning the exit
// code: 1 on any unexpected outcome, on -expect-429 without a 429, or on
// a capture that cannot be written.
func runLive(f *flags) int {
	if *f.rps <= 0 || *f.duration <= 0 || *f.distinct < 1 {
		fatal(fmt.Errorf("need -rps > 0, -duration > 0, -distinct ≥ 1"))
	}
	if *f.arrivals != "uniform" && *f.arrivals != "poisson" {
		fatal(fmt.Errorf("unknown arrival process %q (want uniform or poisson)", *f.arrivals))
	}
	corpus, err := dpslog.Generate(*f.profile, *f.genSeed)
	if err != nil {
		fatal(err)
	}
	var tsv bytes.Buffer
	if _, err := dpslog.WriteTSV(&tsv, corpus); err != nil {
		fatal(err)
	}
	endpoint := *f.endpoint
	if *f.corpusName != "" {
		endpoint = "corpus"
	}
	request, err := liveRequest(f, endpoint, tsv.Bytes())
	if err != nil {
		fatal(err)
	}

	tr := &replay.Trace{Header: replay.Header{
		Payloads: map[string]replay.Payload{"corpus": {Profile: *f.profile, Seed: *f.genSeed}},
	}}
	if endpoint == "corpus" {
		// Upload once; every timed request references the corpus by name
		// with an options-only body. As a setup record it runs before the
		// timed section, and a replayed capture re-creates the corpus.
		tr.Records = append(tr.Records, replay.Record{
			Class:       "setup",
			Setup:       true,
			Method:      "PUT",
			Path:        "/v1/corpora/" + *f.corpusName,
			ContentType: "text/tab-separated-values",
			BodyRef:     "corpus",
		})
		fmt.Printf("slload: uploading corpus %q (%d bytes) once; requests carry options only\n",
			*f.corpusName, tsv.Len())
	}
	for i, off := range arrivalOffsets(*f.arrivals, *f.rps, *f.duration, *f.loadSeed) {
		rec := request(i)
		rec.TMS = float64(off) / float64(time.Millisecond)
		tr.Records = append(tr.Records, rec)
	}

	fmt.Printf("slload: %s profile (%d tuples, %d users) → %s%s at %.1f rps (%s arrivals) for %s\n",
		*f.profile, corpus.Size(), corpus.NumUsers(), *f.base, request(0).Path, *f.rps, *f.arrivals, *f.duration)
	sum, _, captured := execute(f, tr, replay.Config{}, "slload")
	exit := 0
	if sum.Errors() > 0 || !captured {
		exit = 1
	}
	if *f.expect429 && sum.Exhausted == 0 {
		fmt.Fprintln(os.Stderr, "slload: -expect-429 set but the budget never exhausted")
		exit = 1
	}
	return exit
}

// liveRequest returns the builder of the i-th timed record for endpoint
// (sanitize, lambda, stats or corpus); i rotates the seed over -distinct
// values.
func liveRequest(f *flags, endpoint string, tsv []byte) (func(i int) replay.Record, error) {
	expect := "2xx"
	if *f.expect429 {
		expect = "2xx,429"
	}
	support := *f.objective == "frequent" || *f.objective == "combined"
	seed := func(i int) int { return i%*f.distinct + 1 }
	switch endpoint {
	case "sanitize":
		return func(i int) replay.Record {
			q := replay.SanitizeQuery(*f.eexp, *f.delta, *f.objective, seed(i))
			if *f.solver != "" {
				q.Set("solver", *f.solver)
			}
			if support {
				q.Set("support", fmt.Sprint(*f.support))
			}
			return replay.Record{
				Class:       "sanitize",
				Method:      "POST",
				Path:        "/v1/sanitize?" + q.Encode(),
				ContentType: "text/tab-separated-values",
				BodyRef:     "corpus",
				Expect:      expect,
			}
		}, nil
	case "lambda":
		env, err := loadgen.LambdaEnvelope(*f.eexp, *f.delta, tsv)
		if err != nil {
			return nil, err
		}
		body := string(env)
		return func(int) replay.Record {
			return replay.Record{
				Class:       "lambda",
				Method:      "POST",
				Path:        "/v1/lambda",
				ContentType: "application/json",
				Body:        body,
				Expect:      expect,
			}
		}, nil
	case "stats":
		return func(int) replay.Record {
			return replay.Record{
				Class:       "stats",
				Method:      "POST",
				Path:        "/v1/stats",
				ContentType: "text/tab-separated-values",
				BodyRef:     "corpus",
				Expect:      expect,
			}
		}, nil
	case "corpus":
		obj, err := dpslog.ParseObjective(*f.objective)
		if err != nil {
			return nil, err
		}
		opts := dpslog.Options{Epsilon: math.Log(*f.eexp), Delta: *f.delta, Objective: obj, Solver: *f.solver}
		if support {
			opts.MinSupport = *f.support
		}
		return func(i int) replay.Record {
			opts := opts
			opts.Seed = uint64(seed(i))
			return replay.Record{
				Class:       "corpus",
				Method:      "POST",
				Path:        "/v1/corpora/" + *f.corpusName + "/sanitize",
				ContentType: "application/json",
				Body:        replay.ReleaseBody(opts),
				Expect:      expect,
			}
		}, nil
	}
	return nil, fmt.Errorf("unknown endpoint %q", endpoint)
}

// arrivalOffsets lists the live run's arrival offsets up to d: every
// 1/rps with the first one period in (uniform), or exponential gaps at
// rate rps drawn deterministically from seed (poisson).
func arrivalOffsets(process string, rps float64, d time.Duration, seed uint64) []time.Duration {
	gap := func() time.Duration { return time.Duration(float64(time.Second) / rps) }
	if process == "poisson" {
		g := rng.New(seed)
		gap = func() time.Duration { return time.Duration(-math.Log(1-g.Float64()) / rps * float64(time.Second)) }
	}
	var offsets []time.Duration
	for t := gap(); t <= d; t += gap() {
		offsets = append(offsets, t)
	}
	return offsets
}
