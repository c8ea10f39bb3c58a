package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dpslog"
	"dpslog/internal/dp"
	"dpslog/internal/ledger"
	"dpslog/internal/mechanism"
	"dpslog/internal/partition"
	"dpslog/internal/rng"
	"dpslog/internal/sampling"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// stack is the traced run's in-process replica of slserve's stateful
// path: the same corpus store, ledger, shared component cache and plan
// cache, driven in the order the server's handlers and mechanism.RunUMP
// call them, with every layer call timed from outside.
type stack struct {
	*corpora
	payloads map[string][]byte
	t        *layerTimes
	ledger   *ledger.Ledger
	comp     *ump.ComponentCache
	// plans stands in for the server's plan cache: key → release digest.
	plans map[string]string
	ctx   context.Context
	// probeBodies times parsing and digesting each upload and append body,
	// for workloads whose requests the server never parses with ReadTSV.
	probeBodies bool
	// probeAppends times one append onto each released corpus, for
	// workloads that never append.
	probeAppends bool
	probes       *rng.RNG
	// warm-start hits and misses summed over every LP.
	warmHits, warmMisses int
}

// traceRun replays a run's requests in-process, in the order the server
// saw them, and returns the per-layer metrics. measuredFrom is the index of
// the first measured request in outs. Every release must reproduce the
// release_digest the server returned for the same request.
func traceRun(w *workload, outs []outcome, measuredFrom int, dir string) (map[string]float64, error) {
	t := newLayerTimes()
	c, err := newCorpora(filepath.Join(dir, "corpora"), outs, w.payloads, t)
	if err != nil {
		return nil, err
	}
	lg, err := ledger.Open(filepath.Join(dir, "ledger.journal"), serverBudget())
	if err != nil {
		return nil, err
	}
	defer lg.Close()
	st := &stack{
		corpora:     c,
		payloads:    w.payloads,
		t:           t,
		ledger:      lg,
		comp:        ump.NewComponentCache(4096), // slserve's default -comp-cache size
		plans:       make(map[string]string),
		ctx:         context.Background(),
		probeBodies: !w.openLoop(),
		probes:      rng.New(1),
	}
	st.probeAppends = true
	for _, rec := range w.allRecords() {
		if _, action := corpusRoute(rec.Path); action == "append" {
			st.probeAppends = false
		}
	}

	for i := range outs {
		o := &outs[i]
		t.inOp = 0
		got, err := st.do(o)
		if err != nil {
			return nil, fmt.Errorf("traced %s %s (%s): %w", o.rec.Method, o.rec.Path, o.rec.Class, err)
		}
		if want := releaseDigestOf(o); want != "" && want != got {
			return nil, fmt.Errorf("traced %s %s (%s): release digest %.12s, server returned %.12s",
				o.rec.Method, o.rec.Path, o.rec.Class, got, want)
		}
		if i >= measuredFrom {
			t.add("server.other_ms", ms(o.serviceTime()-t.inOp))
		}
		if name, action := corpusRoute(o.rec.Path); st.probeAppends && action == "sanitize" && i >= measuredFrom {
			if err := st.probeAppend(name); err != nil {
				return nil, err
			}
		}
	}
	if n := c.unapplied(); n > 0 {
		return nil, fmt.Errorf("traced run left %d server appends unapplied", n)
	}
	return st.metrics(outs[measuredFrom:]), nil
}

// releaseDigestOf is the release_digest of a 200 sanitize response ("" for
// any other response).
func releaseDigestOf(o *outcome) string {
	if o.status != http.StatusOK || !isSanitize(o.rec.Path) {
		return ""
	}
	var resp releaseResponse
	if json.Unmarshal(o.body, &resp) != nil {
		return ""
	}
	return resp.ReleaseDigest
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// do routes one request to the layers its server handler runs and returns
// the release digest it produced, if any.
func (st *stack) do(o *outcome) (string, error) {
	name, action := corpusRoute(o.rec.Path)
	body, err := bodyOf(o.rec, st.payloads)
	if err != nil {
		return "", err
	}
	path, rawQuery, _ := strings.Cut(o.rec.Path, "?")
	switch {
	case name != "" && action == "" && o.rec.Method == http.MethodPut:
		st.probeBody(body)
		return "", st.put(name, body)
	case action == "append":
		st.probeBody(body)
		_, err := st.appendNext(name)
		return "", err
	case action == "sanitize":
		return st.corpusRelease(name, body, o)
	case path == "/v1/sanitize" || path == "/v1/jobs":
		q, err := url.ParseQuery(rawQuery)
		if err != nil {
			return "", err
		}
		return st.statelessRelease(body, q)
	case path == "/v1/stats":
		l, _, err := st.parse(body)
		if err != nil {
			return "", err
		}
		st.t.time("searchlog.preprocess_ms", func() { searchlog.Preprocess(l) })
		return "", nil
	}
	return "", nil // probes without a layer of their own (budget reads)
}

// parse runs the stateless handlers' body decoding: ReadTSV, then Digest.
func (st *stack) parse(body []byte) (*searchlog.Log, string, error) {
	var (
		l   *searchlog.Log
		err error
	)
	st.t.time("searchlog.parse_ms", func() { l, err = searchlog.ReadTSV(bytes.NewReader(body)) })
	if err != nil {
		return nil, "", err
	}
	var digest string
	st.t.time("searchlog.digest_ms", func() { digest = dpslog.Digest(l) })
	return l, digest, nil
}

// probeBody times parsing and digesting an upload body the server itself
// only streams through ingest.
func (st *stack) probeBody(body []byte) {
	if !st.probeBodies {
		return
	}
	var l *searchlog.Log
	st.t.probe("searchlog.parse_ms", func() { l, _ = searchlog.ReadTSV(bytes.NewReader(body)) })
	if l != nil {
		st.t.probe("searchlog.digest_ms", func() { dpslog.Digest(l) })
	}
}

// probeAppend times appending a 1% delta onto a corpus that was just
// released, then drops the corpus to bound memory.
func (st *stack) probeAppend(name string) error {
	l, _, err := st.store.Get(name)
	if err != nil {
		return err
	}
	pre, _ := searchlog.Preprocess(l)
	delta, err := searchlog.ReadTSV(bytes.NewReader(deltaBody(pre, max(l.NumTriplets()/100, 1), st.probes)))
	if err != nil {
		return err
	}
	st.t.probe("corpus.append_ms", func() { _, _, _, err = st.store.Append(name, delta) })
	if err != nil {
		return err
	}
	return st.store.Delete(name)
}

// statelessRelease is POST /v1/sanitize (and the job a POST /v1/jobs
// queues): decode, digest, then the plan-cached release.
func (st *stack) statelessRelease(body []byte, q url.Values) (string, error) {
	l, digest, err := st.parse(body)
	if err != nil {
		return "", err
	}
	opts, err := optionsFromQuery(q)
	if err != nil {
		return "", err
	}
	m, err := mechanism.Get(opts.Mechanism)
	if err != nil {
		return "", err
	}
	return st.release(l, digest, opts, m)
}

// corpusRelease is POST /v1/corpora/{name}/sanitize: resolve the version,
// pre-check the ledger, release, charge. The version is the one the server
// reported computing from; a refused request resolves the latest.
func (st *stack) corpusRelease(name string, body []byte, o *outcome) (string, error) {
	var req struct {
		Options mechanism.Options `json:"options"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "", err
	}
	opts := req.Options
	m, err := mechanism.Get(opts.Mechanism)
	if err != nil {
		return "", err
	}
	var resp releaseResponse
	if o.status == http.StatusOK {
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return "", err
		}
	}
	l, digest, err := st.version(name, resp.Version)
	if err != nil {
		return "", err
	}
	key := planKey(digest, opts)
	cost := m.Cost(opts)
	st.t.time("ledger.check_ms", func() { err = st.ledger.CheckCtx(st.ctx, digest, key, cost.Epsilon, cost.Delta) })
	var over *ledger.OverBudgetError
	switch refused := errors.As(err, &over); {
	case refused && o.status == http.StatusTooManyRequests:
		return "", nil
	case refused:
		return "", fmt.Errorf("in-process ledger refused a release the server made: %w", err)
	case err != nil:
		return "", err
	case o.status == http.StatusTooManyRequests:
		return "", errors.New("server refused a release the in-process ledger admits")
	}
	rd, err := st.release(l, digest, opts, m)
	if err != nil {
		return "", err
	}
	st.t.time("ledger.charge_ms", func() {
		_, _, err = st.ledger.ChargeCtx(st.ctx, name, digest, key, m.Name(), cost.Epsilon, cost.Delta)
	})
	return rd, err
}

// release serves a plan-cache hit or runs the mechanism, as the server's
// runSanitize does at its default solve parallelism of 1.
func (st *stack) release(l *searchlog.Log, digest string, opts mechanism.Options, m mechanism.Mechanism) (string, error) {
	if opts.Seed == 0 {
		return "", errors.New("release without an explicit seed")
	}
	opts.Parallelism = 1
	key := planKey(digest, opts)
	if rd, ok := st.plans[key]; ok {
		return rd, nil
	}
	var rd string
	if m.Name() == "ump" {
		var err error
		if rd, err = st.ump(l, opts); err != nil {
			return "", err
		}
	} else {
		rel, err := m.Sanitize(st.ctx, l, opts)
		if err != nil {
			return "", err
		}
		rd = rel.Digest()
	}
	st.plans[key] = rd
	return rd, nil
}

// ump is mechanism.RunUMP's O-UMP path with every stage timed. The
// decomposition MaxOutputSize runs internally is timed by a second,
// separate Decompose call; ump.solve_ms is MaxOutputSize's wall time minus
// that.
func (st *stack) ump(l *searchlog.Log, opts mechanism.Options) (string, error) {
	if opts.Objective != mechanism.ObjectiveOutputSize || opts.EndToEnd {
		return "", fmt.Errorf("the traced run replays O-UMP releases only, got %v", opts.Objective)
	}
	params := dp.Params{Eps: opts.Epsilon, Delta: opts.Delta}
	var pre *searchlog.Log
	st.t.time("searchlog.preprocess_ms", func() { pre, _ = searchlog.Preprocess(l) })
	var comps []partition.Component
	dec := st.t.probe("partition.decompose_ms", func() { comps = partition.Decompose(pre) })
	st.t.add("partition.components", float64(len(comps)))

	var (
		plan *ump.Plan
		err  error
	)
	start := time.Now()
	plan, err = ump.MaxOutputSize(pre, params, ump.Options{
		Parallelism: opts.Parallelism,
		Comp:        st.comp,
		Warm:        ump.NewWarmStarts(false), // the server's per-key pool, empty on a plan-cache miss
	})
	wall := time.Since(start)
	st.t.inOp += wall
	if err != nil {
		return "", err
	}
	st.t.add("ump.solve_ms", ms(wall-dec))
	st.t.add("ump.reused_ratio", float64(plan.Reused)/float64(max(plan.Components, 1)))
	st.t.add("lp.solves", float64(plan.Stats.LPSolves))
	st.t.add("lp.iterations", float64(plan.Iterations))
	st.t.add("lp.refactorizations", float64(plan.Stats.Refactorizations))
	st.warmHits += plan.Stats.WarmHits
	st.warmMisses += plan.Stats.WarmMisses

	st.t.time("dp.audit_ms", func() { err = dp.VerifyLog(pre, params, plan.Counts) })
	if err != nil {
		return "", err
	}
	var out *searchlog.Log
	st.t.time("sampling.output_ms", func() { out, err = sampling.Output(rng.New(opts.Seed), pre, plan.Counts) })
	if err != nil {
		return "", err
	}
	return out.Digest(), nil
}

// planKey is the server's plan-cache and ledger identity of a release:
// corpus digest ⊕ canonical options.
func planKey(digest string, opts mechanism.Options) string {
	canon, err := json.Marshal(opts.Canonical())
	if err != nil {
		return digest
	}
	return digest + "\x00" + string(canon)
}

// optionsFromQuery decodes the query-string options the workloads send
// with TSV bodies (mechanism, eexp or epsilon, delta, objective, seed).
func optionsFromQuery(q url.Values) (mechanism.Options, error) {
	opts := mechanism.Options{Mechanism: q.Get("mechanism")}
	num := func(name string) (float64, error) {
		if v := q.Get(name); v != "" {
			return strconv.ParseFloat(v, 64)
		}
		return 0, nil
	}
	var err error
	if opts.Epsilon, err = num("epsilon"); err != nil {
		return opts, err
	}
	eexp, err := num("eexp")
	if err != nil {
		return opts, err
	}
	if eexp != 0 {
		opts.Epsilon = math.Log(eexp)
	}
	if opts.Delta, err = num("delta"); err != nil {
		return opts, err
	}
	if opts.Objective, err = mechanism.ParseObjective(q.Get("objective")); err != nil {
		return opts, err
	}
	if v := q.Get("seed"); v != "" {
		if opts.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return opts, err
		}
	}
	return opts, nil
}
