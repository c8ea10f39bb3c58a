package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"

	"dpslog/internal/dp"
	"dpslog/internal/searchlog"
)

// releaseParams are the (ε, δ) every UMP release of the workloads uses.
var releaseParams = dp.Params{Eps: math.Log(releaseEExp), Delta: releaseDelta}

// check verifies a run's outputs outside timing. Every request must have
// got its expected status (2xx, or 429 for the storm). Every fresh UMP
// release is audited with dp.VerifyLog against the corpus version the
// server says it computed from — rebuilt in-process under dir from the same
// uploads and appends, with the server's version digests checked on the
// way — and the plan.counts the response returned. On append-chain every
// release must reuse all components but the one its append touched.
func check(w *workload, outs []outcome, dir string) error {
	c, err := newCorpora(dir, outs, w.payloads, nil)
	if err != nil {
		return err
	}
	// Audits run beside the sequential version rebuild, on the other cores.
	audits := make(chan auditJob)
	errs := make(chan error, len(outs)) // one audit error per request at most: sends never block
	var wg sync.WaitGroup
	for range max(runtime.NumCPU()-1, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range audits {
				if err := audit(j.log, j.resp); err != nil {
					errs <- fmt.Errorf("%s: %w", j.what, err)
				}
			}
		}()
	}
	err = func() error {
		for i := range outs {
			o := &outs[i]
			what := fmt.Sprintf("%s %s (%s)", o.rec.Method, o.rec.Path, o.rec.Class)
			if !o.ok() {
				return fmt.Errorf("%s: status %d, want %s: %v %s", what, o.status, cmp.Or(o.rec.Expect, "2xx"), o.err, o.body)
			}
			j, err := checkOne(w, c, o)
			if err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			if j != nil {
				j.what = what
				audits <- *j
			}
		}
		if n := c.unapplied(); n > 0 {
			return fmt.Errorf("%d server appends were never replayed", n)
		}
		return nil
	}()
	close(audits)
	wg.Wait()
	close(errs)
	if err != nil {
		return err
	}
	return <-errs // nil when no audit failed
}

// auditJob is one fresh UMP release and the corpus version it was
// computed from.
type auditJob struct {
	log  *searchlog.Log
	resp *releaseResponse
	what string
}

// isSanitize reports whether a request path is one of the synchronous
// sanitize endpoints, whose 200 responses carry a release.
func isSanitize(path string) bool {
	path, _, _ = strings.Cut(path, "?")
	return strings.HasSuffix(path, "/sanitize")
}

// checkOne replays one request into the corpus mirror and returns the
// audit its response needs, if any.
func checkOne(w *workload, c *corpora, o *outcome) (*auditJob, error) {
	name, action := corpusRoute(o.rec.Path)
	body, err := bodyOf(o.rec, w.payloads)
	if err != nil {
		return nil, err
	}
	switch {
	case name != "" && action == "" && o.rec.Method == http.MethodPut:
		return nil, c.put(name, body)
	case action == "append":
		_, err := c.appendNext(name)
		return nil, err
	case o.status != http.StatusOK || !isSanitize(o.rec.Path):
		return nil, nil
	}
	var resp releaseResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return nil, fmt.Errorf("decode release: %w", err)
	}
	if resp.Mechanism != "ump" || resp.Cached {
		return nil, nil
	}
	if w.reuseAllButOne && o.rec.Class == "release" && resp.Plan.ReusedComponents != resp.Plan.Components-1 {
		return nil, fmt.Errorf("reused %d of %d components, want all but the appended one",
			resp.Plan.ReusedComponents, resp.Plan.Components)
	}
	var l *searchlog.Log
	if name != "" {
		if l, _, err = c.version(name, resp.Version); err != nil {
			return nil, err
		}
	} else {
		if l, err = searchlog.ReadTSV(bytes.NewReader(body)); err != nil {
			return nil, err
		}
		if l.Digest() != resp.Digest {
			return nil, fmt.Errorf("server digested the body as %.12s, local digest %.12s", resp.Digest, l.Digest())
		}
	}
	return &auditJob{log: l, resp: &resp}, nil
}

// audit checks a UMP release's plan against Theorem 1 on the preprocessed
// corpus it was computed from.
func audit(l *searchlog.Log, resp *releaseResponse) error {
	pre, _ := searchlog.Preprocess(l)
	counts := resp.Plan.Counts
	if len(counts) != pre.NumPairs() {
		return fmt.Errorf("plan has %d counts for %d preprocessed pairs", len(counts), pre.NumPairs())
	}
	sum := 0
	for _, x := range counts {
		sum += x
	}
	if sum != resp.Plan.OutputSize {
		return fmt.Errorf("plan counts sum to %d, output_size says %d", sum, resp.Plan.OutputSize)
	}
	if err := dp.VerifyLog(pre, releaseParams, counts); err != nil {
		return fmt.Errorf("release fails the Theorem-1 audit: %w", err)
	}
	return nil
}
