package server

// An appended version's release preprocesses and decomposes by carrying its
// parent's prepared state forward (searchlog's carry). These tests pin that
// the carried release is the release a restarted server derives from
// scratch, and that concurrent first releases of a carried version agree.

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"dpslog"
	"dpslog/internal/obs"
	"dpslog/internal/searchlog"
)

// findSpan returns the first span named name in the tree, depth first.
func findSpan(s *obs.SpanJSON, name string) *obs.SpanJSON {
	if s == nil || s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// carriedChain uploads tiny-sharded as corpus c, appends a new component
// (v2), releases v2, which prepares its state from scratch, and appends one
// click to an existing cell of one component (v3), whose release then
// carries v2's state. It returns v2's release.
func carriedChain(t *testing.T, e *testEnv) corpusSanitizeResponse {
	t.Helper()
	corpus, err := dpslog.Generate("tiny-sharded", 1)
	if err != nil {
		t.Fatal(err)
	}
	var tsv bytes.Buffer
	if _, err := dpslog.WriteTSV(&tsv, corpus); err != nil {
		t.Fatal(err)
	}
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", tsv.Bytes()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	if resp, raw := e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", appendDelta); resp.StatusCode != http.StatusOK {
		t.Fatalf("append v2: %d %s", resp.StatusCode, raw)
	}
	resp, raw := e.post(t, "/v1/corpora/c/sanitize?debug=trace", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 release: %d %s", resp.StatusCode, raw)
	}
	v2 := decode[corpusSanitizeResponse](t, raw)
	if sp := findSpan(v2.Trace, "preprocess"); sp == nil || sp.Attrs["carried"] != false {
		t.Fatalf("v2 preprocess span %+v, want carried=false", sp)
	}
	pre, _ := searchlog.Preprocess(corpus)
	p := pre.Pair(0)
	cell := fmt.Sprintf("%s\t%s\t%s\t1\n", pre.User(p.Entries[0].User).ID, p.Query, p.URL)
	if resp, raw := e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", []byte(cell)); resp.StatusCode != http.StatusOK {
		t.Fatalf("append v3: %d %s", resp.StatusCode, raw)
	}
	return v2
}

// TestCarriedReleaseMatchesRestart: a release of a carried version has the
// release_digest the same release gets after the store is reopened, where
// every version is built from disk and prepared from scratch.
func TestCarriedReleaseMatchesRestart(t *testing.T) {
	dir := t.TempDir()
	e := newTestEnv(t, Config{DataDir: dir, Budget: budgetFor(8)})
	v2 := carriedChain(t, e)
	resp, raw := e.post(t, "/v1/corpora/c/sanitize?debug=trace", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v3 release: %d %s", resp.StatusCode, raw)
	}
	v3 := decode[corpusSanitizeResponse](t, raw)
	if sp := findSpan(v3.Trace, "preprocess"); sp == nil || sp.Attrs["carried"] != true {
		t.Fatalf("v3 preprocess span %+v, want carried=true", sp)
	}
	sp := findSpan(v3.Trace, "partition.decompose")
	if sp == nil || sp.Attrs["carried_components"] != float64(v3.Plan.Components-1) || v3.Plan.Components < 3 {
		t.Fatalf("v3 decompose span %+v over %d components, want all but the touched one carried", sp, v3.Plan.Components)
	}
	e.ts.Close()
	e.srv.Close()

	e2 := newTestEnv(t, Config{DataDir: dir, Budget: budgetFor(8)})
	for _, tc := range []struct {
		name, query string
		want        corpusSanitizeResponse
	}{{"v3", "", v3}, {"v2", "?version=" + v2.Version, v2}} {
		resp, raw := e2.post(t, "/v1/corpora/c/sanitize"+tc.query, "application/json", sanitizeBody(1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s after restart: %d %s", tc.name, resp.StatusCode, raw)
		}
		got := decode[corpusSanitizeResponse](t, raw)
		if got.Version != tc.want.Version || got.ReleaseDigest != tc.want.ReleaseDigest || got.Release.Seq != tc.want.Release.Seq {
			t.Fatalf("%s after restart: version %s release %s seq %d; before: %s %s %d", tc.name,
				got.Version, got.ReleaseDigest, got.Release.Seq, tc.want.Version, tc.want.ReleaseDigest, tc.want.Release.Seq)
		}
	}
	if _, m := e2.get(t, "/metrics"); !bytes.Contains(m, []byte("\nslserve_rederive_mismatch_total 0\n")) {
		t.Fatalf("metrics report a mismatch:\n%s", m)
	}
}

// TestConcurrentFirstReleasesOfCarriedVersion races eight first releases
// of a carried version: the prepared state is built once, and all clients
// get one release, journaled once. Run with -race.
func TestConcurrentFirstReleasesOfCarriedVersion(t *testing.T) {
	e := newTestEnv(t, Config{Workers: 4, Queue: 64, DataDir: t.TempDir(), Budget: budgetFor(2)})
	carriedChain(t, e)
	raceFirstReleases(t, e, 2)
}
