package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"dpslog"
)

// shardedTSV renders a multi-market corpus whose user–pair graph decomposes.
func shardedTSV(t *testing.T) []byte {
	t.Helper()
	corpus, err := dpslog.Generate("tiny-sharded", 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := dpslog.WriteTSV(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSanitizeReportsComponents checks the components wire field and its
// /metrics histogram, and that the parallelism query parameter is accepted
// without changing the release.
func TestSanitizeReportsComponents(t *testing.T) {
	e := newTestEnv(t, Config{})
	tsv := shardedTSV(t)

	resp, raw := e.post(t, "/v1/sanitize?eexp=2&delta=0.5&seed=5", "text/tab-separated-values", tsv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[sanitizeResponse](t, raw)
	if out.Plan.Components != 4 {
		t.Fatalf("components = %d, want 4", out.Plan.Components)
	}

	// Same corpus, explicit parallelism: the re-derived release is identical
	// (plans are invariant in parallelism).
	resp, raw = e.post(t, "/v1/sanitize?eexp=2&delta=0.5&seed=5&parallelism=4", "text/tab-separated-values", tsv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	par := decode[sanitizeResponse](t, raw)
	if par.ReleaseDigest != out.ReleaseDigest {
		t.Fatalf("release digest %s under explicit parallelism, want %s", par.ReleaseDigest, out.ReleaseDigest)
	}
	allReused(t, "parallelism variant", par)
	if par.Plan.OutputSize != out.Plan.OutputSize || par.Plan.Objective != out.Plan.Objective {
		t.Fatalf("plan differs under explicit parallelism: %+v vs %+v", par.Plan, out.Plan)
	}

	_, metrics := e.get(t, "/metrics")
	text := string(metrics)
	// Both requests solved: the histogram holds two 4-component solves.
	if !strings.Contains(text, "slserve_solve_components_count 2") {
		t.Fatalf("metrics missing solve-components histogram:\n%s", text)
	}
	if !strings.Contains(text, `slserve_solve_components_bucket{le="4"} 2`) {
		t.Fatalf("component count not bucketed at 4:\n%s", text)
	}
	if !strings.Contains(text, `slserve_solve_components_bucket{le="2"} 0`) {
		t.Fatalf("component histogram miscounted the le=2 bucket:\n%s", text)
	}
}

func TestSanitizeBadParallelismParam(t *testing.T) {
	e := newTestEnv(t, Config{})
	resp, _ := e.post(t, "/v1/sanitize?eexp=2&delta=0.5&parallelism=nope", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	resp, _ = e.post(t, "/v1/sanitize?eexp=2&delta=0.5&parallelism=-2", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative parallelism: status %d, want 400", resp.StatusCode)
	}
}
