package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"dpslog"
	"dpslog/internal/ledger"
)

// mechCase is one registered mechanism with wire-valid options for both
// sanitize endpoints, plus the (ε, δ) cost the mechanism declares for them.
type mechCase struct {
	name      string
	query     string // /v1/sanitize query string, %d for the seed
	body      []byte // /v1/corpora/{name}/sanitize JSON options
	costEps   float64
	costDelta float64
}

// mechanismCases builds the matrix from the registry, failing the test on
// any registered mechanism it has no case for: registering a fourth
// mechanism must force this file to cover it.
func mechanismCases(t *testing.T) []mechCase {
	t.Helper()
	ln2 := math.Log(2)
	var cases []mechCase
	for _, name := range dpslog.Mechanisms() {
		switch name {
		case "ump":
			cases = append(cases, mechCase{
				name:      "ump",
				query:     "eexp=2&delta=0.25&seed=%d",
				body:      fmt.Appendf(nil, `{"options":{"epsilon":%g,"delta":0.25,"seed":1}}`, ln2),
				costEps:   ln2,
				costDelta: 0.25,
			})
		case "laplace":
			cases = append(cases, mechCase{
				name:      "laplace",
				query:     "mechanism=laplace&eexp=2&delta=0.001&d=5&seed=%d",
				body:      fmt.Appendf(nil, `{"options":{"mechanism":"laplace","epsilon":%g,"delta":0.001,"d":5,"seed":1}}`, ln2),
				costEps:   ln2,
				costDelta: 0.001,
			})
		case "zealous":
			cases = append(cases, mechCase{
				name:      "zealous",
				query:     "mechanism=zealous&eexp=2&delta=0.25&d=5&seed=%d",
				body:      fmt.Appendf(nil, `{"options":{"mechanism":"zealous","epsilon":%g,"delta":0.25,"d":5,"seed":1}}`, ln2),
				costEps:   ln2,
				costDelta: 0.25,
			})
		default:
			t.Fatalf("registered mechanism %q has no wire case in this matrix; add one", name)
		}
	}
	return cases
}

// TestSanitizeMechanismMatrix drives every registered mechanism through
// the stateless endpoint: two identical requests each derive their release
// and must agree on the release digest (seeded determinism), and the
// response shape must match the mechanism family (records for ump, pair
// rows for aggregates).
func TestSanitizeMechanismMatrix(t *testing.T) {
	e := newTestEnv(t, Config{})
	for _, mc := range mechanismCases(t) {
		path := "/v1/sanitize?" + fmt.Sprintf(mc.query, 3)
		resp, raw := e.post(t, path, "text/tab-separated-values", e.tsv)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", mc.name, resp.StatusCode, raw)
		}
		first := decode[sanitizeResponse](t, raw)
		if first.Mechanism != mc.name {
			t.Errorf("%s: response mechanism %q", mc.name, first.Mechanism)
		}
		if first.ReleaseDigest == "" {
			t.Errorf("%s: missing release digest", mc.name)
		}
		if mc.name == "ump" {
			if len(first.Records) == 0 || len(first.Pairs) != 0 {
				t.Errorf("ump: want records and no pair rows, got %d/%d", len(first.Records), len(first.Pairs))
			}
		} else if len(first.Records) != 0 {
			t.Errorf("%s: aggregate release carries %d per-user records", mc.name, len(first.Records))
		}

		resp, raw = e.post(t, path, "text/tab-separated-values", e.tsv)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: repeat status %d: %s", mc.name, resp.StatusCode, raw)
		}
		again := decode[sanitizeResponse](t, raw)
		if again.ReleaseDigest != first.ReleaseDigest {
			t.Errorf("%s: same seed, release digest %s != %s", mc.name, again.ReleaseDigest, first.ReleaseDigest)
		}
	}
}

// TestCorpusMechanismChargesAndReplaysAcrossRestart is the ledger matrix:
// every mechanism is charged exactly its declared (ε, δ) against one
// shared corpus budget, the budget exhausts after all three, and after a
// restart on the same data dir each journaled (mechanism, seed) identity
// replays free with an identical release and release digest.
func TestCorpusMechanismChargesAndReplaysAcrossRestart(t *testing.T) {
	cases := mechanismCases(t)
	dir := t.TempDir()
	// Exactly the matrix's ε spend: Σε = 3·ln 2, Σδ = 0.501 ≤ 0.75.
	cfg := Config{DataDir: dir, Budget: budgetFor(len(cases))}
	e := newTestEnv(t, cfg)
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/m", "text/tab-separated-values", e.tsv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}

	first := map[string]corpusSanitizeResponse{}
	for i, mc := range cases {
		resp, raw := e.post(t, "/v1/corpora/m/sanitize", "application/json", mc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", mc.name, resp.StatusCode, raw)
		}
		rel := decode[corpusSanitizeResponse](t, raw)
		if rel.Release.Mechanism != mc.name {
			t.Errorf("%s: ledger recorded mechanism %q", mc.name, rel.Release.Mechanism)
		}
		if rel.Release.Epsilon != mc.costEps || rel.Release.Delta != mc.costDelta {
			t.Errorf("%s: charged (%g, %g), declared cost (%g, %g)",
				mc.name, rel.Release.Epsilon, rel.Release.Delta, mc.costEps, mc.costDelta)
		}
		if rel.Budget.Releases != i+1 {
			t.Errorf("%s: ledger counts %d releases, want %d", mc.name, rel.Budget.Releases, i+1)
		}
		if rel.ReleaseDigest == "" {
			t.Errorf("%s: missing release digest", mc.name)
		}
		first[mc.name] = rel
	}

	// The matrix spent the whole ε budget; a fresh ump seed must be refused.
	resp, raw := e.post(t, "/v1/corpora/m/sanitize", "application/json", sanitizeBody(9))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-matrix fresh release: %d %s", resp.StatusCode, raw)
	}

	e.ts.Close()
	e.srv.Close()

	// Restart on the same data dir: every journaled (mechanism, seed)
	// identity replays free, with the recorded release and the same
	// deterministic release digest.
	re := newTestEnv(t, cfg)
	for _, mc := range cases {
		resp, raw := re.post(t, "/v1/corpora/m/sanitize", "application/json", mc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: post-restart replay %d: %s", mc.name, resp.StatusCode, raw)
		}
		rel := decode[corpusSanitizeResponse](t, raw)
		if rel.Release != first[mc.name].Release {
			t.Errorf("%s: replayed release diverged:\n%+v\n%+v", mc.name, rel.Release, first[mc.name].Release)
		}
		if rel.Budget.Releases != len(cases) {
			t.Errorf("%s: replay re-charged, %d releases", mc.name, rel.Budget.Releases)
		}
		if rel.ReleaseDigest != first[mc.name].ReleaseDigest {
			t.Errorf("%s: release digest drifted across restart: %s != %s",
				mc.name, rel.ReleaseDigest, first[mc.name].ReleaseDigest)
		}
	}
	// Still exhausted for anything new — including a new aggregate seed.
	body := []byte(`{"options":{"mechanism":"zealous","epsilon":0.6931471805599453,"delta":0.25,"d":5,"seed":2}}`)
	if resp, _ := re.post(t, "/v1/corpora/m/sanitize", "application/json", body); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-restart fresh zealous seed: %d", resp.StatusCode)
	}
}

// TestSanitizeMechanismRejections covers the structured 400s: an unknown
// mechanism name, and a registered mechanism outside the deployment's
// -mechanisms allowlist, on all three sanitize surfaces.
func TestSanitizeMechanismRejections(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir(), Mechanisms: []string{"ump", "laplace"}})
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	check := func(label, path, contentType string, body []byte, wantHint string) {
		t.Helper()
		resp, raw := e.post(t, path, contentType, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", label, resp.StatusCode, raw)
		}
		if apiErr := decode[apiError](t, raw); !strings.Contains(apiErr.Error, wantHint) {
			t.Errorf("%s: error %q missing %q", label, apiErr.Error, wantHint)
		}
	}
	check("unknown on /v1/sanitize", "/v1/sanitize?mechanism=nosuch&eexp=2&delta=0.25", "text/tab-separated-values", e.tsv, "nosuch")
	check("unknown on /v1/jobs", "/v1/jobs?mechanism=nosuch&eexp=2&delta=0.25", "text/tab-separated-values", e.tsv, "nosuch")
	check("unknown on corpus sanitize", "/v1/corpora/c/sanitize", "application/json",
		[]byte(`{"options":{"mechanism":"nosuch","epsilon":0.7,"delta":0.25}}`), "nosuch")
	check("disabled on /v1/sanitize", "/v1/sanitize?mechanism=zealous&eexp=2&delta=0.25&d=5", "text/tab-separated-values", e.tsv, "disabled")
	check("disabled on corpus sanitize", "/v1/corpora/c/sanitize", "application/json",
		[]byte(`{"options":{"mechanism":"zealous","epsilon":0.7,"delta":0.25,"seed":1}}`), "disabled")

	// Allowlisted mechanisms still serve.
	if resp, raw := e.post(t, "/v1/sanitize?mechanism=laplace&eexp=2&delta=0.001&d=5&seed=1", "text/tab-separated-values", e.tsv); resp.StatusCode != http.StatusOK {
		t.Fatalf("allowlisted laplace: %d %s", resp.StatusCode, raw)
	}
}

// TestRetiredMechanismJournalStillCounts: a journal written while the
// localdp mechanism was registered replays with its spend, because the
// ledger may over-count but never under-count. A repeat of that release's
// key names a mechanism that no longer exists, so it is a 400 listing the
// valid ones, charges nothing and adds no journal line.
func TestRetiredMechanismJournalStillCounts(t *testing.T) {
	ln2 := math.Log(2)
	cfg, first, journal := journaledRelease(t, func(j []byte, rel corpusSanitizeResponse) []byte {
		line, err := json.Marshal(dpslog.Release{
			Seq:           2,
			Corpus:        "c",
			Digest:        rel.Release.Digest,
			Key:           rel.Release.Digest + "\x00" + fmt.Sprintf(`{"mechanism":"localdp","epsilon":%v,"delta":0,"seed":1,"d":1}`, ln2),
			Mechanism:     "localdp",
			ReleaseDigest: strings.Repeat("ab", 32),
			Epsilon:       ln2,
			Time:          rel.Release.Time,
		})
		if err != nil {
			t.Fatal(err)
		}
		return append(append(j, line...), '\n')
	})
	re := newTestEnv(t, cfg)
	type budgetResp struct {
		Budget ledger.Status `json:"budget"`
	}
	want := first.Budget
	want.Releases++
	want.Spent.Epsilon += ln2
	_, raw := re.get(t, "/v1/corpora/c/budget")
	if got := decode[budgetResp](t, raw).Budget; got.Releases != want.Releases ||
		math.Abs(got.Spent.Epsilon-want.Spent.Epsilon) > 1e-12 || got.Spent.Delta != want.Spent.Delta {
		t.Fatalf("budget after replay %+v, want %+v", got, want)
	}

	resp, raw := re.post(t, "/v1/corpora/c/sanitize", "application/json",
		fmt.Appendf(nil, `{"options":{"mechanism":"localdp","epsilon":%v,"seed":1}}`, ln2))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("retired mechanism repeat: status %d: %s", resp.StatusCode, raw)
	}
	if msg := decode[apiError](t, raw).Error; !strings.Contains(msg, "localdp") || !strings.Contains(msg, strings.Join(dpslog.Mechanisms(), ", ")) {
		t.Errorf("error %q does not name localdp and the valid mechanisms", msg)
	}
	_, raw = re.get(t, "/v1/corpora/c/budget")
	if got := decode[budgetResp](t, raw).Budget; got.Releases != want.Releases {
		t.Fatalf("rejected repeat was charged: %+v", got)
	}
	journalUnchanged(t, cfg.DataDir, journal)
}

// TestAblationOptionRejected: the box-constraint ablation is not a request
// option, so a release asking for it is a 400 bad_request on both sanitize
// endpoints and the corpus budget is never charged.
func TestAblationOptionRejected(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir()})
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	opts := `{"epsilon":0.7,"delta":0.25,"seed":1,"no_box_constraint":true}`
	for _, req := range []struct{ path, body string }{
		{"/v1/corpora/c/sanitize", `{"options":` + opts + `}`},
		{"/v1/sanitize", fmt.Sprintf(`{"options":%s,"tsv":%q}`, opts, e.tsv)},
	} {
		resp, raw := e.post(t, req.path, "application/json", []byte(req.body))
		env := decode[apiError](t, raw)
		if resp.StatusCode != http.StatusBadRequest || env.Code != "bad_request" || !strings.Contains(env.Error, "no_box_constraint") {
			t.Fatalf("%s: status %d envelope %+v", req.path, resp.StatusCode, env)
		}
	}
	_, raw := e.get(t, "/v1/corpora/c/budget")
	type budgetResp struct {
		Budget ledger.Status `json:"budget"`
	}
	if b := decode[budgetResp](t, raw).Budget; b.Releases != 0 || b.Spent.Epsilon != 0 || b.Spent.Delta != 0 {
		t.Fatalf("rejected release was charged: %+v", b)
	}
}
