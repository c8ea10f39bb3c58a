package server

// The continual-release API surface: POST append creating corpus
// versions, the versions endpoints, ?version= resolution on sanitize, one
// lineage budget shared by every version across appends and restarts, and
// the Content-Type negotiation of upload bodies.

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"dpslog/internal/ledger"
)

// appendDelta is a small TSV delta: one brand-new user pair plus extra
// count on a pair that may or may not exist in the base corpus — either
// way the fold strictly grows the mass, so the digest must change.
var appendDelta = []byte("newuserA\tnewquery\thttp://new.example\t3\nnewuserB\tnewquery\thttp://new.example\t2\n")

func TestCorpusAppendCreatesVersions(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir(), Budget: budgetFor(8)})

	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	base := decode[corpusMetaJSON](t, raw)

	// Append: a new immutable version with its own digest.
	resp, raw = e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", appendDelta)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, raw)
	}
	app := decode[corpusAppendResponse](t, raw)
	if app.Version.Seq != 2 || app.Version.Parent != base.Digest || app.Digest == base.Digest {
		t.Fatalf("append version %+v (base %s)", app.Version, base.Digest)
	}
	if app.TouchedUsers != 2 {
		t.Fatalf("touched users %d, want 2", app.TouchedUsers)
	}
	if app.Budget != base.Budget {
		t.Fatalf("append budget %+v, want the unspent lineage %+v", app.Budget, base.Budget)
	}

	// The corpus read now carries the chain, base first.
	_, raw = e.get(t, "/v1/corpora/c")
	meta := decode[corpusMetaJSON](t, raw)
	if len(meta.Versions) != 2 || meta.Versions[0].Digest != base.Digest || meta.Versions[1].Digest != app.Digest {
		t.Fatalf("versions[] %+v", meta.Versions)
	}
	if meta.Digest != app.Digest {
		t.Fatalf("latest digest %s, want %s", meta.Digest, app.Digest)
	}

	// The dedicated versions endpoints agree.
	resp, raw = e.get(t, "/v1/corpora/c/versions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versions list: %d %s", resp.StatusCode, raw)
	}
	type versionsResp struct {
		Latest   string `json:"latest"`
		Versions []struct {
			Digest string `json:"digest"`
			Seq    int    `json:"seq"`
		} `json:"versions"`
	}
	vl := decode[versionsResp](t, raw)
	if vl.Latest != app.Digest || len(vl.Versions) != 2 {
		t.Fatalf("versions list %+v", vl)
	}
	resp, raw = e.get(t, "/v1/corpora/c/versions/"+base.Digest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version get: %d %s", resp.StatusCode, raw)
	}
	type versionResp struct {
		Latest  bool          `json:"latest"`
		Budget  ledger.Status `json:"budget"`
		Version struct {
			Digest string `json:"digest"`
			Seq    int    `json:"seq"`
		} `json:"version"`
	}
	vg := decode[versionResp](t, raw)
	if vg.Latest || vg.Version.Digest != base.Digest || vg.Version.Seq != 1 {
		t.Fatalf("base version %+v", vg)
	}
	resp, _ = e.get(t, "/v1/corpora/c/versions/deadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus version digest: %d", resp.StatusCode)
	}

	// Sanitize the latest (default): computed from the new digest.
	resp, raw = e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sanitize latest: %d %s", resp.StatusCode, raw)
	}
	latestRel := decode[corpusSanitizeResponse](t, raw)
	if latestRel.Version != app.Digest || latestRel.Digest != app.Digest {
		t.Fatalf("latest release version %s / digest %s, want %s", latestRel.Version, latestRel.Digest, app.Digest)
	}

	// Sanitize the base by reference: computed from the base digest and
	// charged to the same lineage as the latest version's release.
	resp, raw = e.post(t, "/v1/corpora/c/sanitize?version="+base.Digest, "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sanitize ?version=: %d %s", resp.StatusCode, raw)
	}
	baseRel := decode[corpusSanitizeResponse](t, raw)
	if baseRel.Version != base.Digest || baseRel.Digest != base.Digest {
		t.Fatalf("base release version %s, want %s", baseRel.Version, base.Digest)
	}
	// The two releases sanitized different inputs (the appended rows can
	// legitimately contribute zero output records, so the *outputs* may
	// coincide — only the input identity is guaranteed to differ).
	if baseRel.InputSize == latestRel.InputSize {
		t.Fatal("releases of different versions sanitized identical inputs")
	}

	// Spend is per lineage: the budget counts both versions' releases,
	// and the release list breaks them down by version digest.
	if baseRel.Budget.Releases != 2 || baseRel.Budget.Spent.Epsilon <= latestRel.Budget.Spent.Epsilon {
		t.Fatalf("base release budget %+v after latest %+v", baseRel.Budget, latestRel.Budget)
	}
	_, raw = e.get(t, "/v1/corpora/c/budget")
	if b := decode[struct {
		Budget ledger.Status `json:"budget"`
	}](t, raw); b.Budget != baseRel.Budget {
		t.Fatalf("lineage budget %+v, want %+v", b.Budget, baseRel.Budget)
	}
	_, raw = e.get(t, "/v1/corpora/c/versions/"+base.Digest)
	if vg := decode[versionResp](t, raw); vg.Budget != baseRel.Budget {
		t.Fatalf("base version budget %+v, want the lineage's %+v", vg.Budget, baseRel.Budget)
	}
	_, raw = e.get(t, "/v1/corpora/c/releases")
	rels := decode[struct {
		Releases []struct {
			Digest string `json:"digest"`
		} `json:"releases"`
	}](t, raw).Releases
	if len(rels) != 2 || rels[0].Digest != app.Digest || rels[1].Digest != base.Digest {
		t.Fatalf("lineage releases %+v, want the latest's then the base's", rels)
	}
	resp, _ = e.post(t, "/v1/corpora/c/sanitize?version=deadbeef", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("sanitize bogus version: %d", resp.StatusCode)
	}

	// Append error paths: empty delta, unknown corpus.
	resp, _ = e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty append: %d", resp.StatusCode)
	}
	resp, _ = e.do(t, http.MethodPost, "/v1/corpora/nope/append", "text/tab-separated-values", appendDelta)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append to unknown corpus: %d", resp.StatusCode)
	}
}

// TestVersionsAndSpendSurviveRestart: the chain metadata, old-version
// materialization, and the lineage's accounting all replay from disk, and
// releases journaled against an ancestor and against the latest version
// stay free after both an append and a restart.
func TestVersionsAndSpendSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	e := newTestEnv(t, Config{DataDir: dir, Budget: budgetFor(8)})
	_, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv)
	base := decode[corpusMetaJSON](t, raw)
	// Release against v1, then append so v1 becomes an ancestor.
	resp, raw := e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 release: %d %s", resp.StatusCode, raw)
	}
	v1rel := decode[corpusSanitizeResponse](t, raw)
	_, raw = e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", appendDelta)
	app := decode[corpusAppendResponse](t, raw)
	_, raw = e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	v2rel := decode[corpusSanitizeResponse](t, raw)
	e.ts.Close()
	e.srv.Close()

	// Restart on the same data dir.
	e2 := newTestEnv(t, Config{DataDir: dir, Budget: budgetFor(8)})
	_, raw = e2.get(t, "/v1/corpora/c")
	meta := decode[corpusMetaJSON](t, raw)
	if len(meta.Versions) != 2 || meta.Digest != app.Digest {
		t.Fatalf("post-restart chain %+v", meta.Versions)
	}
	// The latest version's release replays free: the journaled release
	// and bytes, with the lineage's spend exactly as before the restart.
	resp, raw = e2.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if got := decode[corpusSanitizeResponse](t, raw); resp.StatusCode != http.StatusOK || got.Release != v2rel.Release ||
		got.ReleaseDigest != v2rel.ReleaseDigest || got.Budget != v2rel.Budget || got.Budget.Releases != 2 {
		t.Fatalf("post-restart latest replay: %d %s", resp.StatusCode, raw)
	}
	// Replaying the v1 release is free (seq unchanged) and computed against
	// the ancestor's own data.
	resp, raw = e2.post(t, "/v1/corpora/c/sanitize?version="+base.Digest, "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart ancestor replay: %d %s", resp.StatusCode, raw)
	}
	replay := decode[corpusSanitizeResponse](t, raw)
	if replay.Release.Seq != v1rel.Release.Seq || replay.ReleaseDigest != v1rel.ReleaseDigest {
		t.Fatalf("ancestor replay diverged: %+v vs %+v", replay.Release, v1rel.Release)
	}
	if replay.Budget != v2rel.Budget {
		t.Fatalf("ancestor replay changed the lineage budget: %+v, want %+v", replay.Budget, v2rel.Budget)
	}
}

// TestUploadContentNegotiation: Content-Type selects the body format,
// case-insensitively and ignoring media-type parameters.
func TestUploadContentNegotiation(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir()})
	aol := []byte("AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n" +
		"142\tcars\t2006-03-01\t1\tkbb.com\n" +
		"99\tnews\t2006-03-03\t2\tcnn.com\n")

	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/viaheader", "application/x-aol-log", aol)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("AOL via Content-Type: %d %s", resp.StatusCode, raw)
	}
	viaHeader := decode[corpusMetaJSON](t, raw)

	resp, raw = e.do(t, http.MethodPut, "/v1/corpora/viaparams", "Application/X-AOL-Log; charset=utf-8", aol)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("AOL via parameterized Content-Type: %d %s", resp.StatusCode, raw)
	}
	if decode[corpusMetaJSON](t, raw).Digest != viaHeader.Digest {
		t.Fatal("plain and parameterized Content-Type AOL uploads diverged")
	}

	// The negotiation applies to append too.
	more := []byte("AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n7\tmaps\t2006-04-01\t1\tmaps.example\n")
	resp, raw = e.do(t, http.MethodPost, "/v1/corpora/viaheader/append", "application/x-aol-log", more)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("AOL append: %d %s", resp.StatusCode, raw)
	}
	if app := decode[corpusAppendResponse](t, raw); app.Version.DeltaRows != 1 {
		t.Fatalf("AOL append delta %+v", app.Version)
	}
}

// TestSanitizeReusesComponentsAfterAppend: the server-wide component cache
// makes the post-append solve incremental — the second release reports
// reused component plans in its plan summary.
func TestSanitizeReusesComponentsAfterAppend(t *testing.T) {
	base := shardedTSV(t)
	e := newTestEnv(t, Config{DataDir: t.TempDir(), Budget: budgetFor(8)})
	e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", base)
	resp, raw := e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold release: %d %s", resp.StatusCode, raw)
	}
	cold := decode[corpusSanitizeResponse](t, raw)
	if cold.Plan.ReusedComponents != 0 || cold.Plan.Components < 2 {
		t.Fatalf("cold solve reused %d of %d components", cold.Plan.ReusedComponents, cold.Plan.Components)
	}
	// Append rows that form their own new component: every original
	// component is untouched and must be served from the cache.
	e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", appendDelta)
	resp, raw = e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("incremental release: %d %s", resp.StatusCode, raw)
	}
	inc := decode[corpusSanitizeResponse](t, raw)
	if inc.Plan.ReusedComponents == 0 {
		t.Fatal("post-append solve reused no component plans")
	}
	if inc.Plan.ReusedComponents >= inc.Plan.Components {
		t.Fatalf("reused %d of %d components; the appended component had nothing to reuse",
			inc.Plan.ReusedComponents, inc.Plan.Components)
	}

	// Cold control: the same base + delta on a fresh server folds to the
	// same version and releases the same bytes with nothing reused — the
	// cache may change wall-clock, never output.
	fresh := newTestEnv(t, Config{DataDir: t.TempDir(), Budget: budgetFor(8)})
	fresh.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", base)
	fresh.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", appendDelta)
	resp, raw = fresh.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if ctl := decode[corpusSanitizeResponse](t, raw); resp.StatusCode != http.StatusOK || ctl.Version != inc.Version ||
		ctl.ReleaseDigest != inc.ReleaseDigest || ctl.Plan.ReusedComponents != 0 {
		t.Fatalf("cold control: %d %s; incremental: version %s release %s", resp.StatusCode, raw, inc.Version, inc.ReleaseDigest)
	}
}

// TestRecoveryIsVisible: what a restart repaired shows on /metrics — the
// journaled appends folded onto the corpus checkpoint, and a torn ledger
// tail truncated — and a clean restart after it repairs no tail.
func TestRecoveryIsVisible(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Budget: budgetFor(2)}
	e := newTestEnv(t, cfg)
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	for _, delta := range [][]byte{appendDelta, []byte("newuserC\tnewquery\thttp://new.example\t1\n")} {
		if resp, raw := e.post(t, "/v1/corpora/c/append", "text/tab-separated-values", delta); resp.StatusCode != http.StatusOK {
			t.Fatalf("append: %d %s", resp.StatusCode, raw)
		}
	}
	if resp, raw := e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("release: %d %s", resp.StatusCode, raw)
	}
	e.ts.Close()
	e.srv.Close()
	f, err := os.OpenFile(filepath.Join(cfg.DataDir, "ledger.journal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"corpus":"c","dig`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for restart, want := range [][]string{
		{`slserve_recovery_total{kind="chain_folded"} 2`, `slserve_recovery_total{kind="ledger_torn_tail"} 1`, `slserve_recovery_total{kind="chain_torn_tail"} 0`},
		{`slserve_recovery_total{kind="chain_folded"} 2`, `slserve_recovery_total{kind="ledger_torn_tail"} 0`, `slserve_recovery_total{kind="chain_migrated"} 0`},
	} {
		re := newTestEnv(t, cfg)
		if resp, raw := re.get(t, "/v1/corpora/c/versions"); resp.StatusCode != http.StatusOK {
			t.Fatalf("restart %d: versions: %d %s", restart+1, resp.StatusCode, raw)
		}
		_, m := re.get(t, "/metrics")
		for _, line := range want {
			if !bytes.Contains(m, []byte("\n"+line+"\n")) {
				t.Errorf("restart %d: /metrics lacks %s", restart+1, line)
			}
		}
		re.ts.Close()
		re.srv.Close()
	}
}
