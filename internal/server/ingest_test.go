package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"dpslog"
	"dpslog/internal/searchlog"
)

// TestCorpusPutChunkedStreaming: a PUT body with no Content-Length (HTTP
// chunked transfer, the slingest pipe mode) streams through the sharded
// ingest and stores the same digest the in-memory path would have.
func TestCorpusPutChunkedStreaming(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir()})
	req, err := http.NewRequest(http.MethodPut, e.ts.URL+"/v1/corpora/chunked", io.NopCloser(bytes.NewReader(e.tsv)))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // force chunked transfer encoding
	req.Header.Set("Content-Type", "text/tab-separated-values")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("chunked PUT status %d: %s", resp.StatusCode, raw)
	}
	meta := decode[corpusMetaJSON](t, raw)
	if meta.Digest != dpslog.Digest(e.corpus) {
		t.Fatalf("chunked upload digest %s != %s", meta.Digest, dpslog.Digest(e.corpus))
	}
}

// TestCorpusPutAOLFormat: Content-Type application/x-aol-log ingests the
// historical 5-column form, and the stored digest equals the ReadAOL
// normalization of the same bytes. A format query parameter selects
// nothing: the same body sent as text/plain is parsed as TSV and refused.
func TestCorpusPutAOLFormat(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir()})
	aol := "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n" +
		"7\tcars\t2006-03-01\t1\tkbb.com\n" +
		"7\tcars\t2006-03-02\t1\tkbb.com\n" +
		"9\tweather\t2006-03-02\t\t\n" + // clickless: dropped
		"9\tnews\t2006-03-03\t2\tcnn.com\n"
	want, err := searchlog.ReadAOL(strings.NewReader(aol))
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/aol", "application/x-aol-log", []byte(aol))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("AOL PUT status %d: %s", resp.StatusCode, raw)
	}
	meta := decode[corpusMetaJSON](t, raw)
	if meta.Digest != want.Digest() || meta.Size != want.Size() {
		t.Fatalf("AOL meta %+v, want digest %s size %d", meta, want.Digest(), want.Size())
	}

	query := url.Values{"format": {"aol"}}.Encode()
	resp, raw = e.do(t, http.MethodPut, "/v1/corpora/aolquery?"+query, "text/plain", []byte(aol))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("AOL body as text/plain with %s: status %d, want 400: %s", query, resp.StatusCode, raw)
	}
	if env := decode[apiError](t, raw); env.Code != "bad_request" || env.Status != http.StatusBadRequest {
		t.Fatalf("refusal envelope %+v", env)
	}
	if resp, _ := e.get(t, "/v1/corpora/aolquery"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused upload was stored: GET status %d", resp.StatusCode)
	}
}

// TestCorpusPutParseErrorKeepsLineNumber: a malformed row in a streamed
// upload fails with 400 and the row's 1-based line number — position must
// survive the chunked scanner.
func TestCorpusPutParseErrorKeepsLineNumber(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir(), IngestChunkBytes: 7})
	body := "u1\tq\tl\t1\nu2\tq\tl\t2\nbroken\n"
	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/bad", "text/plain", []byte(body))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(decode[apiError](t, raw).Error, "line 3") {
		t.Fatalf("parse error lost its line number: %s", raw)
	}
}

// TestCorpusPutIngestGate: uploads whose declared sizes overcommit the
// in-flight byte budget are shed with 503 + Retry-After while one is still
// streaming, and admitted again once it finishes.
func TestCorpusPutIngestGate(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir(), MaxIngestBytes: int64(len(e2eTSV)) + 8})
	// Hold capacity with a body that stalls until released. The release is
	// also a cleanup, so a failed assertion reports instead of hanging the
	// server's Close on the stalled connection.
	gateBody := &stallingReader{data: []byte(e2eTSV), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gateBody.release) })
	t.Cleanup(release)
	done := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPut, e.ts.URL+"/v1/corpora/slow", io.NopCloser(gateBody))
		if err != nil {
			done <- err
			return
		}
		req.ContentLength = int64(len(e2eTSV))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				err = fmt.Errorf("slow PUT status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	// Wait until the server has booked the slow upload's reservation, not
	// merely until the client started sending its body.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, uploads := e.srv.gate.Stats(); uploads >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow upload never reserved ingest capacity")
		}
	}

	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/shed", "text/plain", []byte(e2eTSV))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("concurrent upload status %d, want 503: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Capacity released: the same upload is admitted now.
	resp, raw = e.do(t, http.MethodPut, "/v1/corpora/shed", "text/plain", []byte(e2eTSV))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-release upload status %d: %s", resp.StatusCode, raw)
	}
}

// e2eTSV is a minimal two-user corpus for the gate tests.
const e2eTSV = "u1\tq1\tl1\t2\nu1\tq2\tl2\t1\nu2\tq1\tl1\t3\n"

// stallingReader blocks its first read until released, then delivers the
// data.
type stallingReader struct {
	data    []byte
	release chan struct{}
	pos     int
}

func (r *stallingReader) Read(p []byte) (int, error) {
	<-r.release
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// TestCorpusPutBodyCap: a corpus PUT larger than MaxCorpusBytes is refused
// with 413 — while the general MaxBodyBytes cap no longer applies to the
// corpus route (a body over the general cap but under the corpus cap goes
// through).
func TestCorpusPutBodyCap(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir(), MaxBodyBytes: 16, MaxCorpusBytes: 1 << 20})
	if int64(len(e.tsv)) <= 16 {
		t.Fatal("fixture too small to exercise the cap split")
	}
	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/big", "text/plain", e.tsv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("corpus PUT over the general cap must stream through, got %d: %s", resp.StatusCode, raw)
	}

	small := newTestEnv(t, Config{DataDir: t.TempDir(), MaxCorpusBytes: 32})
	resp, raw = small.do(t, http.MethodPut, "/v1/corpora/big", "text/plain", small.tsv)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap corpus PUT status %d, want 413: %s", resp.StatusCode, raw)
	}
}

// TestCorpusPutJSONKeepsGeneralCap: the large corpus cap belongs to the
// streaming branch only — a JSON-envelope upload is slurped by the decoder,
// so it must stay under the general MaxBodyBytes limit and be refused when
// it exceeds it.
func TestCorpusPutJSONKeepsGeneralCap(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir(), MaxBodyBytes: 64, MaxCorpusBytes: 1 << 20})
	body := []byte(`{"tsv":"` + strings.Repeat(`u\tq\tl\t1\n`, 50) + `"}`)
	if int64(len(body)) <= 64 {
		t.Fatal("fixture under the general cap")
	}
	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/j", "application/json", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized JSON envelope status %d, want 400: %s", resp.StatusCode, raw)
	}
	// A small JSON envelope still uploads.
	resp, raw = e.do(t, http.MethodPut, "/v1/corpora/j", "application/json", []byte(`{"tsv":"u\tq\tl\t2\n"}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("small JSON envelope status %d: %s", resp.StatusCode, raw)
	}
}

// TestIngestGateUnit pins the gate semantics: oversize single uploads are
// admitted only when idle, capacity frees on release, zero capacity
// disables the guard.
func TestIngestGateUnit(t *testing.T) {
	g := newIngestGate(100)
	if !g.tryAcquire(60) {
		t.Fatal("first reservation refused")
	}
	if g.tryAcquire(60) {
		t.Fatal("overcommit admitted")
	}
	if !g.tryAcquire(40) {
		t.Fatal("fitting reservation refused")
	}
	g.release(60)
	g.release(40)
	if b, n := g.Stats(); b != 0 || n != 0 {
		t.Fatalf("gate leaked: %d bytes, %d uploads", b, n)
	}
	// Larger than capacity, but the gate is idle: admitted.
	if !g.tryAcquire(1000) {
		t.Fatal("oversize upload refused on an idle gate")
	}
	if g.tryAcquire(1) {
		t.Fatal("admitted alongside an oversize upload")
	}
	g.release(1000)

	off := newIngestGate(0)
	if !off.tryAcquire(1 << 40) {
		t.Fatal("disabled gate refused")
	}
}

// TestMetricsIngestSeries: the ingest series appear in the exposition after
// a streamed upload.
func TestMetricsIngestSeries(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir()})
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/m", "text/plain", e.tsv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	_, raw := e.get(t, "/metrics")
	body := string(raw)
	for _, want := range []string{
		"slserve_ingest_uploads_total 1",
		"slserve_ingest_failures_total 0",
		"slserve_ingest_rows_total",
		"slserve_ingest_last_rows_per_sec",
		"slserve_ingest_last_shard_skew",
		"slserve_ingest_last_peak_heap_bytes",
		"slserve_ingest_inflight_bytes 0",
		"slserve_ingest_capacity_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}
