package main

import (
	"flag"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"dpslog"
	"dpslog/internal/loadgen"
	"dpslog/internal/replay"
	"dpslog/internal/server"
)

// statefulServer starts an in-process slserve with a corpus store and the
// given per-corpus budget (zero = the server default) and returns its URL.
func statefulServer(t *testing.T, budget dpslog.Budget) string {
	t.Helper()
	srv, err := server.New(server.Config{Workers: 2, Queue: 256, DataDir: t.TempDir(), Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL
}

// liveFlags parses a live-mode command line: 60 rps uniform for 100ms
// (six timed requests) against url, captured to capture.
func liveFlags(t *testing.T, url, capture string, extra ...string) *flags {
	t.Helper()
	args := append([]string{"-url", url, "-profile", "tiny", "-rps", "60", "-duration", "100ms",
		"-arrivals", "uniform", "-eexp", "2", "-delta", "0.25", "-batch", "1h", "-trace-out", capture}, extra...)
	return parseFlags(flag.NewFlagSet("slload", flag.ContinueOnError), args)
}

// TestLiveModes runs every live endpoint, and corpus mode, against a
// stateful server: each must exit 0, send its class counts, and capture a
// trace whose every record got a 2xx and the server-assigned trace ID.
func TestLiveModes(t *testing.T) {
	if testing.Short() {
		t.Skip("live load runs in -short mode")
	}
	url := statefulServer(t, dpslog.Budget{})
	cases := []struct {
		name string
		args []string
		want map[string]int
	}{
		{"sanitize", []string{"-endpoint", "sanitize"}, map[string]int{"sanitize": 6}},
		{"lambda", []string{"-endpoint", "lambda"}, map[string]int{"lambda": 6}},
		{"stats", []string{"-endpoint", "stats"}, map[string]int{"stats": 6}},
		{"corpus", []string{"-corpus", "live", "-distinct", "2"}, map[string]int{"setup": 1, "corpus": 6}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			capture := t.TempDir() + "/capture.ndjson"
			if code := runLive(liveFlags(t, url, capture, c.args...)); code != 0 {
				t.Fatalf("exit %d", code)
			}
			tr, err := replay.ReadFile(capture)
			if err != nil {
				t.Fatal(err)
			}
			got := tr.ClassCounts()
			if len(got) != len(c.want) {
				t.Fatalf("classes %v, want %v", got, c.want)
			}
			for class, n := range c.want {
				if got[class] != n {
					t.Errorf("class %s: %d requests, want %d", class, got[class], n)
				}
			}
			for i, rec := range tr.Records {
				if !loadgen.MatchStatus(rec.Status, "2xx") || rec.Error != "" || rec.TraceID == "" {
					t.Errorf("record %d (%s %s): status %d error %q trace_id %q", i, rec.Method, rec.Path, rec.Status, rec.Error, rec.TraceID)
				}
			}
		})
	}
}

// TestLiveCorpusBudgetExhaustion is the budget smoke in-process: a
// two-release budget refuses the third distinct seed with a 429, which
// -expect-429 requires and a plain run counts as a failure; the capture
// then replays against the same server without an error.
func TestLiveCorpusBudgetExhaustion(t *testing.T) {
	if testing.Short() {
		t.Skip("live load runs in -short mode")
	}
	url := statefulServer(t, dpslog.Budget{Epsilon: math.Log(4), Delta: 1})
	capture := t.TempDir() + "/capture.ndjson"
	if code := runLive(liveFlags(t, url, capture, "-corpus", "small", "-distinct", "8", "-expect-429")); code != 0 {
		t.Fatalf("-expect-429 run: exit %d", code)
	}
	tr, err := replay.ReadFile(capture)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for _, rec := range tr.Records {
		if rec.Status == 429 {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no 429 captured from an exhausted budget")
	}

	// The capture → replay closure: journaled releases replay free and the
	// rest are refused as the capture's "2xx,429" expectation allows.
	sum, _, err := replay.Run(tr, replay.Config{BaseURL: url, Speedup: 4, Window: time.Hour, Out: io.Discard, ErrOut: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors() != 0 || sum.Sent != len(tr.Records) {
		t.Fatalf("replayed capture: sent %d of %d, %d errors", sum.Sent, len(tr.Records), sum.Errors())
	}

	// The exit rules: a 429 without -expect-429 is a failure, and so is
	// -expect-429 when the budget never runs out (a fresh corpus, one seed).
	if code := runLive(liveFlags(t, url, t.TempDir()+"/c.ndjson", "-corpus", "small", "-distinct", "8")); code != 1 {
		t.Errorf("unexpected 429s: exit %d, want 1", code)
	}
	if code := runLive(liveFlags(t, url, t.TempDir()+"/c.ndjson", "-corpus", "fresh", "-distinct", "1", "-expect-429")); code != 1 {
		t.Errorf("-expect-429 without a 429: exit %d, want 1", code)
	}
}

func TestArrivalOffsetsUniform(t *testing.T) {
	got := arrivalOffsets("uniform", 100, 50*time.Millisecond, 7) // 10ms period
	if len(got) != 5 {
		t.Fatalf("%d arrivals in 50ms at 100 rps, want 5: %v", len(got), got)
	}
	for i, off := range got {
		if want := time.Duration(i+1) * 10 * time.Millisecond; off != want {
			t.Fatalf("arrival %d at %v, want %v", i, off, want)
		}
	}
}

func TestArrivalOffsetsPoisson(t *testing.T) {
	const rps, d = 200, 10 * time.Second
	a, b := arrivalOffsets("poisson", rps, d, 7), arrivalOffsets("poisson", rps, d, 7)
	if len(a) != len(b) {
		t.Fatalf("same seed drew %d and %d arrivals", len(a), len(b))
	}
	var prev time.Duration
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d: same seed diverged (%v vs %v)", i, a[i], b[i])
		}
		if a[i] < prev || a[i] > d {
			t.Fatalf("arrival %d at %v: after %v, limit %v", i, a[i], prev, d)
		}
		prev = a[i]
	}
	// 2000 expected arrivals; the count's standard deviation is ~45.
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in %v at %d rps", n, d, rps)
	}
	if c := arrivalOffsets("poisson", rps, d, 8); c[0] == a[0] {
		t.Error("different seeds produced identical first arrivals")
	}
}
