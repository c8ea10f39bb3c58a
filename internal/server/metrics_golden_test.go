package server

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpslog"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden")

// runtimeFamilies vary with the process and the build, so the golden
// exposition leaves them out.
var runtimeFamilies = map[string]bool{
	"slserve_build_info":             true,
	"slserve_goroutines":             true,
	"slserve_heap_alloc_bytes":       true,
	"slserve_gc_runs_total":          true,
	"slserve_gc_pause_seconds_total": true,
}

// withoutRuntimeFamilies drops the HELP, TYPE and sample lines of every
// runtimeFamilies member from an exposition.
func withoutRuntimeFamilies(out string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		name := line
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			if f := strings.Fields(rest); len(f) > 1 {
				name = f[1]
			}
		} else if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !runtimeFamilies[name] {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// TestMetricsGolden pins the /metrics exposition byte for byte: a fixed
// registry state plus scrape-time gauges (ledger included) must render
// exactly testdata/metrics.golden. Regenerate after a deliberate change
// with `go test ./internal/server -run TestMetricsGolden -update`.
func TestMetricsGolden(t *testing.T) {
	m := NewMetrics()
	m.Observe("POST /v1/sanitize", 200, 0.003)
	m.Observe("POST /v1/sanitize", 200, 0.2)
	m.Observe("POST /v1/sanitize", 503, 12)
	m.Observe("GET /healthz", 200, 0.00005)
	m.Observe("/", 404, 0.0002)
	m.Observe(`odd"label\`+"\n", 200, 0.04)
	for _, n := range []int{1, 3, 16, 300} {
		m.ObserveSolveComponents(n)
	}
	m.ObserveStage("queue.wait", 0.000002)
	m.ObserveStage("lp.solve", 0.0007)
	m.ObserveStage("lp.solve", 0.07)
	m.ObserveStage("ledger.charge", 20)
	m.ObserveSolver(17, dpslog.SolveStats{LPSolves: 2, Refactorizations: 3, PresolveRows: 5, PresolveCols: 4})
	m.ObserveSolver(4, dpslog.SolveStats{LPSolves: 1})
	m.ObserveSanitizeMechanism("ump")
	m.ObserveSanitizeMechanism("ump")
	m.ObserveSanitizeMechanism("laplace")
	m.ObserveIngest(1200, 350000.5, 8<<20)
	m.ObserveIngest(34, 1e7, 1<<40)
	m.ObserveIngestFailure()
	m.ObserveRederiveMismatch()

	out := withoutRuntimeFamilies(scrape(t, m, Gauges{
		Workers: 4, WorkersBusy: 1, QueueDepth: 2,
		Jobs:             map[JobState]int{JobQueued: 1, JobDone: 3, JobFailed: 2},
		CompCacheEntries: 11, CompCacheHits: 13, CompCacheMisses: 15,
		IngestInFlightBytes: 1 << 20, IngestInFlightUploads: 1, IngestCapacityBytes: 256 << 20,
		Ledger: &LedgerGauges{
			Corpora:       2,
			BudgetEpsilon: math.Log(16),
			BudgetDelta:   1,
			PerCorpus: []CorpusSpend{
				{Name: "alpha", SpentEpsilon: math.Log(2), SpentDelta: 0.25, Releases: 1},
				{Name: `b"eta`, SpentEpsilon: 2 * math.Log(2), SpentDelta: 0.5, Releases: 2},
			},
		},
	}))
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("exposition differs from %s (rerun with -update after a deliberate change):\n%s", path, out)
	}
}
