package server

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"

	"dpslog"
)

// Metrics accumulates the server's request counters and latency histograms
// and renders them in the Prometheus text exposition format (version
// 0.0.4). It is hand-rolled — the repository's zero-dependency invariant
// rules out the client library — but the output scrapes cleanly with a
// stock Prometheus.
type Metrics struct {
	mu         sync.Mutex
	requests   map[reqKey]int64
	latency    map[string]*histogram
	components *histogram
	stages     map[string]*histogram
	solver     solverMetrics
	ingest     ingestMetrics
	// mechanisms counts completed sanitizations by release mechanism wire
	// name.
	mechanisms map[string]int64
	// rederiveMismatches counts repeats of a journaled release whose
	// re-derived release digest differed from the journaled one.
	rederiveMismatches int64
	// recovery counts what opening the stateful subsystems repaired, by
	// kind (recoveryKinds).
	recovery map[string]int64
}

// recoveryKinds are the labels of slserve_recovery_total: a torn journal
// tail truncated or its lost newline restored, in the ledger or a corpus
// chain; a journaled version folded forward onto its corpus's checkpoint;
// a legacy chain migrated into a journal.
var recoveryKinds = []string{"chain_folded", "chain_migrated", "chain_torn_tail", "ledger_torn_tail"}

// solverMetrics accumulates the LP-engine depth counters surfaced by
// dpslog.SolveStats: how hard the simplex worked, not just how long the
// request took.
type solverMetrics struct {
	lpSolves         int64
	iterations       int64
	refactorizations int64
	presolveRows     int64
	presolveCols     int64
}

// ingestMetrics accumulates the streaming corpus-upload counters plus a
// snapshot of the most recent completed ingest (rate, peak heap estimate) —
// the operational signals of the streaming fold.
type ingestMetrics struct {
	uploads  int64
	failures int64
	rows     int64
	// last completed ingest:
	lastRowsPerSec float64
	lastPeakHeap   uint64
}

type reqKey struct {
	handler string
	code    string
}

// latencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond planning calls to multi-second D-UMP solves.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// componentBuckets are the upper bounds for the per-solve connected
// component counts: 1 is the single-market giant-component case, powers of
// two cover sharded multi-market corpora.
var componentBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// stageBuckets extend the latency bounds two decades downward: interior
// stages (queue waits, ledger fsyncs, noise sampling) live in the
// microseconds while solves reach seconds.
var stageBuckets = []float64{0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10}

// histogram is one cumulative Prometheus histogram over fixed upper bounds.
type histogram struct {
	bounds []float64
	counts []int64 // one per bound; +Inf is implicit via count
	sum    float64
	count  int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds))}
}

func (h *histogram) observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.sum += v
	h.count++
}

// write renders the histogram's bucket, sum and count samples; label is
// one rendered name="value" pair, or empty for an unlabeled histogram.
func (h *histogram) write(w io.Writer, name, label string) {
	le, set := "", ""
	if label != "" {
		le, set = label+",", "{"+label+"}"
	}
	for i, ub := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, le, formatBound(ub), h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, h.count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, set, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, h.count)
}

// observeLabeled records v in the histogram of hs under key, creating it
// over bounds on first use.
func observeLabeled(hs map[string]*histogram, key string, bounds []float64, v float64) {
	h := hs[key]
	if h == nil {
		h = newHistogram(bounds)
		hs[key] = h
	}
	h.observe(v)
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:   make(map[reqKey]int64),
		latency:    make(map[string]*histogram),
		components: newHistogram(componentBuckets),
		stages:     make(map[string]*histogram),
		mechanisms: make(map[string]int64),
		recovery:   make(map[string]int64),
	}
}

// ObserveStage records the duration of one completed trace span under its
// stage label (the span name). The tracer's onEnd hook calls this for every
// interior span, so the stage histograms populate whether or not anyone
// ever asks for a trace.
func (m *Metrics) ObserveStage(stage string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	observeLabeled(m.stages, stage, stageBuckets, seconds)
}

// ObserveSolver folds the solver-depth counters of one completed
// sanitization into the registry. iterations is the plan's
// simplex-iteration/BIP-node total; st carries the LP engine internals.
func (m *Metrics) ObserveSolver(iterations int, st dpslog.SolveStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solver.lpSolves += int64(st.LPSolves)
	m.solver.iterations += int64(iterations)
	m.solver.refactorizations += int64(st.Refactorizations)
	m.solver.presolveRows += int64(st.PresolveRows)
	m.solver.presolveCols += int64(st.PresolveCols)
}

// ObserveSanitizeMechanism records one completed sanitization under its
// release mechanism's wire name.
func (m *Metrics) ObserveSanitizeMechanism(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mechanisms[name]++
}

// ObserveSolveComponents records the connected-component count of one
// completed sanitization solve.
func (m *Metrics) ObserveSolveComponents(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.components.observe(float64(n))
}

// ObserveIngest records one completed streaming corpus upload: the rows
// folded, the fold throughput and the live-heap estimate sampled when the
// fold returned.
func (m *Metrics) ObserveIngest(rows int64, rowsPerSec float64, peakHeap uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.uploads++
	m.ingest.rows += rows
	m.ingest.lastRowsPerSec = rowsPerSec
	m.ingest.lastPeakHeap = peakHeap
}

// ObserveRecovery records n repairs of one recoveryKinds kind.
func (m *Metrics) ObserveRecovery(kind string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recovery[kind] += int64(n)
}

// ObserveRederiveMismatch records one withheld repeat: a journaled release
// whose re-derivation produced a different release digest.
func (m *Metrics) ObserveRederiveMismatch() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rederiveMismatches++
}

// ObserveIngestFailure records a corpus upload that was admitted but failed
// (parse error, disk error) — shed uploads (the 503 path) are visible in
// the request counters instead.
func (m *Metrics) ObserveIngestFailure() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.failures++
}

// Observe records one completed request for the given handler label (the
// route pattern) with its HTTP status code and duration.
func (m *Metrics) Observe(handler string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{handler, strconv.Itoa(code)}]++
	observeLabeled(m.latency, handler, latencyBuckets, seconds)
}

// Gauges are point-in-time values the server supplies at scrape time.
type Gauges struct {
	Workers, WorkersBusy, QueueDepth int
	Jobs                             map[JobState]int
	// CompCacheEntries/Hits/Misses mirror the shared component-plan cache
	// behind incremental post-append re-solves.
	CompCacheEntries               int
	CompCacheHits, CompCacheMisses int
	// IngestInFlightBytes/IngestInFlightUploads/IngestCapacityBytes mirror
	// the upload admission gate at scrape time.
	IngestInFlightBytes   int64
	IngestInFlightUploads int
	IngestCapacityBytes   int64
	// Ledger is non-nil when the corpus subsystem is enabled.
	Ledger *LedgerGauges
}

// LedgerGauges expose the privacy budget accounting: the configured
// per-lineage allowance and, per stored corpus, its lineage's cumulative
// (ε, δ) spend and release count.
type LedgerGauges struct {
	Corpora                    int
	BudgetEpsilon, BudgetDelta float64
	PerCorpus                  []CorpusSpend
}

// CorpusSpend is one corpus's ledger line: its lineage's spend.
type CorpusSpend struct {
	Name                     string
	SpentEpsilon, SpentDelta float64
	Releases                 int
}

// WriteTo renders the full exposition: counters, histograms, and the
// scrape-time gauges. Output ordering is deterministic.
func (m *Metrics) WriteTo(w io.Writer, g Gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	family(w, "slserve_requests_total", "counter", "Completed HTTP requests by handler and status code.")
	reqKeys := slices.SortedFunc(maps.Keys(m.requests), func(a, b reqKey) int {
		return cmp.Or(cmp.Compare(a.handler, b.handler), cmp.Compare(a.code, b.code))
	})
	for _, k := range reqKeys {
		fmt.Fprintf(w, "slserve_requests_total{handler=%q,code=%q} %d\n", k.handler, k.code, m.requests[k])
	}

	family(w, "slserve_request_duration_seconds", "histogram", "Request latency by handler.")
	for _, name := range slices.Sorted(maps.Keys(m.latency)) {
		m.latency[name].write(w, "slserve_request_duration_seconds", fmt.Sprintf("handler=%q", name))
	}

	family(w, "slserve_solve_components", "histogram", "Connected components per sanitization solve (see internal/partition).")
	m.components.write(w, "slserve_solve_components", "")

	family(w, "slserve_stage_duration_seconds", "histogram", "Duration of one pipeline stage (trace span), labeled by span name.")
	for _, name := range slices.Sorted(maps.Keys(m.stages)) {
		m.stages[name].write(w, "slserve_stage_duration_seconds", fmt.Sprintf("stage=%q", name))
	}

	scalar(w, "slserve_solver_lp_solves_total", "counter", "LP solves executed (one per component per phase).", m.solver.lpSolves)
	scalar(w, "slserve_solver_iterations_total", "counter", "Simplex iterations plus BIP nodes, summed over solves.", m.solver.iterations)
	scalar(w, "slserve_solver_refactorizations_total", "counter", "Basis (re)factorizations across LP solves.", m.solver.refactorizations)
	scalar(w, "slserve_solver_presolve_rows_total", "counter", "Constraint rows eliminated by LP presolve.", m.solver.presolveRows)
	scalar(w, "slserve_solver_presolve_cols_total", "counter", "Variables fixed by LP presolve.", m.solver.presolveCols)

	family(w, "slserve_sanitize_mechanism_total", "counter", "Completed sanitizations by release mechanism.")
	for _, name := range slices.Sorted(maps.Keys(m.mechanisms)) {
		fmt.Fprintf(w, "slserve_sanitize_mechanism_total{mechanism=%q} %d\n", name, m.mechanisms[name])
	}

	family(w, "slserve_build_info", "gauge", "Build metadata; the value is always 1.")
	fmt.Fprintf(w, "slserve_build_info{version=%q,goversion=%q} 1\n", buildVersion, runtime.Version())

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	scalar(w, "slserve_goroutines", "gauge", "Live goroutines at scrape time.", runtime.NumGoroutine())
	scalar(w, "slserve_heap_alloc_bytes", "gauge", "Live heap bytes at scrape time.", ms.HeapAlloc)
	scalar(w, "slserve_gc_runs_total", "counter", "Completed garbage-collection cycles.", ms.NumGC)
	scalar(w, "slserve_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause.", float64(ms.PauseTotalNs)/1e9)

	scalar(w, "slserve_workers", "gauge", "Configured worker pool size.", g.Workers)
	scalar(w, "slserve_workers_busy", "gauge", "Workers currently executing a solve.", g.WorkersBusy)
	scalar(w, "slserve_queue_depth", "gauge", "Tasks waiting in the worker pool backlog.", g.QueueDepth)

	family(w, "slserve_jobs", "gauge", "Retained async jobs by state.")
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed} {
		fmt.Fprintf(w, "slserve_jobs{state=%q} %d\n", string(st), g.Jobs[st])
	}

	scalar(w, "slserve_rederive_mismatch_total", "counter", "Repeats of a journaled release withheld because the re-derived release digest differed from the journaled one.", m.rederiveMismatches)

	family(w, "slserve_recovery_total", "counter", "Repairs made while opening the ledger and the corpus store, by kind.")
	for _, kind := range recoveryKinds {
		fmt.Fprintf(w, "slserve_recovery_total{kind=%q} %d\n", kind, m.recovery[kind])
	}

	scalar(w, "slserve_component_cache_entries", "gauge", "Entries in the shared component-plan cache.", g.CompCacheEntries)
	scalar(w, "slserve_component_cache_hits_total", "counter", "Component plans reused from the cache.", g.CompCacheHits)
	scalar(w, "slserve_component_cache_misses_total", "counter", "Component solves not served from the cache.", g.CompCacheMisses)

	scalar(w, "slserve_ingest_uploads_total", "counter", "Completed streaming corpus uploads.", m.ingest.uploads)
	scalar(w, "slserve_ingest_failures_total", "counter", "Admitted corpus uploads that failed to ingest.", m.ingest.failures)
	scalar(w, "slserve_ingest_rows_total", "counter", "Rows folded by the streaming ingest.", m.ingest.rows)
	scalar(w, "slserve_ingest_last_rows_per_sec", "gauge", "Fold throughput of the most recent completed ingest.", m.ingest.lastRowsPerSec)
	scalar(w, "slserve_ingest_last_peak_heap_bytes", "gauge", "Peak live-heap estimate sampled during the most recent completed ingest.", m.ingest.lastPeakHeap)
	scalar(w, "slserve_ingest_inflight_bytes", "gauge", "Declared bytes of corpus uploads currently ingesting.", g.IngestInFlightBytes)
	scalar(w, "slserve_ingest_inflight_uploads", "gauge", "Corpus uploads currently ingesting.", g.IngestInFlightUploads)
	scalar(w, "slserve_ingest_capacity_bytes", "gauge", "Admission-gate capacity for concurrent corpus uploads (0 = unguarded).", g.IngestCapacityBytes)

	if g.Ledger == nil {
		return
	}
	scalar(w, "slserve_corpora", "gauge", "Corpora in the disk-backed store.", g.Ledger.Corpora)
	scalar(w, "slserve_ledger_budget_epsilon", "gauge", "Configured per-lineage epsilon allowance.", g.Ledger.BudgetEpsilon)
	scalar(w, "slserve_ledger_budget_delta", "gauge", "Configured per-lineage delta allowance.", g.Ledger.BudgetDelta)
	family(w, "slserve_ledger_spent_epsilon", "gauge", "Cumulative epsilon charged against each corpus's lineage under sequential composition.")
	for _, c := range g.Ledger.PerCorpus {
		fmt.Fprintf(w, "slserve_ledger_spent_epsilon{corpus=%q} %g\n", c.Name, c.SpentEpsilon)
	}
	family(w, "slserve_ledger_spent_delta", "gauge", "Cumulative delta charged against each corpus's lineage under sequential composition.")
	for _, c := range g.Ledger.PerCorpus {
		fmt.Fprintf(w, "slserve_ledger_spent_delta{corpus=%q} %g\n", c.Name, c.SpentDelta)
	}
	family(w, "slserve_ledger_releases_total", "counter", "Journaled releases of each corpus's lineage.")
	for _, c := range g.Ledger.PerCorpus {
		fmt.Fprintf(w, "slserve_ledger_releases_total{corpus=%q} %d\n", c.Name, c.Releases)
	}
}

// family writes the HELP and TYPE header of one metric family.
func family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// scalar writes a family with one unlabeled sample. %v renders integers in
// decimal and floats as %g, the exposition's number forms.
func scalar(w io.Writer, name, typ, help string, v any) {
	family(w, name, typ, help)
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// formatBound renders a bucket bound the way Prometheus expects ("0.005",
// not "5e-3").
func formatBound(ub float64) string {
	return strconv.FormatFloat(ub, 'f', -1, 64)
}

// buildVersion is the module version stamped into the binary, resolved once
// at startup ("(devel)" for a plain `go build`, "unknown" without build
// info — e.g. some test binaries).
var buildVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}()
