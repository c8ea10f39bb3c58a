// Package server implements slserve, the HTTP sanitization service: a
// JSON/TSV API over the dpslog library with a bounded worker pool (so
// concurrent LP/BIP solves cannot stampede), an async job store for large
// logs, and hand-rolled Prometheus metrics — all within the repository's
// zero-dependency invariant.
//
// Endpoints:
//
//	POST /v1/sanitize     synchronous sanitization (JSON or TSV body)
//	POST /v1/jobs         submit an async sanitization job
//	GET  /v1/jobs         list retained jobs
//	GET  /v1/jobs/{id}    poll one job
//	POST /v1/lambda       max DP output size λ for (ε, δ) — cheap planning
//	POST /v1/stats        Table-3 characteristics of a posted log
//	GET  /healthz         liveness
//	GET  /readyz          readiness: 200 once the corpus store and ledger
//	                      journal have opened
//	GET  /metrics         Prometheus text exposition
//	GET  /v1/debug/traces recently completed request traces, newest first
//
// The mux is the route table: an unrouted request gets the mux's own
// verdict — 404, or 405 with its Allow header (every GET route also serves
// HEAD) — in the error envelope.
//
// With a data directory configured (Config.DataDir), the stateful corpus
// subsystem adds upload-once/sanitize-many endpoints whose releases are
// accounted against a per-lineage (ε, δ) budget (internal/corpus,
// internal/ledger):
//
//	PUT    /v1/corpora/{name}           upload (or replace) a named corpus;
//	                                    resets the version chain to one base
//	GET    /v1/corpora                  list stored corpora
//	GET    /v1/corpora/{name}           corpus metadata + budget + versions[]
//	DELETE /v1/corpora/{name}           delete a corpus (its ledger survives)
//	POST   /v1/corpora/{name}/append    fold new rows into a new immutable
//	                                    corpus version (continual release);
//	                                    same body shapes as PUT
//	GET    /v1/corpora/{name}/versions  the version chain, base first
//	GET    /v1/corpora/{name}/versions/{digest}
//	                                    one chain entry + its lineage's budget
//	POST   /v1/corpora/{name}/sanitize  sanitize by reference: options-only
//	                                    body, budget-charged, 429 when the
//	                                    remaining (ε, δ) cannot cover it;
//	                                    ?version= selects an ancestor version
//	GET    /v1/corpora/{name}/budget    the lineage's budget, spend, remaining
//	GET    /v1/corpora/{name}/releases  the lineage's release journal
//
// A JSON body carries {"options": {...}, "records": [...]} or {"options":
// {...}, "tsv": "..."}; any other content type is read as a raw canonical
// TSV log with the options taken from query parameters (mechanism, eexp or
// epsilon, delta, objective, support, size, solver, seed, parallelism, d).
// When the request omits a
// seed, the server derives one deterministically from the corpus digest, so
// identical requests produce identical outputs. No response is cached: a
// repeated request re-derives its release through the mechanism.
//
// Raw corpus bodies (PUT and append) negotiate their format on the request
// Content-Type:
//
//	text/tab-separated-values  canonical 4-column TSV (the default: also
//	                           text/plain, application/octet-stream, or
//	                           no Content-Type at all)
//	application/x-aol-log      the historical AOL 5-column form
//	application/json           the {"records": [...]}/{"tsv": "..."} envelope
//
// Every non-2xx response across every endpoint carries the uniform error
// envelope {"error", "code", "status", "detail"?} (see errors.go).
//
// Each corpus version is immutable with its own digest. The ledger charges
// releases per lineage under sequential composition: each release links
// its corpus name to its version's digest, so every version of a name —
// across appends, re-PUTs and DELETEs — draws on one budget, and two names
// join once either releases a digest the other has released. Releases
// journaled against old versions replay for free forever. The journal records each
// release's output digest, and a repeat whose re-derived release differs
// from it is withheld with a 500. A server-wide component-plan cache
// (Config.CompCacheSize) makes the re-solve after an append incremental:
// only connected components the appended rows touched re-solve, the rest
// are reused byte-identically.
//
// Both sanitize endpoints dispatch on ?mechanism= (or the JSON "mechanism"
// option) through internal/mechanism's registry: "ump" (default), "laplace"
// and "zealous". The aggregate mechanisms release noisy pair
// counts ("pairs") instead of user-attributed records, and each release is
// charged at the mechanism's own declared (ε, δ) cost.
package server

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dpslog"
	"dpslog/internal/corpus"
	"dpslog/internal/ledger"
	"dpslog/internal/mechanism"
	"dpslog/internal/obs"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrent solves (default GOMAXPROCS).
	Workers int
	// Queue is the worker-pool backlog (default 4×Workers). A full backlog
	// returns 503.
	Queue int
	// MaxJobs bounds the retained async jobs (default 1024); the oldest
	// finished jobs are evicted first.
	MaxJobs int
	// MaxBodyBytes caps request bodies (default 32 MiB). Corpus uploads
	// (PUT /v1/corpora/{name} and its append) are exempt — they stream
	// through the one ingest fold (searchlog.Fold: one scanner goroutine
	// feeding one Builder, with no tuning knobs) under MaxCorpusBytes and
	// the MaxIngestBytes gate instead of being slurped.
	MaxBodyBytes int64
	// MaxCorpusBytes caps one corpus upload body (default 8 GiB; negative
	// disables the cap). It bounds disk, not memory — the body streams.
	MaxCorpusBytes int64
	// MaxIngestBytes is the admission gate for concurrent corpus uploads:
	// the sum of declared (Content-Length) body sizes ingesting at once
	// (default 256 MiB; negative disables the gate). Uploads over the gate
	// are shed with 503, never queued. A chunked upload without a declared
	// length reserves MaxIngestBytes/4.
	MaxIngestBytes int64
	// SolveParallelism is the per-solve component parallelism applied to
	// requests that leave options.parallelism at zero (default 1: with
	// Workers concurrent solves already saturating the cores, sequential
	// component solves avoid oversubscription; raise it for big sharded
	// corpora with few concurrent clients). Requests override it with any
	// explicit positive parallelism — note zero is indistinguishable from
	// "unset" on the wire, so a request cannot select the library's
	// GOMAXPROCS default; it can send a large explicit value instead (the
	// solver clamps to the component count). Negative configures the
	// library default (GOMAXPROCS per solve).
	SolveParallelism int
	// DataDir enables the stateful corpus subsystem: corpora are stored
	// under DataDir/corpora and the privacy ledger journal at
	// DataDir/ledger.journal. Empty disables the /v1/corpora endpoints
	// (they answer 503 with a configuration hint).
	DataDir string
	// Budget is the per-lineage (ε, δ) allowance enforced under sequential
	// composition across releases: one budget for every version of a
	// corpus name and every name joined to it. Zero fields default to
	// ε = ln 16 and δ = 1 — four (e^ε = 2, δ = 0.25) releases — a
	// demo-sized allowance; production deployments should set it
	// deliberately.
	Budget dpslog.Budget
	// Mechanisms restricts the release mechanisms this server will run
	// (wire names: "ump", "laplace", "zealous"). Empty allows
	// every registered mechanism. A request naming a mechanism outside the
	// allowlist gets a structured 400 — the option is a deployment policy,
	// not a privacy control: disabled mechanisms charge nothing because they
	// never run.
	Mechanisms []string
	// CompCacheSize bounds the shared component-plan cache that makes
	// re-solves after corpus appends incremental: solved per-component plans
	// are keyed by component content digest, so sanitizing a new corpus
	// version re-solves only the connected components the appended rows
	// actually changed (default 4096 entries; negative disables).
	CompCacheSize int
	// TraceBuffer is the ring capacity of retained request traces served by
	// GET /v1/debug/traces (default 128).
	TraceBuffer int
	// Logger, when non-nil, receives one structured record per traced
	// request (method, path, status, duration, trace ID). Scrape-path
	// requests (/healthz, /readyz, /metrics, /v1/debug/traces) are neither
	// traced nor logged.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Queue == 0 {
		c.Queue = 4 * c.Workers
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 1024
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxCorpusBytes == 0 {
		c.MaxCorpusBytes = 8 << 30
	}
	if c.MaxIngestBytes == 0 {
		c.MaxIngestBytes = 256 << 20
	}
	if c.CompCacheSize == 0 {
		c.CompCacheSize = 4096
	}
	if c.SolveParallelism == 0 {
		c.SolveParallelism = 1
	}
	if c.SolveParallelism < 0 {
		c.SolveParallelism = 0 // library default: GOMAXPROCS
	}
	if c.DataDir != "" {
		if c.Budget.Epsilon == 0 {
			c.Budget.Epsilon = math.Log(16)
		}
		if c.Budget.Delta == 0 {
			c.Budget.Delta = 1
		}
	}
	return c
}

// Server is the slserve HTTP handler. Create with New, dispose with Close.
type Server struct {
	cfg  Config
	pool *Pool
	jobs *jobStore
	// comp is the shared component-plan cache behind incremental re-solves;
	// nil when disabled. Safe to share across corpora and versions — the
	// component content digest is the reuse identity.
	comp    *dpslog.CompCache
	metrics *Metrics
	tracer  *obs.Tracer
	logger  *slog.Logger
	mux     *http.ServeMux
	started time.Time
	// ready closes once the stateful subsystems have opened (immediately in
	// stateless mode). corpora, budgets and openErr must only be read after
	// <-ready; corpora and budgets are non-nil exactly when cfg.DataDir is
	// set and the open succeeded.
	ready   chan struct{}
	openErr error
	corpora *corpus.Store
	budgets *ledger.Ledger
	// gate admission-controls streaming corpus uploads by declared bytes.
	gate *ingestGate
}

// New builds a Server with its worker pool running. With Config.DataDir
// set, the corpus store open and ledger journal replay run asynchronously:
// the server accepts traffic immediately, corpus handlers block until the
// state is ready, and GET /readyz reports the gate — so load balancers see
// liveness at once and readiness only after budget accounting has resumed
// exactly where the last process left off.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(cfg.Workers, cfg.Queue),
		jobs:    newJobStore(cfg.MaxJobs),
		metrics: NewMetrics(),
		logger:  cfg.Logger,
		mux:     http.NewServeMux(),
		started: time.Now(),
		ready:   make(chan struct{}),
		gate:    newIngestGate(cfg.MaxIngestBytes),
	}
	if cfg.CompCacheSize > 0 {
		s.comp = dpslog.NewCompCache(cfg.CompCacheSize)
	}
	// Every ended span feeds the stage histograms; root spans are already
	// covered by the request-duration histograms, so only interior stages
	// are recorded.
	s.tracer = obs.NewTracer(cfg.TraceBuffer, func(sp *obs.Span) {
		if !sp.Root() {
			s.metrics.ObserveStage(sp.Name, sp.Duration().Seconds())
		}
	})
	if cfg.DataDir == "" {
		close(s.ready)
	} else {
		go s.openState()
	}
	s.handleUntraced("GET /healthz", s.handleHealthz)
	s.handleUntraced("GET /readyz", s.handleReadyz)
	s.handleUntraced("GET /metrics", s.handleMetrics)
	s.handleUntraced("GET /v1/debug/traces", s.handleDebugTraces)
	s.handle("POST /v1/sanitize", s.handleSanitize)
	s.handle("POST /v1/jobs", s.handleJobSubmit)
	s.handle("GET /v1/jobs", s.handleJobList)
	s.handle("GET /v1/jobs/{id}", s.handleJobGet)
	s.handle("POST /v1/lambda", s.handleLambda)
	s.handle("POST /v1/stats", s.handleStats)
	s.handle(routeCorpusPut, s.corpusEnabled(s.handleCorpusPut))
	s.handle("GET /v1/corpora", s.corpusEnabled(s.handleCorpusList))
	s.handle("GET /v1/corpora/{name}", s.corpusEnabled(s.handleCorpusGet))
	s.handle("DELETE /v1/corpora/{name}", s.corpusEnabled(s.handleCorpusDelete))
	s.handle(routeCorpusAppend, s.corpusEnabled(s.handleCorpusAppend))
	s.handle("GET /v1/corpora/{name}/versions", s.corpusEnabled(s.handleCorpusVersionList))
	s.handle("GET /v1/corpora/{name}/versions/{digest}", s.corpusEnabled(s.handleCorpusVersionGet))
	s.handle("POST /v1/corpora/{name}/sanitize", s.corpusEnabled(s.handleCorpusSanitize))
	s.handle("GET /v1/corpora/{name}/budget", s.corpusEnabled(s.handleCorpusBudget))
	s.handle("GET /v1/corpora/{name}/releases", s.corpusEnabled(s.handleCorpusReleases))
	return s, nil
}

// The corpus upload routes, whose raw bodies stream through the ingest
// fold under the corpus body cap.
const (
	routeCorpusPut    = "PUT /v1/corpora/{name}"
	routeCorpusAppend = "POST /v1/corpora/{name}/append"
)

// openState opens the corpus store and replays the ledger journal, then
// closes ready. The channel close publishes the field writes (happens-
// before), so readers that wait on ready never race.
func (s *Server) openState() {
	defer close(s.ready)
	corpora, err := corpus.Open(filepath.Join(s.cfg.DataDir, "corpora"))
	if err != nil {
		s.openErr = err
		return
	}
	budgets, err := ledger.Open(filepath.Join(s.cfg.DataDir, "ledger.journal"), s.cfg.Budget)
	if err != nil {
		corpora.Close()
		s.openErr = err
		return
	}
	rec := corpora.Recovery()
	s.metrics.ObserveRecovery("chain_folded", rec.Folded)
	s.metrics.ObserveRecovery("chain_migrated", rec.Migrated)
	s.metrics.ObserveRecovery("chain_torn_tail", rec.TornTails)
	s.metrics.ObserveRecovery("ledger_torn_tail", budgets.TornTails())
	s.corpora, s.budgets = corpora, budgets
}

// Close stops the worker pool — in-flight solves finish, queued tasks are
// drained and failed with ErrClosed (async jobs transition to "failed") —
// and releases the ledger and corpus journals (waiting out the async open
// first).
func (s *Server) Close() {
	s.pool.Close()
	<-s.ready
	if s.budgets != nil {
		s.budgets.Close()
		s.corpora.Close()
	}
}

// ServeHTTP implements http.Handler. The mux's match picks the body cap; a
// request no route matches is answered by the instrumented "/" handler with
// the mux's own 404/405 verdict.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	verdict, pattern := s.mux.Handler(r)
	if limit := s.bodyCap(pattern, r); r.Body != nil && limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	if pattern == "" {
		s.serve("/", true, func(w http.ResponseWriter, r *http.Request) { s.handleUnrouted(w, r, verdict) }, w, r)
		return
	}
	// Dispatch through the mux rather than calling verdict: only
	// ServeMux.ServeHTTP binds the {name} path values the handlers read.
	s.mux.ServeHTTP(w, r)
}

// bodyCap picks the request-body limit for one matched pattern; ≤ 0 means
// no cap. Only a *streaming* corpus upload (raw TSV/AOL body) earns the
// large corpus cap: a JSON-envelope upload is slurped by decodeJSON, so it
// keeps the tight general cap — otherwise one multi-GB JSON body could
// materialize in memory.
func (s *Server) bodyCap(pattern string, r *http.Request) int64 {
	if (pattern == routeCorpusPut || pattern == routeCorpusAppend) && !isJSONRequest(r) {
		return s.cfg.MaxCorpusBytes
	}
	return s.cfg.MaxBodyBytes
}

// handle registers a pattern with per-request metrics instrumentation, a
// root trace span (propagated via the request context and echoed in the
// X-Trace-Id response header) and structured request logging. The pattern
// doubles as the handler label in /metrics and as the root span name.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { s.serve(pattern, true, h, w, r) })
}

// handleUntraced registers a scrape-path pattern: metrics-observed but
// neither traced nor logged, so health probes and Prometheus scrapes do not
// evict real request traces from the ring buffer or spam the access log.
func (s *Server) handleUntraced(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { s.serve(pattern, false, h, w, r) })
}

// serve runs h under the instrumentation of label: the request metrics
// and, when traced, the root span and the access log.
func (s *Server) serve(label string, traced bool, h http.HandlerFunc, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	var root *obs.Span
	if traced {
		var ctx context.Context
		ctx, root = s.tracer.Start(r.Context(), label)
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
		w.Header().Set("X-Trace-Id", root.TraceID)
		r = r.WithContext(ctx)
	}
	h(rec, r)
	elapsed := time.Since(start)
	if root != nil {
		root.SetAttr("status", rec.code)
		root.End()
	}
	s.metrics.Observe(label, rec.code, elapsed.Seconds())
	if s.logger != nil && root != nil {
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.code),
			slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000),
			slog.String("trace_id", root.TraceID),
		)
	}
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// --- Wire types ----------------------------------------------------------

// Record is the JSON form of one search log tuple.
type Record struct {
	User  string `json:"user"`
	Query string `json:"query"`
	URL   string `json:"url"`
	Count int    `json:"count"`
}

// logBody is the {records, tsv} log envelope every JSON body that carries a
// log embeds. Exactly one of Records and TSV must carry the log.
type logBody struct {
	Records []Record `json:"records,omitempty"`
	TSV     string   `json:"tsv,omitempty"`
}

// log materializes the log the envelope carries.
func (b logBody) log() (*dpslog.Log, error) {
	switch {
	case len(b.Records) > 0 && b.TSV != "":
		return nil, errors.New("provide records or tsv, not both")
	case len(b.Records) > 0:
		recs := make([]dpslog.Record, len(b.Records))
		for i, r := range b.Records {
			recs[i] = dpslog.Record{User: r.User, Query: r.Query, URL: r.URL, Count: r.Count}
		}
		return dpslog.NewLog(recs)
	case b.TSV != "":
		return dpslog.ReadTSV(strings.NewReader(b.TSV))
	}
	return nil, errors.New("empty log: provide records or tsv")
}

// sanitizeRequest is the JSON body of POST /v1/sanitize and POST /v1/jobs.
type sanitizeRequest struct {
	Options dpslog.Options `json:"options"`
	logBody
}

// planJSON is the wire form of the audited optimization outcome.
type planJSON struct {
	Kind                string  `json:"kind"`
	OutputSize          int     `json:"output_size"`
	Objective           float64 `json:"objective"`
	RelaxationObjective float64 `json:"relaxation_objective"`
	Lambda              int     `json:"lambda,omitzero"`
	Iterations          int     `json:"iterations"`
	Components          int     `json:"components"`
	// ReusedComponents counts the connected components whose plans were
	// served from the component cache rather than re-solved — nonzero on
	// the incremental re-solves that follow a corpus append.
	ReusedComponents int  `json:"reused_components,omitzero"`
	NoiseApplied     bool `json:"noise_applied,omitzero"`
	// Counts are the per-pair output counts over the preprocessed input's
	// pair order, so clients can re-audit the release with VerifyCounts.
	Counts []int `json:"counts"`
}

// pairJSON is the wire form of one aggregate release row: a query-url pair
// and its noisy count, with no user attribution.
type pairJSON struct {
	Query string  `json:"query"`
	URL   string  `json:"url"`
	Count float64 `json:"count"`
}

// sanitizeResponse is the wire form of a completed sanitization. Every
// field but ElapsedMS and Trace is a deterministic function of (corpus,
// canonical options, seed), so a repeated request re-derives it exactly.
type sanitizeResponse struct {
	Digest           string                 `json:"digest"`
	Seed             uint64                 `json:"seed"`
	InputSize        int                    `json:"input_size"`
	PreprocessedSize int                    `json:"preprocessed_size"`
	Preprocess       dpslog.PreprocessStats `json:"preprocess"`
	DroppedUsers     []string               `json:"dropped_users,omitempty"`
	Plan             planJSON               `json:"plan"`
	Records          []Record               `json:"records"`
	// Mechanism is the resolved release mechanism name ("ump" for the
	// paper's pipeline). Aggregate mechanisms populate Pairs instead of
	// Records.
	Mechanism string `json:"mechanism,omitempty"`
	// Pairs is the aggregate release of the histogram mechanisms
	// (laplace, zealous).
	Pairs []pairJSON `json:"pairs,omitempty"`
	// ReleaseDigest is the content hash of the released data — the output
	// log digest for ump, a hash over the released pair rows for aggregate
	// mechanisms. Identical seeds and canonical options yield identical
	// release digests.
	ReleaseDigest string  `json:"release_digest,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	// Trace is the request's span tree, stamped on the response when the
	// client asked for ?debug=trace.
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

type lambdaRequest struct {
	Epsilon float64 `json:"epsilon,omitzero"`
	EExp    float64 `json:"eexp,omitzero"` // e^ε, the paper's parameterization
	Delta   float64 `json:"delta"`
	logBody
}

// statusClientClosedRequest is the nginx-convention status recorded when
// the client disconnects before the solve completes; no body reaches the
// client, but metrics must not count the request as a 200.
const statusClientClosedRequest = 499

// --- Helpers -------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func isJSONRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return strings.HasPrefix(ct, "application/json")
}

// decodeJSON strictly decodes a JSON request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}

// decodeLogJSON strictly decodes a bare {records, tsv} JSON body into its
// log.
func decodeLogJSON(r *http.Request) (*dpslog.Log, error) {
	var b logBody
	if err := decodeJSON(r, &b); err != nil {
		return nil, err
	}
	return b.log()
}

// decodeSanitizeRequest reads either a JSON envelope or a raw TSV body with
// query-parameter options.
func decodeSanitizeRequest(r *http.Request) (*dpslog.Log, dpslog.Options, error) {
	if isJSONRequest(r) {
		var req sanitizeRequest
		if err := decodeJSON(r, &req); err != nil {
			return nil, dpslog.Options{}, err
		}
		l, err := req.log()
		return l, req.Options, err
	}
	opts, err := optionsFromQuery(r)
	if err != nil {
		return nil, dpslog.Options{}, err
	}
	l, err := dpslog.ReadTSV(r.Body)
	if err != nil {
		return nil, dpslog.Options{}, fmt.Errorf("bad TSV body: %w", err)
	}
	return l, opts, nil
}

// optionsFromQuery parses the TSV-body option surface: mechanism, eexp or
// epsilon, delta, objective, support, size, solver, seed, d.
func optionsFromQuery(r *http.Request) (dpslog.Options, error) {
	q := r.URL.Query()
	var opts dpslog.Options
	opts.Mechanism = q.Get("mechanism")
	getF := func(name string, dst *float64) error {
		if v := q.Get(name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad query parameter %s=%q: %v", name, v, err)
			}
			*dst = f
		}
		return nil
	}
	var eexp float64
	if err := getF("eexp", &eexp); err != nil {
		return opts, err
	}
	if err := getF("epsilon", &opts.Epsilon); err != nil {
		return opts, err
	}
	if eexp != 0 {
		opts.Epsilon = math.Log(eexp)
	}
	if err := getF("delta", &opts.Delta); err != nil {
		return opts, err
	}
	if err := getF("support", &opts.MinSupport); err != nil {
		return opts, err
	}
	obj, err := dpslog.ParseObjective(q.Get("objective"))
	if err != nil {
		return opts, err
	}
	opts.Objective = obj
	if v := q.Get("size"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad query parameter size=%q: %v", v, err)
		}
		opts.OutputSize = n
	}
	opts.Solver = q.Get("solver")
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad query parameter seed=%q: %v", v, err)
		}
		opts.Seed = n
	}
	if v := q.Get("parallelism"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad query parameter parallelism=%q: %v", v, err)
		}
		opts.Parallelism = n
	}
	if v := q.Get("d"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad query parameter d=%q: %v", v, err)
		}
		opts.D = n
	}
	return opts, nil
}

// resolveMechanism maps the request's mechanism selection to its registered
// implementation, validates the options against it and enforces the
// configured allowlist. Errors are client errors (400): an unknown or
// disabled mechanism name, or options the mechanism cannot run.
func (s *Server) resolveMechanism(opts dpslog.Options) (mechanism.Mechanism, error) {
	m, err := mechanism.Get(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(opts); err != nil {
		return nil, err
	}
	if len(s.cfg.Mechanisms) > 0 && !slices.Contains(s.cfg.Mechanisms, m.Name()) {
		return nil, fmt.Errorf("mechanism %q is disabled on this server (enabled: %s)",
			m.Name(), strings.Join(s.cfg.Mechanisms, ", "))
	}
	return m, nil
}

// seedFromDigest derives the deterministic default seed for requests that
// omit one: the first 8 bytes of the corpus digest. The same corpus posted
// twice without a seed sanitizes identically.
func seedFromDigest(digest string) uint64 {
	b, err := hex.DecodeString(digest)
	if err != nil || len(b) < 8 {
		return 1
	}
	return binary.BigEndian.Uint64(b[:8])
}

// releaseKey is the ledger's idempotency identity of a release: corpus
// digest ⊕ canonical options (the seed included). Every mechanism is
// deterministic in it, so one key names one release digest.
func releaseKey(digest string, opts dpslog.Options) string {
	canon, err := json.Marshal(opts.Canonical())
	if err != nil {
		return digest // unreachable: Options marshals cleanly
	}
	return digest + "\x00" + string(canon)
}

// --- Sanitization core ---------------------------------------------------

// runSanitize derives one release through the resolved mechanism. It is
// called on a pool worker for sync requests, async jobs, and corpus
// releases, repeats included. digest is the precomputed corpus identity —
// corpus requests pass the stored digest so referencing a corpus never
// re-hashes it.
func (s *Server) runSanitize(ctx context.Context, mech mechanism.Mechanism, l *dpslog.Log, opts dpslog.Options, digest string) (*sanitizeResponse, error) {
	obs.FromContext(ctx).SetAttr("mechanism", mech.Name())
	if opts.Seed == 0 {
		opts.Seed = seedFromDigest(digest)
	}
	if opts.Parallelism == 0 {
		// The server default, not the library default: Workers concurrent
		// solves already fill the cores, so each solve runs its components
		// at the configured parallelism (1 unless -solve-parallelism says
		// otherwise). The canonical options ignore Parallelism — plans are
		// invariant in it — so it is not part of the release key.
		opts.Parallelism = s.cfg.SolveParallelism
	}
	// The component-plan cache makes post-append UMP re-solves incremental:
	// components untouched by the append are served byte-identically from
	// cache, only the changed ones re-solve. One cache serves every corpus
	// and version — the component content digest is the reuse identity.
	// The aggregate mechanisms ignore it.
	opts.Comp = s.comp
	rel, err := mech.Sanitize(ctx, l, opts)
	if err != nil {
		return nil, err
	}
	resp := &sanitizeResponse{
		Digest:        digest,
		Seed:          opts.Seed,
		InputSize:     l.Size(),
		Records:       []Record{},
		Mechanism:     mech.Name(),
		ReleaseDigest: rel.Digest(),
	}
	if rel.Output != nil {
		res := rel.Result
		resp.Records = make([]Record, 0, rel.Output.NumTriplets())
		for _, rec := range rel.Output.Records() {
			resp.Records = append(resp.Records, Record{User: rec.User, Query: rec.Query, URL: rec.URL, Count: rec.Count})
		}
		resp.PreprocessedSize = res.Preprocessed.Size()
		resp.Preprocess = res.PreStats
		resp.DroppedUsers = res.DroppedUsers
		resp.Plan = planJSON{
			Kind:                res.Plan.Kind,
			OutputSize:          res.Plan.OutputSize,
			Objective:           res.Plan.Objective,
			RelaxationObjective: res.Plan.RelaxationObjective,
			Lambda:              res.Plan.Lambda,
			Iterations:          res.Plan.Iterations,
			Components:          res.Plan.Components,
			ReusedComponents:    res.Plan.Reused,
			NoiseApplied:        res.Plan.NoiseApplied,
			Counts:              res.Plan.Counts,
		}
		s.metrics.ObserveSolveComponents(res.Plan.Components)
		s.metrics.ObserveSolver(res.Plan.Iterations, res.Plan.Solver)
	} else {
		// Aggregate mechanisms: no plan, no preprocessing stats — the
		// release is the noisy pair histogram.
		resp.Pairs = make([]pairJSON, 0, len(rel.Pairs))
		for _, pc := range rel.Pairs {
			resp.Pairs = append(resp.Pairs, pairJSON{Query: pc.Query, URL: pc.URL, Count: pc.Count})
		}
	}
	s.metrics.ObserveSanitizeMechanism(mech.Name())
	return resp, nil
}

// --- Handlers ------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
	})
}

// handleReadyz is the readiness gate: 200 only once the corpus store has
// opened and the ledger journal has fully replayed (trivially immediate in
// stateless mode). Liveness is /healthz; this answers "may traffic be
// routed here yet".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.ready:
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
		return
	}
	if s.openErr != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "error",
			"error":  s.openErr.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ready",
		"corpus_store": s.corpora != nil,
		"uptime_s":     time.Since(s.started).Seconds(),
	})
}

// handleDebugTraces serves the ring buffer of recently completed request
// traces, newest first.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  s.tracer.Total(),
		"traces": s.tracer.Traces(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	workers, busy, queued := s.pool.Stats()
	var lg *LedgerGauges
	// The ledger gauges need the stateful subsystems; a scrape during the
	// async open simply omits them rather than blocking Prometheus.
	stateReady := false
	select {
	case <-s.ready:
		stateReady = s.openErr == nil
	default:
	}
	if stateReady && s.corpora != nil {
		lg = &LedgerGauges{
			BudgetEpsilon: s.cfg.Budget.Epsilon,
			BudgetDelta:   s.cfg.Budget.Delta,
		}
		for _, m := range s.corpora.List() {
			lg.Corpora++
			st := s.budgets.Status(m.Name, m.Digest)
			lg.PerCorpus = append(lg.PerCorpus, CorpusSpend{
				Name:         m.Name,
				SpentEpsilon: st.Spent.Epsilon,
				SpentDelta:   st.Spent.Delta,
				Releases:     st.Releases,
			})
		}
	}
	inFlightBytes, inFlightUploads := s.gate.Stats()
	compHits, compMisses := s.comp.Counters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, Gauges{
		Workers:               workers,
		WorkersBusy:           busy,
		QueueDepth:            queued,
		Jobs:                  s.jobs.CountByState(),
		CompCacheEntries:      s.comp.Len(),
		CompCacheHits:         compHits,
		CompCacheMisses:       compMisses,
		IngestInFlightBytes:   inFlightBytes,
		IngestInFlightUploads: inFlightUploads,
		IngestCapacityBytes:   max(s.cfg.MaxIngestBytes, 0),
		Ledger:                lg,
	})
}

// handleUnrouted answers a request no route matches with the mux's own
// verdict in the error envelope: 405 with the mux's Allow header when the
// path is routed for other methods, else 404. Any other verdict (a redirect
// to the cleaned path) is served as the mux wrote it.
func (s *Server) handleUnrouted(w http.ResponseWriter, r *http.Request, verdict http.Handler) {
	probe := &verdictRecorder{header: http.Header{}}
	verdict.ServeHTTP(probe, r)
	switch probe.code {
	case http.StatusMethodNotAllowed:
		allow := probe.header.Get("Allow")
		w.Header().Set("Allow", allow)
		s.writeError(w, http.StatusMethodNotAllowed, "%s does not allow %s (allowed: %s)", r.URL.Path, r.Method, allow)
	case http.StatusNotFound:
		s.writeError(w, http.StatusNotFound, "no such endpoint: %s %s", r.Method, r.URL.Path)
	default:
		verdict.ServeHTTP(w, r)
	}
}

// verdictRecorder captures the status and headers of the mux's fallback
// handler, discarding its plain-text body.
type verdictRecorder struct {
	header http.Header
	code   int
}

func (v *verdictRecorder) Header() http.Header         { return v.header }
func (v *verdictRecorder) Write(b []byte) (int, error) { return len(b), nil }
func (v *verdictRecorder) WriteHeader(code int)        { v.code = code }

func (s *Server) handleSanitize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx := r.Context()
	_, dsp := obs.Start(ctx, "decode")
	l, opts, err := decodeSanitizeRequest(r)
	dsp.End()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Validate before queueing so configuration mistakes fail fast with 400
	// instead of consuming a worker slot.
	mech, err := s.resolveMechanism(opts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, hsp := obs.Start(ctx, "digest")
	digest := dpslog.Digest(l)
	hsp.End()
	var (
		resp   *sanitizeResponse
		runErr error
	)
	if !s.runPooled(w, r, func() { resp, runErr = s.runSanitize(ctx, mech, l, opts, digest) }) {
		return
	}
	if runErr != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "%v", runErr)
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if wantTrace(r) {
		// Snapshot from inside the still-open root span: it renders with its
		// live duration and in_flight set, taken at the same instant as
		// ElapsedMS above.
		resp.Trace = obs.FromContext(ctx).Snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

// runPooled runs work on a pool worker and waits for it. A queue.wait span
// measures the backlog time: it closes as the first act of the task, and
// again (End is idempotent) on the paths where work never ran. When work
// did not run, runPooled writes the shed response and returns false.
func (s *Server) runPooled(w http.ResponseWriter, r *http.Request, work func()) bool {
	_, qsp := obs.Start(r.Context(), "queue.wait")
	err := s.pool.Do(r.Context(), func() { qsp.End(); work() })
	qsp.End()
	if err != nil {
		s.writePoolError(w, err)
		return false
	}
	return true
}

// writePoolError writes the response for a task the pool did not run: 503
// with Retry-After when the backlog is full, 503 when the server is
// shutting down, and 499 when the client went away (the work still
// finishes in the background).
func (s *Server) writePoolError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "worker pool saturated; retry shortly")
	case errors.Is(err, ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, "server shutting down")
	default:
		w.WriteHeader(statusClientClosedRequest)
	}
}

// wantTrace reports whether the client asked for the span tree inline.
func wantTrace(r *http.Request) bool {
	return r.URL.Query().Get("debug") == "trace"
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	l, opts, err := decodeSanitizeRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mech, err := s.resolveMechanism(opts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job := s.jobs.Create()
	submit := func() {
		s.jobs.Start(job.ID)
		// Async jobs outlive their submitting request, so each run is its
		// own root trace (visible in /v1/debug/traces by job_id).
		//slvet:ignore ctxflow async jobs deliberately detach: they outlive the submitting request and are cancelled via the job store, not the request context
		ctx, root := s.tracer.Start(context.Background(), "job sanitize")
		root.SetAttr("job_id", job.ID)
		defer root.End()
		start := time.Now()
		resp, err := s.runSanitize(ctx, mech, l, opts, dpslog.Digest(l))
		if err != nil {
			root.SetAttr("error", err.Error())
			s.jobs.Fail(job.ID, err)
			return
		}
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		s.jobs.Finish(job.ID, resp)
	}
	// The abort path fails the job if the server shuts down while it is
	// still queued, so no job is ever stranded in "queued".
	if err := s.pool.SubmitTask(submit, func(e error) { s.jobs.Fail(job.ID, e) }); err != nil {
		// Load-shedding is not a job outcome: drop the never-started job so
		// the store doesn't accumulate failures no client holds an ID for.
		s.jobs.Remove(job.ID)
		s.writePoolError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.List()
	// The listing is an index: strip the (potentially huge) embedded
	// results; clients fetch a specific job's release via /v1/jobs/{id}.
	for i := range jobs {
		jobs[i].Result = nil
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleLambda(w http.ResponseWriter, r *http.Request) {
	var req lambdaRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	eps := req.Epsilon
	if req.EExp != 0 {
		eps = math.Log(req.EExp)
	}
	l, err := req.log()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var (
		lambda int
		runErr error
	)
	// Same oversubscription guard as sanitize solves: the worker pool
	// already fills the cores, so components solve at the configured
	// per-solve parallelism rather than the library's GOMAXPROCS.
	if !s.runPooled(w, r, func() { lambda, runErr = dpslog.LambdaParallelism(l, eps, req.Delta, s.cfg.SolveParallelism) }) {
		return
	}
	if runErr != nil {
		s.writeError(w, http.StatusBadRequest, "%v", runErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"digest":  dpslog.Digest(l),
		"epsilon": eps,
		"delta":   req.Delta,
		"lambda":  lambda,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var (
		l   *dpslog.Log
		err error
	)
	if isJSONRequest(r) {
		l, err = decodeLogJSON(r)
	} else {
		l, err = dpslog.ReadTSV(r.Body)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pre, preStats := dpslog.Preprocess(l)
	writeJSON(w, http.StatusOK, map[string]any{
		"digest":       dpslog.Digest(l),
		"raw":          dpslog.ComputeStats(l),
		"preprocessed": dpslog.ComputeStats(pre),
		"preprocess":   preStats,
	})
}
