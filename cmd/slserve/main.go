// Command slserve runs the HTTP sanitization service: the dpslog library
// behind a JSON/TSV API with a bounded worker pool, an async job store and
// Prometheus metrics (see internal/server for the endpoint reference).
//
// Usage:
//
//	slserve [-addr :8080] [-ops-addr ADDR] [-workers N] [-queue N]
//	        [-max-jobs N] [-max-body BYTES] [-solve-parallelism N]
//	        [-data-dir DIR] [-budget-eexp X | -budget-epsilon X]
//	        [-budget-delta X] [-mechanisms LIST] [-max-ingest-bytes BYTES]
//	        [-max-corpus-bytes BYTES] [-comp-cache N] [-trace-buffer N]
//	        [-quiet]
//
// The sanitize endpoints dispatch on ?mechanism= (or the JSON "mechanism"
// option): ump (the paper's pipeline, default), laplace, zealous.
// -mechanisms restricts which of them this deployment will run (comma-
// separated wire names; empty allows all).
//
// Observability: every API request runs under a trace whose ID is echoed in
// the X-Trace-Id response header and logged as one structured JSON line on
// stderr; ?debug=trace on the sanitize endpoints returns the span tree
// inline, and GET /v1/debug/traces serves the ring buffer of recent traces
// (-trace-buffer sizes it). With -ops-addr, a second listener serves the
// operational surface: net/http/pprof under /debug/pprof/, /healthz,
// /readyz (readiness gates on the corpus store being open and the ledger
// journal fully replayed) and /metrics.
//
// With -data-dir, the stateful corpus subsystem is enabled: corpora are
// uploaded once to /v1/corpora/{name} and sanitized by reference, every
// release charged against the per-lineage (ε, δ) budget: one budget for
// every version of a corpus name, and for every name that releases a
// digest another has released. The release journal under the data
// directory is replayed on restart, so accounting survives crashes. No
// response is cached: repeating a journaled release re-derives it, and a
// repeat whose release digest differs from the journaled one is withheld
// with a 500. POST /v1/corpora/{name}/append folds new rows into a new
// immutable corpus version with its own digest, which continues the
// corpus's lineage; the shared component-plan cache (-comp-cache) makes
// the re-solve after an append incremental, re-solving only the connected
// components the appended rows touched.
//
// Every non-2xx response carries the structured error envelope {"error",
// "code", "status", "detail"?}.
//
// Corpus uploads stream through the one ingest fold (searchlog.Fold via
// internal/ingest: one scanner goroutine feeding one Builder): the body is
// never slurped, memory is bounded by the aggregated histogram, and
// -max-ingest-bytes admission-controls the declared bytes of concurrent
// uploads (excess uploads get 503). -max-corpus-bytes is the per-upload
// body cap; the /metrics exposition reports rows/sec and the live-heap
// estimate of the latest ingest.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to 10 seconds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"dpslog"
	"dpslog/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	opsAddr := flag.String("ops-addr", "", "operational listener address (pprof, healthz, readyz, metrics); empty disables")
	traceBuffer := flag.Int("trace-buffer", 0, "retained request traces for /v1/debug/traces (0 = 128)")
	quiet := flag.Bool("quiet", false, "suppress per-request JSON access logging")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "worker pool backlog (0 = 4×workers)")
	maxJobs := flag.Int("max-jobs", 0, "retained async jobs (0 = 1024)")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes (0 = 32 MiB)")
	solvePar := flag.Int("solve-parallelism", 0, "component parallelism per solve when the request omits it (0 = 1, sequential; negative = GOMAXPROCS)")
	dataDir := flag.String("data-dir", "", "enable the stateful corpus store + privacy ledger under this directory (empty = stateless mode)")
	budgetEExp := flag.Float64("budget-eexp", 0, "per-lineage privacy budget as e^ε (overrides -budget-epsilon; 0 = default ln 16)")
	budgetEps := flag.Float64("budget-epsilon", 0, "per-lineage privacy budget ε (0 = default ln 16)")
	budgetDelta := flag.Float64("budget-delta", 0, "per-lineage privacy budget δ (0 = default 1.0)")
	mechanisms := flag.String("mechanisms", "", "comma-separated mechanism allowlist (ump, laplace, zealous; empty = all)")
	maxIngest := flag.Int64("max-ingest-bytes", 0, "declared bytes of concurrent corpus uploads admitted at once (0 = 256 MiB, negative = unguarded)")
	maxCorpus := flag.Int64("max-corpus-bytes", 0, "per-upload corpus body cap in bytes (0 = 8 GiB, negative = uncapped)")
	compCache := flag.Int("comp-cache", 0, "component-plan cache entries for incremental post-append re-solves (0 = 4096, negative disables)")
	flag.Parse()

	budget := dpslog.Budget{Epsilon: *budgetEps, Delta: *budgetDelta}
	if *budgetEExp != 0 {
		budget.Epsilon = math.Log(*budgetEExp)
	}
	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	var allowed []string
	if *mechanisms != "" {
		for _, name := range strings.Split(*mechanisms, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !slices.Contains(dpslog.Mechanisms(), name) {
				fatal(fmt.Errorf("-mechanisms: unknown mechanism %q (valid: %s)", name, strings.Join(dpslog.Mechanisms(), ", ")))
			}
			allowed = append(allowed, name)
		}
	}
	srv, err := server.New(server.Config{
		Workers:          *workers,
		Queue:            *queue,
		MaxJobs:          *maxJobs,
		MaxBodyBytes:     *maxBody,
		SolveParallelism: *solvePar,
		DataDir:          *dataDir,
		Budget:           budget,
		Mechanisms:       allowed,
		MaxIngestBytes:   *maxIngest,
		MaxCorpusBytes:   *maxCorpus,
		CompCacheSize:    *compCache,
		TraceBuffer:      *traceBuffer,
		Logger:           logger,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	hs := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 2)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("slserve: listening on %s", *addr)

	var ops *http.Server
	if *opsAddr != "" {
		ops = &http.Server{Addr: *opsAddr, Handler: srv.OpsHandler()}
		go func() { errc <- ops.ListenAndServe() }()
		log.Printf("slserve: ops listener (pprof, readyz, metrics) on %s", *opsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case s := <-sig:
		log.Printf("slserve: %v, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if ops != nil {
			_ = ops.Shutdown(ctx)
		}
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slserve:", err)
	os.Exit(1)
}
