package server

// The stateful corpus subsystem of slserve: named, disk-backed corpora
// (internal/corpus) sanitized by reference, with every release charged
// against its corpus's lineage — every version of the name, and every
// name sharing a released digest with it — under one (ε, δ) budget and
// sequential composition (internal/ledger). Upload once, sanitize many —
// a release request carries options only, so throughput is no longer
// bottlenecked on re-uploading and re-parsing megabyte TSV bodies, and
// the privacy spend of a dataset is enforced across its whole release
// history rather than silently recomposed per request.

import (
	"cmp"
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"dpslog"
	"dpslog/internal/corpus"
	"dpslog/internal/ingest"
	"dpslog/internal/ledger"
	"dpslog/internal/obs"
)

// corpusMetaJSON is the wire form of a stored corpus: its identity plus
// its lineage's live budget accounting. Versions is the append chain, base
// first — populated on single-corpus reads, omitted from the listing.
type corpusMetaJSON struct {
	corpus.Meta
	Budget   ledger.Status    `json:"budget"`
	Versions []corpus.Version `json:"versions,omitempty"`
}

// corpusSanitizeRequest is the options-only body of POST
// /v1/corpora/{name}/sanitize — the corpus itself is referenced by name.
type corpusSanitizeRequest struct {
	Options dpslog.Options `json:"options"`
}

// corpusSanitizeResponse extends a sanitization with its ledger entry and
// the lineage's post-charge accounting. Version is the digest of the corpus
// version the release was computed from — the latest unless the request
// selected an ancestor with ?version=.
type corpusSanitizeResponse struct {
	sanitizeResponse
	Corpus  string         `json:"corpus"`
	Version string         `json:"version"`
	Release dpslog.Release `json:"release"`
	Budget  ledger.Status  `json:"budget"`
}

// corpusAppendResponse is the wire form of a completed append: the new
// latest metadata, the chain entry it created, and the budget of the
// corpus's lineage, which the new version continues.
type corpusAppendResponse struct {
	corpus.Meta
	Version      corpus.Version `json:"version"`
	TouchedUsers int            `json:"touched_users"`
	Budget       ledger.Status  `json:"budget"`
}

// overBudgetDetail is the 429 envelope detail: what was asked, what is
// left.
type overBudgetDetail struct {
	Corpus    string        `json:"corpus"`
	Digest    string        `json:"digest"`
	Requested dpslog.Budget `json:"requested"`
	Budget    dpslog.Budget `json:"budget"`
	Spent     dpslog.Budget `json:"spent"`
	Remaining dpslog.Budget `json:"remaining"`
}

// corpusEnabled gates a corpus handler on the subsystem being configured
// and opened. During the async open (store scan + ledger journal replay)
// requests wait rather than fail, bounded by the client's own context; a
// failed open answers 503 with the cause.
func (s *Server) corpusEnabled(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-s.ready:
		case <-r.Context().Done():
			w.WriteHeader(statusClientClosedRequest)
			return
		}
		if s.openErr != nil {
			s.writeError(w, http.StatusServiceUnavailable, "corpus subsystem failed to open: %v", s.openErr)
			return
		}
		if s.corpora == nil {
			s.writeError(w, http.StatusServiceUnavailable, "corpus store not configured: start slserve with -data-dir")
			return
		}
		h(w, r)
	}
}

func (s *Server) writeOverBudget(w http.ResponseWriter, name string, over *dpslog.OverBudgetError) {
	w.Header().Set("Retry-After", "86400") // budget does not replenish; a long hint
	s.writeErrorDetail(w, http.StatusTooManyRequests, "over_budget", overBudgetDetail{
		Corpus:    name,
		Digest:    over.Digest,
		Requested: over.Requested,
		Budget:    over.Budget,
		Spent:     over.Spent,
		Remaining: over.Remaining,
	}, "%s", over.Error())
}

// uploadFormat negotiates the raw-body format of a corpus upload or append
// from the Content-Type header:
//
//	text/tab-separated-values  canonical 4-column TSV (also text/plain,
//	                           application/octet-stream, or no Content-Type)
//	application/x-aol-log      the historical AOL 5-column form
//
// Unrecognized content types fall back to TSV rather than 415, preserving
// the historical any-body-is-TSV behavior for curl-style clients that never
// set a type.
func uploadFormat(r *http.Request) ingest.Format {
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if strings.TrimSpace(strings.ToLower(ct)) == "application/x-aol-log" {
		return ingest.FormatAOL
	}
	return ingest.FormatTSV
}

// decodeCorpusUpload materializes the uploaded log of a PUT or append:
// a JSON envelope {"records": [...]} / {"tsv": "..."} slurped under the
// general body cap, or a raw body in the negotiated format streamed through
// the streaming ingest fold — bounded memory however large the upload, with
// the admission gate (managed by the caller) shedding uploads that would
// overcommit it. On failure the response has been written and the second
// result is false.
func (s *Server) decodeCorpusUpload(w http.ResponseWriter, r *http.Request) (*dpslog.Log, bool) {
	if isJSONRequest(r) {
		// Every envelope failure is the client's 400, an over-cap body
		// included: decodeJSON reports it as malformed JSON.
		l, err := decodeLogJSON(r)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return nil, false
		}
		return l, true
	}
	_, isp := obs.Start(r.Context(), "ingest")
	l, st, err := ingest.Ingest(r.Body, ingest.Config{Format: uploadFormat(r)})
	if err == nil {
		isp.SetAttr("rows", st.Rows)
		isp.SetAttr("rows_per_sec", st.RowsPerSec)
	}
	isp.End()
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		s.metrics.ObserveIngest(st.Rows, st.RowsPerSec, st.PeakHeapBytes)
		return l, true
	case errors.As(err, &tooBig):
		s.writeError(w, http.StatusRequestEntityTooLarge, "corpus body exceeds the %d-byte cap", tooBig.Limit)
	default:
		s.writeError(w, http.StatusBadRequest, "%v", err)
	}
	s.metrics.ObserveIngestFailure()
	return nil, false
}

// reserveIngest acquires ingest-gate capacity for the request body (or
// writes the 503). Chunked uploads carry no Content-Length; they reserve a
// quarter of the gate. The caller must release the returned reservation.
func (s *Server) reserveIngest(w http.ResponseWriter, r *http.Request) (reserve int64, ok bool) {
	reserve = r.ContentLength
	if reserve <= 0 {
		reserve = s.cfg.MaxIngestBytes / 4
	}
	if !s.gate.tryAcquire(reserve) {
		inFlight, _ := s.gate.Stats()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "corpus ingest capacity exhausted (%d bytes in flight); retry shortly", inFlight)
		return 0, false
	}
	return reserve, true
}

// handleCorpusPut uploads (or replaces) a corpus, resetting its version
// chain to a single base version (the privacy ledger survives either way —
// the new base continues the name's lineage).
func (s *Server) handleCorpusPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !corpus.ValidName(name) {
		s.writeError(w, http.StatusBadRequest, "invalid corpus name %q (want 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric, no .d<n> suffix)", name)
		return
	}
	// Reserve ingest capacity before reading a byte.
	reserve, ok := s.reserveIngest(w, r)
	if !ok {
		return
	}
	defer s.gate.release(reserve)
	l, ok := s.decodeCorpusUpload(w, r)
	if !ok {
		return
	}
	if l.Size() == 0 {
		s.writeError(w, http.StatusBadRequest, "refusing to store an empty corpus")
		return
	}
	_, existed := s.corpora.Meta(name)
	m, err := s.corpora.Put(name, l)
	if err != nil {
		// Name and emptiness were validated above; what remains is the
		// server's own disk failing, which is not the client's fault.
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, corpusMetaJSON{Meta: m, Budget: s.budgets.Status(m.Name, m.Digest)})
}

// handleCorpusAppend folds new rows into the latest version of a stored
// corpus, producing a new immutable version (POST /v1/corpora/{name}/append).
// The body is the same shape as a PUT — raw TSV/AOL streamed through the
// streaming ingest fold, or a small JSON envelope. The new version has its own
// digest but continues the corpus's lineage, so its releases draw on the
// budget its ancestors' releases spent; releases already journaled against
// ancestor versions stay replayable and spend-free.
func (s *Server) handleCorpusAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.corpora.Meta(name); !ok {
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", name)
		return
	}
	reserve, ok := s.reserveIngest(w, r)
	if !ok {
		return
	}
	defer s.gate.release(reserve)
	l, ok := s.decodeCorpusUpload(w, r)
	if !ok {
		return
	}
	m, v, touched, err := s.corpora.AppendCtx(r.Context(), name, l)
	switch {
	case errors.Is(err, corpus.ErrEmptyDelta):
		s.writeError(w, http.StatusBadRequest, "refusing to append an empty delta")
		return
	case errors.Is(err, corpus.ErrNotFound): // raced a DELETE
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", name)
		return
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, corpusAppendResponse{
		Meta:         m,
		Version:      v,
		TouchedUsers: len(touched),
		Budget:       s.budgets.Status(m.Name, m.Digest),
	})
}

func (s *Server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	metas := s.corpora.List()
	out := make([]corpusMetaJSON, len(metas))
	for i, m := range metas {
		out[i] = corpusMetaJSON{Meta: m, Budget: s.budgets.Status(m.Name, m.Digest)}
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpora": out})
}

// lookupCorpus resolves {name} or writes the 404.
func (s *Server) lookupCorpus(w http.ResponseWriter, r *http.Request) (corpus.Meta, bool) {
	name := r.PathValue("name")
	m, ok := s.corpora.Meta(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", name)
		return corpus.Meta{}, false
	}
	return m, true
}

func (s *Server) handleCorpusGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupCorpus(w, r)
	if !ok {
		return
	}
	vs, _ := s.corpora.Versions(m.Name)
	writeJSON(w, http.StatusOK, corpusMetaJSON{Meta: m, Budget: s.budgets.Status(m.Name, m.Digest), Versions: vs})
}

// handleCorpusVersionList serves the corpus's version chain, base first.
func (s *Server) handleCorpusVersionList(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupCorpus(w, r)
	if !ok {
		return
	}
	vs, err := s.corpora.Versions(m.Name)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", m.Name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":   m.Name,
		"latest":   m.Digest,
		"versions": vs,
	})
}

// handleCorpusVersionGet serves one chain entry with the budget accounting
// of its lineage — every version of a corpus draws on one budget, so the
// figures are the corpus's whatever version is asked for.
func (s *Server) handleCorpusVersionGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupCorpus(w, r)
	if !ok {
		return
	}
	digest := r.PathValue("digest")
	v, err := s.corpora.VersionMeta(m.Name, digest)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "corpus %q has no version %s", m.Name, digest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":  m.Name,
		"version": v,
		"latest":  v.Digest == m.Digest,
		"budget":  s.budgets.Status(m.Name, v.Digest),
	})
}

// resolveVersion applies the ?version= query of a sanitize request to a
// resolved corpus: it returns the materialized log of the version the
// request addresses (the latest when the query is absent) and its digest.
// On failure the error has been written and ok is false.
func (s *Server) resolveVersion(w http.ResponseWriter, r *http.Request, m corpus.Meta, latest *dpslog.Log) (*dpslog.Log, string, bool) {
	q := r.URL.Query().Get("version")
	if q == "" || q == m.Digest {
		return latest, m.Digest, true
	}
	l, v, err := s.corpora.GetVersion(m.Name, q)
	switch {
	case errors.Is(err, corpus.ErrNotFound), errors.Is(err, corpus.ErrVersionNotFound):
		s.writeError(w, http.StatusNotFound, "corpus %q has no version %s", m.Name, q)
		return nil, "", false
	case err != nil: // materialization failed: the server's own disk
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return nil, "", false
	}
	return l, v.Digest, true
}

func (s *Server) handleCorpusDelete(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupCorpus(w, r)
	if !ok {
		return
	}
	if err := s.corpora.Delete(m.Name); err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The ledger deliberately survives deletion: a re-PUT under the same
	// name continues the name's lineage, and so does re-uploading the same
	// data under another name once it is released.
	writeJSON(w, http.StatusOK, map[string]any{"deleted": m.Name, "digest": m.Digest})
}

// handleCorpusBudget serves the accounting of the corpus's lineage: one
// budget for every version of the name (and any name joined to it).
func (s *Server) handleCorpusBudget(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupCorpus(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus": m.Name,
		"digest": m.Digest,
		"budget": s.budgets.Status(m.Name, m.Digest),
	})
}

// handleCorpusReleases lists every journaled release of the corpus's
// lineage, oldest first; each entry's digest names the version it released.
func (s *Server) handleCorpusReleases(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupCorpus(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":   m.Name,
		"digest":   m.Digest,
		"releases": s.budgets.Releases(m.Name, m.Digest),
	})
}

// handleCorpusSanitize releases a sanitization of a stored corpus through
// the mechanism the options name. Each mechanism declares its own (ε, δ)
// release cost (internal/mechanism), which is what the ledger pre-checks
// and charges under sequential composition. The release is charged against
// the lineage budget *after* the solve succeeds but *before* any output byte
// reaches the client; identical releases (same digest, canonical options
// and seed — byte-identical output) are idempotent and free. A repeat
// re-derives its release and must reproduce the journaled release digest:
// one that does not is withheld with a 500 and counted in
// slserve_rederive_mismatch_total. Requests the remaining budget cannot
// cover get a structured 429 carrying the remaining (ε, δ).
func (s *Server) handleCorpusSanitize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Capture the (log, digest) pair once, atomically: the Log is immutable,
	// so a concurrent PUT replacing the name cannot desynchronize the data
	// the solve reads from the digest the ledger charges — the release is
	// always accounted against exactly the dataset it was computed from.
	name := r.PathValue("name")
	l, m, gerr := s.corpora.Get(name)
	if gerr != nil {
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", name)
		return
	}
	// ?version= selects an ancestor of the chain; the default is the latest.
	// The seed and release key are keyed by the resolved version's digest,
	// so old-version releases replay for free forever; the cost lands on
	// the lineage every version of the name shares.
	l, digest, ok := s.resolveVersion(w, r, m, l)
	if !ok {
		return
	}
	var req corpusSanitizeRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := req.Options
	mech, err := s.resolveMechanism(opts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Resolve the deterministic seed now so the release identity is fixed
	// before any work happens.
	if opts.Seed == 0 {
		opts.Seed = seedFromDigest(digest)
	}
	cost := mech.Cost(opts)
	rel := dpslog.Release{
		Corpus:    m.Name,
		Digest:    digest,
		Key:       releaseKey(digest, opts),
		Mechanism: mech.Name(),
		Epsilon:   cost.Epsilon,
		Delta:     cost.Delta,
	}

	// Non-binding pre-check: refuse obviously over-budget requests before
	// paying for a solve. The binding decision is the post-solve Charge.
	if err := s.budgets.Check(r.Context(), rel); err != nil {
		var over *dpslog.OverBudgetError
		if errors.As(err, &over) {
			s.writeOverBudget(w, m.Name, over)
			return
		}
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	var (
		resp   *sanitizeResponse
		runErr error
	)
	ctx := r.Context()
	if !s.runPooled(w, r, func() { resp, runErr = s.runSanitize(ctx, mech, l, opts, digest) }) {
		return
	}
	if runErr != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "%v", runErr)
		return
	}

	// Charge-then-release: the journal entry is durable before the first
	// output byte leaves the server. A race with concurrent releases can
	// still exhaust the budget here; the solve is then discarded — compute
	// is wasted, privacy is not.
	rel.ReleaseDigest = resp.ReleaseDigest
	rel, _, err = s.budgets.Charge(ctx, rel)
	if err != nil {
		var over *dpslog.OverBudgetError
		if errors.As(err, &over) {
			s.writeOverBudget(w, m.Name, over)
			return
		}
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// A repeat returns the journaled entry. Its key fixes the release, so a
	// different re-derived digest means the bytes first released are not
	// what the journal's key now produces: serve nothing. Entries journaled
	// before release digests were recorded carry none and skip the check.
	if rel.ReleaseDigest != "" && rel.ReleaseDigest != resp.ReleaseDigest {
		s.metrics.ObserveRederiveMismatch()
		cmp.Or(s.logger, slog.Default()).LogAttrs(ctx, slog.LevelError, "rederive mismatch",
			slog.String("key", rel.Key),
			slog.Int("seq", rel.Seq),
			slog.String("journaled", rel.ReleaseDigest),
			slog.String("rederived", resp.ReleaseDigest),
		)
		s.writeError(w, http.StatusInternalServerError,
			"release %d of corpus %q re-derived as %s, not the journaled %s; withheld", rel.Seq, m.Name, resp.ReleaseDigest, rel.ReleaseDigest)
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if wantTrace(r) {
		resp.Trace = obs.FromContext(ctx).Snapshot()
	}
	writeJSON(w, http.StatusOK, corpusSanitizeResponse{
		sanitizeResponse: *resp,
		Corpus:           m.Name,
		Version:          digest,
		Release:          rel,
		Budget:           s.budgets.Status(m.Name, digest),
	})
}
