package main

import (
	"encoding/json"
	"flag"
	"net/http"
	"strings"
	"testing"

	"dpslog"
	"dpslog/internal/mechanism"
	"dpslog/internal/replay"
)

func cliFlags(args ...string) *flags {
	return parseFlags(flag.NewFlagSet("slload", flag.ContinueOnError), args)
}

// TestReplayCommittedTrace synthesizes the trace BENCH_replay.json was
// recorded from, with the same flags, and replays it against a stateful
// server, whose budget the trace's own lineage arithmetic sizes, under
// per-class SLOs and that file's count baseline. The same
// replay held to a p95 below any real latency must exit 1, or the SLO
// gate does not gate.
func TestReplayCommittedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay in -short mode")
	}
	dir := t.TempDir()
	trace := dir + "/replay.trace.ndjson"
	runRecord(cliFlags("-record", trace, "-profile", "tiny", "-gen-seed", "1",
		"-rps", "40", "-duration", "5s", "-load-seed", "7", "-eexp", "2", "-delta", "0.25", "-storm-429", "25"))
	url := statefulServer(t, lineageBudget(t, trace))
	if code := runReplay(cliFlags("-replay", trace, "-url", url, "-speedup", "2",
		"-slo", "*:err<1%;sanitize:p95<10s;mech_sanitize:p95<10s;append_sanitize:p95<10s;storm_429:p99<10s",
		"-bench-out", dir+"/BENCH_replay.json", "-baseline", "../../BENCH_replay.json")); code != 0 {
		t.Fatalf("replay: exit %d", code)
	}
	if code := runReplay(cliFlags("-replay", trace, "-url", url, "-speedup", "4", "-slo", "*:p95<1us")); code != 1 {
		t.Fatalf("replay under *:p95<1us: exit %d, want 1", code)
	}
}

// lineageBudget is the worst-case (ε, δ) the corpus releases of the trace
// at path can charge. A release identity (its options body) sent k times
// to a name whose chain has v versions costs min(k, v) releases, where v
// counts the distinct uploaded bodies plus the appends. The names upload
// one payload, so a release that lands on one name's base under another
// name joins their lineages: the budget sums every name's spend to cover
// that case. Requests expecting a 429 are refused before any charge.
func lineageBudget(t *testing.T, path string) dpslog.Budget {
	t.Helper()
	tr, err := replay.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	uploads := make(map[string]map[string]bool)
	appends := make(map[string]int)
	sends := make(map[string]map[string]int)
	for _, rec := range tr.Records {
		route, _, _ := strings.Cut(rec.Path, "?")
		rest, ok := strings.CutPrefix(route, "/v1/corpora/")
		if !ok {
			continue
		}
		name, action, _ := strings.Cut(rest, "/")
		switch {
		case action == "" && rec.Method == http.MethodPut:
			if uploads[name] == nil {
				uploads[name] = make(map[string]bool)
			}
			uploads[name][rec.BodyRef+"\x00"+rec.Body] = true
		case action == "append":
			appends[name]++
		case action == "sanitize" && rec.Expect != "429":
			if sends[name] == nil {
				sends[name] = make(map[string]int)
			}
			sends[name][rec.Body]++
		}
	}
	var b dpslog.Budget
	for name, bodies := range sends {
		versions := max(len(uploads[name]), 1) + appends[name]
		for body, k := range bodies {
			var req struct {
				Options dpslog.Options `json:"options"`
			}
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatalf("release body for %s: %v", name, err)
			}
			m, err := mechanism.Get(req.Options.Mechanism)
			if err != nil {
				t.Fatal(err)
			}
			cost := m.Cost(req.Options)
			n := float64(min(k, versions))
			b.Epsilon += n * cost.Epsilon
			b.Delta += n * cost.Delta
		}
	}
	return b
}
