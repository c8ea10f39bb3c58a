package main

import (
	"flag"
	"testing"

	"dpslog"
)

func cliFlags(args ...string) *flags {
	return parseFlags(flag.NewFlagSet("slload", flag.ContinueOnError), args)
}

// TestReplayCommittedTrace synthesizes the trace BENCH_replay.json was
// recorded from, with the same flags, and replays it against a stateful
// server under per-class SLOs and that file's count baseline. The same
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
	url := statefulServer(t, dpslog.Budget{})
	if code := runReplay(cliFlags("-replay", trace, "-url", url, "-speedup", "2",
		"-slo", "*:err<1%;sanitize:p95<10s;mech_sanitize:p95<10s;append_sanitize:p95<10s;storm_429:p99<10s",
		"-bench-out", dir+"/BENCH_replay.json", "-baseline", "../../BENCH_replay.json")); code != 0 {
		t.Fatalf("replay: exit %d", code)
	}
	if code := runReplay(cliFlags("-replay", trace, "-url", url, "-speedup", "4", "-slo", "*:p95<1us")); code != 1 {
		t.Fatalf("replay under *:p95<1us: exit %d, want 1", code)
	}
}
