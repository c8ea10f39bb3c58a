package main

// The -replay mode: drive a recorded trace against slserve and gate the
// outcome on per-class SLOs and a committed count baseline.

import (
	"fmt"
	"os"
	"path/filepath"

	"dpslog/internal/replay"
)

// runReplay runs the trace file and returns the exit code: 1 on an SLO
// violation, on baseline drift, or on a report or capture that cannot be
// written.
func runReplay(f *flags) int {
	tr, err := replay.ReadFile(*f.replayFile)
	if err != nil {
		fatal(err)
	}
	var slos []replay.SLO
	if *f.slo != "" && *f.slo != "none" {
		slos, err = replay.ParseSLOs(*f.slo)
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("slload: replaying %s (%d requests, %d classes) against %s at %gx\n",
		*f.replayFile, len(tr.Records), len(tr.ClassCounts()), *f.base, *f.speedup)
	sum, elapsed, captured := execute(f, tr, replay.Config{Speedup: *f.speedup, N: *f.n, D: *f.d}, "slload -replay")

	exit := 0
	if !captured {
		exit = 1
	}
	violations := replay.Evaluate(slos, sum.Classes)
	// The basename keeps the committed baseline machine-independent.
	report := replay.BuildReport(filepath.Base(*f.replayFile), *f.speedup, sum, elapsed, slos)
	if *f.benchOut != "" {
		if err := report.WriteFile(*f.benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "slload: writing %s: %v\n", *f.benchOut, err)
			exit = 1
		}
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "slload: SLO violation: %s\n", v)
		exit = 1
	}
	if len(violations) == 0 && len(slos) > 0 {
		fmt.Printf("slload: all SLOs met (%s)\n", *f.slo)
	}
	if *f.baseline != "" {
		if err := report.CheckBaseline(*f.baseline); err != nil {
			fmt.Fprintf(os.Stderr, "slload: %v\n", err)
			exit = 1
		} else {
			fmt.Printf("slload: per-class counts match baseline %s\n", *f.baseline)
		}
	}
	return exit
}
