// Command slgen generates a synthetic AOL-like click-through search log in
// the canonical 4-column TSV format (user, query, url, count).
//
// Usage:
//
//	slgen [-profile name] [-seed N] [-o file] [-preprocess]
//
// slgen -h lists the profile names.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dpslog"
)

func main() {
	profile := flag.String("profile", "small", "corpus profile: "+strings.Join(dpslog.GenerateProfiles(), ", "))
	seed := flag.Uint64("seed", 1, "generation seed")
	out := flag.String("o", "", "output file (default stdout)")
	pre := flag.Bool("preprocess", false, "remove unique query-url pairs before writing")
	flag.Parse()

	l, err := dpslog.Generate(*profile, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slgen:", err)
		os.Exit(1)
	}
	if *pre {
		l, _ = dpslog.Preprocess(l)
	}
	w := os.Stdout
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slgen:", err)
			os.Exit(1)
		}
		w = f
	}
	n, err := dpslog.WriteTSV(w, l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slgen:", err)
		os.Exit(1)
	}
	// Close carries the final flush error; a silently truncated corpus must
	// fail the command, not surface as a digest mismatch later.
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "slgen:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "slgen: wrote %d rows (%s)\n", n, dpslog.ComputeStats(l))
}
