// Command perfbench is the repository's end-to-end benchmark. It starts a
// fresh slserve process on loopback with a fresh data directory, drives one
// workload against it from this single load-generating process (at most
// nproc connections), checks every release the server returned, and prints
// one JSON result line last on standard output.
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same untraced server run is followed by a traced run: the benchmark
// replays the same requests in-process, calling each layer's public
// functions in the order the server's handlers do and timing every call
// from outside, and the result carries the per-layer metrics. Every release
// of the traced run must reproduce the release digest the server returned.
//
// Build and run it through run.sh, which compiles slserve from the same
// source tree:
//
//	bash perfbench/run.sh --workload release-lp --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads and the definition of every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRepeats is how many times an untraced run sets a fresh server up;
// setup_s is the median.
const setupRepeats = 3

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: release-lp, append-chain or mixed-replay")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 35, "measured duration in seconds")
	trace := fs.Int("trace", 0, "1 adds the in-process traced run and prints per-layer metrics")
	bin := fs.String("slserve", "", "path to the slserve binary under test")
	workdir := fs.String("workdir", "", "directory for data directories and logs (removed afterwards)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *workdir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --slserve, --workdir, --seconds ≥ 1 and --trace 0|1 (use run.sh)")
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	defer os.RemoveAll(dir)

	res, err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, dir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(stderr, "perfbench:", merr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		return 1
	}
	return 0
}

// bench runs one workload and returns its result. A failed request or
// check returns a result with correct=false and no metrics alongside the
// error; an error before anything was measured returns no result.
func bench(name string, seed uint64, d time.Duration, traced bool, bin, dir string, stdout io.Writer) (*result, error) {
	w, err := newWorkload(name, seed, d)
	if err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if traced {
		repeats = 1 // setup_s is not reported
	}
	r, err := measure(w, bin, dir, d, repeats)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(r.outs), Metrics: map[string]metricValue{}}
	for i := range r.outs {
		if !r.outs[i].ok() {
			res.Failed++
		}
	}
	setupOuts := r.setupOuts[len(r.setupOuts)-1]
	outs := append(append([]outcome(nil), setupOuts...), r.outs...)
	if err := check(w, outs, filepath.Join(dir, "check")); err != nil {
		return res, fmt.Errorf("output check failed: %w", err)
	}
	defs, values := endToEndDefs, map[string]float64(nil)
	if traced {
		defs = perLayerDefs
		if values, err = traceRun(w, outs, len(setupOuts), filepath.Join(dir, "traced")); err != nil {
			return res, err
		}
	} else {
		values = endToEnd(w, r)
	}
	res.Correct = true
	for _, def := range defs {
		v := values[def.Name]
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
		fmt.Fprintf(stdout, "%-28s %14.4f %s\n", def.Name, v, def.Unit)
	}
	// The error rate is the result's failed/attempted, not a metric: it is
	// 0 in every run that gets this far.
	fmt.Fprintf(stdout, "%-28s %14.4f ratio (failed %d of %d attempted)\n",
		"error_rate", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(stdout, "%s: %d requests measured, %d set-up requests, seed %d\n", name, len(r.outs), len(setupOuts), seed)
	return res, nil
}

// measure sets a fresh server up repeats times, timing each set-up, and
// runs the measured phase on the last one.
func measure(w *workload, bin, dir string, d time.Duration, repeats int) (*run, error) {
	conns := runtime.NumCPU()
	r := &run{}
	for k := range repeats {
		client := newClient(conns)
		dataDir := filepath.Join(dir, fmt.Sprintf("data-%d", k))
		start := time.Now()
		srv, err := startServer(bin, dataDir, serverBudget())
		if err != nil {
			return nil, err
		}
		outs := sequential(client, srv.base, w.setup, w.payloads, time.Now())
		r.setups = append(r.setups, time.Since(start))
		r.setupOuts = append(r.setupOuts, outs)
		for i := range outs {
			if !outs[i].ok() {
				srv.stop()
				o := &outs[i]
				return nil, fmt.Errorf("set-up %s %s: status %d: %v %s", o.rec.Method, o.rec.Path, o.status, o.err, o.body)
			}
		}
		if k == repeats-1 {
			if w.openLoop() {
				r.outs = openLoop(client, srv.base, w.timed, w.payloads, conns)
			} else {
				r.outs = closedLoop(client, srv.base, w.ops, w.payloads, d, w.least)
			}
			r.rssMB, err = srv.peakRSSMB()
		}
		srv.stop()
		client.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
		if k < repeats-1 {
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
	}
	if len(r.outs) == 0 {
		return nil, errors.New("measured nothing")
	}
	return r, nil
}
