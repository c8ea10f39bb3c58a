package main

import (
	"io"
	"net/http"
	"sync"
	"time"

	"dpslog/internal/loadgen"
	"dpslog/internal/replay"
)

// outcome is one sent request as the client saw it. due is when the
// request should have been sent: its schedule slot in an open loop, the
// moment the client became free in a closed loop. dispatched is when the
// generator handed it to a connection, sent when the connection started
// writing it, done when the response body was fully read.
type outcome struct {
	rec replay.Record
	// op is the index of the closed-loop operation the request belongs to.
	op                          int
	due, dispatched, sent, done time.Time
	status                      int
	body                        []byte
	err                         error
}

// latency is the user-visible latency, from the due time: a stall of the
// server or of a connection shows in every request it delays.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// serviceTime is the latency from the actual send, what the server and the
// network added once the request left the client.
func (o *outcome) serviceTime() time.Duration { return o.done.Sub(o.sent) }

// ok reports whether the request got a response in its expected status
// class (2xx unless the record says otherwise).
func (o *outcome) ok() bool {
	return loadgen.Classify(loadgen.Result{Status: o.status, Expect: o.rec.Expect, Err: o.err}) <= loadgen.OutcomeExhausted
}

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	tr.MaxIdleConns = conns
	return &http.Client{Timeout: 2 * time.Minute, Transport: tr}
}

// send executes one record and reads the whole response.
func send(client *http.Client, base string, rec replay.Record, payloads map[string][]byte, due, dispatched time.Time) outcome {
	o := outcome{rec: rec, due: due, dispatched: dispatched}
	req, err := replay.BuildRequest(base, rec, payloads)
	if err != nil {
		o.err = err
		o.sent = time.Now()
		o.done = o.sent
		return o
	}
	o.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		o.done = time.Now()
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	return o
}

// sequential sends the records one after another, each due when the
// previous one completed (the first at due).
func sequential(client *http.Client, base string, recs []replay.Record, payloads map[string][]byte, due time.Time) []outcome {
	out := make([]outcome, 0, len(recs))
	for _, rec := range recs {
		o := send(client, base, rec, payloads, due, time.Now())
		due = o.done
		out = append(out, o)
	}
	return out
}

// closedLoop runs operations with one client until d has passed and at
// least least operations completed, or the operations run out. It returns
// the outcomes of every request of the completed operations.
func closedLoop(client *http.Client, base string, ops [][]replay.Record, payloads map[string][]byte, d time.Duration, least int) []outcome {
	var out []outcome
	start := time.Now()
	due := start
	for i, op := range ops {
		if i >= least && time.Since(start) >= d {
			break
		}
		outs := sequential(client, base, op, payloads, due)
		for k := range outs {
			outs[k].op = i
		}
		due = outs[len(outs)-1].done
		out = append(out, outs...)
	}
	return out
}

// openLoop sends every record at start + its trace offset over at most
// conns connections, whether or not earlier requests have completed. A
// request that finds every connection busy waits for one; its latency is
// measured from its due time, so that wait counts (no coordinated
// omission). The generator's own lateness is dispatched − due.
func openLoop(client *http.Client, base string, recs []replay.Record, payloads map[string][]byte, conns int) []outcome {
	out := make([]outcome, len(recs))
	work := make(chan int, len(recs)) // sized to the number of sends: dispatch never blocks
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = send(client, base, recs[i], payloads, out[i].due, out[i].dispatched)
			}
		}()
	}
	start := time.Now()
	for i, rec := range recs {
		due := start.Add(rec.Offset())
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due, out[i].dispatched = due, time.Now()
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}
