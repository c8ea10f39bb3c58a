package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"dpslog/internal/corpus"
	"dpslog/internal/ingest"
	"dpslog/internal/replay"
	"dpslog/internal/searchlog"
)

// layerTimes collects, per metric name, one sample per call of a layer
// function. A nil *layerTimes runs the calls untimed.
type layerTimes struct {
	samples map[string][]float64
	// inOp is the time the current operation spent in the layers the
	// server itself runs for it (probes excluded).
	inOp time.Duration
}

func newLayerTimes() *layerTimes { return &layerTimes{samples: make(map[string][]float64)} }

// time runs f as one call of the server's own path for the current
// operation and records its wall time in ms under metric.
func (t *layerTimes) time(metric string, f func()) time.Duration {
	d := t.probe(metric, f)
	if t != nil {
		t.inOp += d
	}
	return d
}

// probe runs f and records its wall time in ms under metric without
// counting it toward the operation: an extra call the benchmark makes to
// time a layer the server runs inside another call, or not at all.
func (t *layerTimes) probe(metric string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.add(metric, float64(d)/float64(time.Millisecond))
	return d
}

// add records one sample.
func (t *layerTimes) add(metric string, v float64) {
	if t != nil {
		t.samples[metric] = append(t.samples[metric], v)
	}
}

// corpora replays uploads and appends into an in-process corpus store. The
// appends of each corpus are applied in the order the server committed
// them (the version seq its responses report), so the replay reproduces
// the server's version digests even when concurrent appends were reordered
// on the wire.
type corpora struct {
	store *corpus.Store
	t     *layerTimes
	// pending holds, per corpus, the append bodies not yet applied, in the
	// server's commit order; committed holds the version digests the server
	// reported for them, in the same order.
	pending   map[string][][]byte
	committed map[string][]string
}

// appendResponse is the part of an append response the replay reads.
type appendResponse struct {
	Version corpus.Version `json:"version"`
}

// releaseResponse is the part of a sanitize response the checks and the
// traced run read.
type releaseResponse struct {
	Digest        string `json:"digest"`
	Version       string `json:"version"`
	Mechanism     string `json:"mechanism"`
	ReleaseDigest string `json:"release_digest"`
	Cached        bool   `json:"cached"`
	Plan          struct {
		OutputSize       int   `json:"output_size"`
		Components       int   `json:"components"`
		ReusedComponents int   `json:"reused_components"`
		Counts           []int `json:"counts"`
	} `json:"plan"`
}

// newCorpora opens an empty store under dir and queues the appends the
// outcomes record.
func newCorpora(dir string, outs []outcome, payloads map[string][]byte, t *layerTimes) (*corpora, error) {
	store, err := corpus.Open(dir)
	if err != nil {
		return nil, err
	}
	c := &corpora{store: store, t: t, pending: make(map[string][][]byte), committed: make(map[string][]string)}
	type commit struct {
		seq    int
		digest string
		body   []byte
	}
	byName := make(map[string][]commit)
	for i := range outs {
		o := &outs[i]
		name, action := corpusRoute(o.rec.Path)
		if action != "append" || o.status/100 != 2 {
			continue
		}
		var resp appendResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return nil, fmt.Errorf("append response: %w", err)
		}
		body, err := bodyOf(o.rec, payloads)
		if err != nil {
			return nil, err
		}
		byName[name] = append(byName[name], commit{resp.Version.Seq, resp.Version.Digest, body})
	}
	for name, cs := range byName {
		sort.Slice(cs, func(a, b int) bool { return cs[a].seq < cs[b].seq })
		for _, cm := range cs {
			c.pending[name] = append(c.pending[name], cm.body)
			c.committed[name] = append(c.committed[name], cm.digest)
		}
	}
	return c, nil
}

// bodyOf returns the bytes a record sends.
func bodyOf(rec replay.Record, payloads map[string][]byte) ([]byte, error) {
	if rec.BodyRef != "" {
		p, ok := payloads[rec.BodyRef]
		if !ok {
			return nil, fmt.Errorf("unknown payload %q", rec.BodyRef)
		}
		return p, nil
	}
	return []byte(rec.Body), nil
}

// fold streams a raw TSV upload through the sharded ingest, as the
// server's PUT and append handlers do.
func (c *corpora) fold(body []byte) (*searchlog.Log, error) {
	var (
		l   *searchlog.Log
		err error
	)
	c.t.time("ingest.fold_ms", func() { l, _, err = ingest.Ingest(bytes.NewReader(body), ingest.Config{}) })
	return l, err
}

// put stores an uploaded corpus.
func (c *corpora) put(name string, body []byte) error {
	l, err := c.fold(body)
	if err != nil {
		return err
	}
	c.t.time("corpus.put_ms", func() { _, err = c.store.Put(name, l) })
	return err
}

// appendNext applies the corpus's next append in server commit order and
// checks the new version's digest against the server's. It reports false
// when no append is pending.
func (c *corpora) appendNext(name string) (bool, error) {
	if len(c.pending[name]) == 0 {
		return false, nil
	}
	body, want := c.pending[name][0], c.committed[name][0]
	c.pending[name], c.committed[name] = c.pending[name][1:], c.committed[name][1:]
	delta, err := c.fold(body)
	if err != nil {
		return false, err
	}
	var v corpus.Version
	c.t.time("corpus.append_ms", func() { _, v, _, err = c.store.Append(name, delta) })
	if err != nil {
		return false, err
	}
	if v.Digest != want {
		return false, fmt.Errorf("corpus %s: in-process version %d digest %.12s, server committed %.12s", name, v.Seq, v.Digest, want)
	}
	return true, nil
}

// version returns the log and digest of a corpus version, the latest when
// digest is empty. A version the replay has not reached yet is reached by
// applying pending appends.
func (c *corpora) version(name, digest string) (*searchlog.Log, string, error) {
	for {
		if digest == "" {
			l, m, err := c.store.Get(name)
			return l, m.Digest, err
		}
		l, _, err := c.store.GetVersion(name, digest)
		if !errors.Is(err, corpus.ErrVersionNotFound) {
			return l, digest, err
		}
		applied, aerr := c.appendNext(name)
		if aerr != nil {
			return nil, "", aerr
		}
		if !applied {
			return nil, "", fmt.Errorf("corpus %s has no version %.12s", name, digest)
		}
	}
}

// unapplied reports how many of the server's appends the replay has not
// applied.
func (c *corpora) unapplied() int {
	n := 0
	for _, bodies := range c.pending {
		n += len(bodies)
	}
	return n
}
