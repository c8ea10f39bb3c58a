package searchlog

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// Digest returns the hex-encoded SHA-256 of the log's canonical TSV
// serialization (the sorted user/query/url/count rows WriteTSV emits). Two
// logs digest equally exactly when they hold the same query-url-user
// histogram, regardless of the record order they were built from, so the
// digest is a stable corpus identity for caching sanitization plans.
// It streams through WriteTSV, so hashing a log never materializes the
// record slice: the digest of a log IS the hash of its canonical TSV file.
// The result is memoized — a Log is immutable once built — so repeated
// digesting (every component, every incremental re-solve) hashes once. A
// log built by Merge hashes its TSV image (image.go), building it first.
func (l *Log) Digest() string {
	l.digestOnce.Do(func() {
		if img := l.readImage(); img != nil {
			l.digest = hexSum(img.buf)
			img.readers.Add(-1)
			return
		}
		d, err := writeDigest(io.Discard, l)
		if err != nil {
			// Neither io.Discard nor a hash.Hash fails to write; keep the
			// signature honest anyway.
			panic(fmt.Sprintf("searchlog: digest write: %v", err))
		}
		l.digest = d
	})
	return l.digest
}

// WriteTSVDigest writes the log's canonical TSV to w and returns the
// digest of the bytes written — the value Digest returns, which it also
// memoizes. A store that persists a log therefore serializes it once to
// learn both its file and its identity. A log built by Merge writes its
// TSV image in one Write, so an appended version formats only the rows its
// delta touched; any other log is hashed as its rows stream.
func WriteTSVDigest(w io.Writer, l *Log) (d string, err error) {
	if img := l.readImage(); img != nil {
		if _, err = w.Write(img.buf); err == nil {
			d = hexSum(img.buf)
		}
		img.readers.Add(-1)
	} else {
		d, err = writeDigest(w, l)
	}
	if err != nil {
		return "", err
	}
	l.digestOnce.Do(func() { l.digest = d })
	return d, nil
}

// writeDigest is WriteTSV to w that also returns the hex SHA-256 of the
// bytes written. It leaves the memo alone, so Digest can call it from
// inside its sync.Once.
func writeDigest(w io.Writer, l *Log) (string, error) {
	h := sha256.New()
	if _, err := WriteTSV(io.MultiWriter(w, h), l); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
