// Package journal is the append-only JSON-lines file that durable state in
// this repository is kept in: the privacy ledger's releases and each
// corpus's version chain. Every record is one line, appended and fsynced
// before its writer acts on it, so a crash can leave at most the last line
// incomplete.
//
// Open replays the file line by line through a caller's apply function and
// repairs what a crash mid-append can leave behind:
//
//   - a final line that apply refuses, or that stops mid-record, is the
//     torn tail of an append that never completed: it is truncated away;
//   - a final line that apply accepts but that lost its '\n' is kept (its
//     writer may already have acted on it) and the terminator is restored,
//     or the next append would land on the same line;
//   - any earlier line apply refuses is an error, since silently dropping
//     an interior record would lose state.
//
// Append writes one line at the durable end and fsyncs it; a failed write
// or fsync rolls the file back to its durable length, so a failure never
// leaves a partial line for the next append to land after. Create writes
// a whole journal under a temp name and renames it into place, for the
// writers that replace one wholesale.
package journal

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dpslog/internal/obs"
)

// File is an open journal positioned at its durable end. Its methods are
// not safe for concurrent use; each writer serializes its own appends.
type File struct {
	f    *os.File
	path string
	span string // Append's span names: span+".append", span+".fsync"
	off  int64  // durable length in bytes
	torn bool   // Open truncated a torn tail or restored a lost '\n'
}

// Open opens (creating) the journal at path and replays every line through
// apply, oldest first, without its '\n'. apply returns an error for a line
// it refuses and must then leave its own state untouched. Appends record
// their spans under the name prefix span.
func Open(path, span string, apply func(line []byte) error) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j := &File{f: f, path: path, span: span}
	if err := j.replay(apply); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// replay applies every intact line and positions the file at its durable
// end (see the package comment for what happens to a torn tail).
func (j *File) replay(apply func(line []byte) error) error {
	r := bufio.NewReader(j.f)
	var (
		durable      int64 // byte offset after the last intact line
		lineNo       int
		repairTailNL bool // final line applied but lost its '\n' in a crash
	)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("journal: read %s: %w", j.path, err)
		}
		atEOF := err == io.EOF
		lineNo++
		if aerr := apply(bytes.TrimSuffix(line, []byte{'\n'})); aerr != nil {
			if atEOF {
				j.torn = true
				break // torn final line from a crash mid-append; truncate below
			}
			return fmt.Errorf("journal: %s line %d is corrupt (not at tail): %v", j.path, lineNo, aerr)
		}
		durable += int64(len(line))
		if atEOF {
			repairTailNL = true
			break
		}
	}
	if err := j.f.Truncate(durable); err != nil {
		return fmt.Errorf("journal: truncate torn tail of %s: %w", j.path, err)
	}
	if _, err := j.f.Seek(durable, io.SeekStart); err != nil {
		return fmt.Errorf("journal: seek end of %s: %w", j.path, err)
	}
	if repairTailNL {
		j.torn = true
		if _, err := j.f.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("journal: repair tail of %s: %w", j.path, err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: repair tail of %s: %w", j.path, err)
		}
		durable++
	}
	j.off = durable
	return nil
}

// Create atomically replaces the journal at path with lines: they are
// written to a temp file in the same directory, fsynced, renamed into
// place and the directory synced. The returned File is positioned at the
// end, ready for Append.
func Create(path, span string, lines [][]byte) (*File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	fail := func(op string, err error) (*File, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("journal: %s %s: %w", op, path, err)
	}
	w := bufio.NewWriter(tmp)
	var off int64
	for _, line := range lines {
		w.Write(line)
		w.WriteByte('\n')
		off += int64(len(line)) + 1
	}
	if err := w.Flush(); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail("publish", err)
	}
	SyncDir(dir)
	return &File{f: tmp, path: path, span: span, off: off}, nil
}

// SyncDir makes a rename in dir durable; not all platforms support fsync
// on a directory handle, so failure is ignored.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		//slvet:ignore deferclose directory fsync is best-effort by contract: not all platforms support fsync on a directory handle
		d.Sync()
		d.Close()
	}
}

// Append writes line and its '\n' at the durable end and fsyncs them. When
// ctx carries an obs trace it records two spans, span+".append" (attribute
// bytes) around the write and span+".fsync" around the sync. On failure
// the file is rolled back to its durable length and nothing was appended.
func (j *File) Append(ctx context.Context, line []byte) error {
	_, asp := obs.Start(ctx, j.span+".append")
	asp.SetAttr("bytes", len(line)+1)
	_, err := j.f.Write(append(line[:len(line):len(line)], '\n'))
	asp.End()
	if err != nil {
		j.rollback()
		return fmt.Errorf("journal: append %s: %w", j.path, err)
	}
	_, fsp := obs.Start(ctx, j.span+".fsync")
	err = j.f.Sync()
	fsp.End()
	if err != nil {
		j.rollback()
		return fmt.Errorf("journal: sync %s: %w", j.path, err)
	}
	j.off += int64(len(line)) + 1
	return nil
}

// rollback cuts the file back to its durable length after a failed append,
// so a partial line never sits in the interior of the journal.
func (j *File) rollback() {
	j.f.Truncate(j.off)
	j.f.Seek(j.off, io.SeekStart)
}

// Size returns the journal's durable length in bytes.
func (j *File) Size() int64 { return j.off }

// Torn reports whether Open found a torn tail: it truncated a partial
// final line or restored the '\n' of a complete one.
func (j *File) Torn() bool { return j.torn }

// Close releases the file. The File must not be used afterwards.
func (j *File) Close() error { return j.f.Close() }
