package searchlog

// The canonical TSV image of an appended version. A corpus store writes
// every version it appends in full, and formatting every row of a large
// corpus costs more than the merge that built it. A log built by Merge
// therefore keeps, as part of its prepared state (carry.go), its image:
// the bytes WriteTSV writes plus the offset at which each user's rows
// start. The image is built on the first WriteTSVDigest or Digest:
//
//   - A child whose parent had built its image splices it. A parent user
//     the delta left alone has the same rows in the child, since a row
//     holds only the user ID, query, url and count, so the user's byte
//     range is moved as is, and a run of such users is one move. Only the
//     users the delta touched are formatted, with WriteTSV's row code.
//   - Any other log that keeps a prepared state formats every row: the
//     first append after a PUT or a restart, or a child whose parent had
//     not built its image.
//
// Like the rest of the prepared state, the image is handed to the child
// by Merge and the parent keeps none from then on, so a version chain
// holds at most one. The child splices in place: a merge only adds
// counts, so no user's rows get shorter, every byte the child keeps moves
// right, and moving the runs from last to first never overwrites a byte
// still to be moved. The buffer is allocated with headroom, so a chain of
// appends reuses one buffer until the corpus outgrows it. A write or hash
// of the parent that took the image before the hand-over may still be
// reading it, so each image counts its readers, and a child splices into
// a new buffer while any reads the old one. A log that keeps no prepared
// state builds no image: WriteTSVDigest streams its rows and Digest hashes
// them as they stream.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync/atomic"
)

// image is a log's canonical TSV bytes and, for every user k, the offset
// rowAt[k] of k's first row; rowAt[NumUsers] is len(buf).
type image struct {
	buf     []byte
	rowAt   []int
	spliced bool // built from the parent's image rather than in full
	// readers counts the WriteTSVDigest and Digest calls reading buf.
	readers atomic.Int32
}

// imageSource is the image a parent handed over to its child by Merge,
// with the child indices its users (userAt) and the delta's users
// (deltaUserAt) landed at.
type imageSource struct {
	img                 *image
	userAt, deltaUserAt []int
}

// readImage returns l's image, building it first if need be, with its
// reader count raised; the caller lowers it once done with the bytes. It
// returns nil when l keeps no prepared state.
func (l *Log) readImage() *image {
	p := &l.prep
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.keep {
		return nil
	}
	if p.img == nil {
		if p.imgFrom != nil {
			p.img = spliceImage(l, p.imgFrom)
		} else {
			p.img = formatImage(l)
		}
		p.imgFrom = nil
	}
	p.img.readers.Add(1)
	return p.img
}

// ImageSpliced reports whether l's canonical TSV image was spliced from
// its parent's rather than formatted in full. It is false for a log that
// has built no image, as is every log not built by Merge.
func (l *Log) ImageSpliced() bool {
	p := &l.prep
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.img != nil && p.img.spliced
}

// withHeadroom returns an empty buffer with room for n bytes and the
// growth of the appends after it.
func withHeadroom(n int) []byte { return make([]byte, 0, n+n/8) }

// formatImage formats every row of l.
func formatImage(l *Log) *image {
	n := 0
	for k := range l.users {
		n += userRowsLen(l, k)
	}
	img := &image{buf: withHeadroom(n), rowAt: make([]int, len(l.users)+1)}
	for k := range l.users {
		img.rowAt[k] = len(img.buf)
		img.buf = appendUserRows(img.buf, l, k)
	}
	img.rowAt[len(l.users)] = len(img.buf)
	return img
}

// userRowsLen is the length of the rows appendUserRows appends for user k.
func userRowsLen(l *Log, k int) int {
	u := &l.users[k]
	n := 0
	for _, up := range u.Pairs {
		p := &l.pairs[up.Pair]
		n += len(u.ID) + len(p.Query) + len(p.URL) + 5 // three tabs, a newline and a digit
		for c := up.Count; c >= 10; c /= 10 {
			n++
		}
	}
	return n
}

// spliceImage builds child's image from its parent's (see the file
// comment), in the parent's buffer when it has room and no reader.
func spliceImage(child *Log, src *imageSource) *image {
	par, userAt, touched := src.img, src.userAt, src.deltaUserAt
	// The touched users' rows replace the rows they held in the parent, if
	// any; their lengths set where every other user's rows land.
	rowsLen := make([]int, len(touched))
	size := len(par.buf)
	for d, c := range touched {
		rowsLen[d] = userRowsLen(child, c)
		size += rowsLen[d]
		if i, ok := slices.BinarySearch(userAt, c); ok {
			size -= par.rowAt[i+1] - par.rowAt[i]
		}
	}

	buf := par.buf[:cap(par.buf)]
	if len(buf) < size || par.readers.Load() > 0 {
		buf = withHeadroom(size)[:size]
	}
	img := &image{buf: buf[:size], rowAt: make([]int, len(child.users)+1), spliced: true}
	img.rowAt[len(child.users)] = size
	// Fill from the end: end is where the bytes placed so far begin, and
	// parent users i.. are placed.
	end, i := size, len(userAt)
	for d := len(touched) - 1; d >= -1; d-- {
		c := -1 // before the first touched user, the run reaches user 0
		if d >= 0 {
			c = touched[d]
		}
		// Parent users j..i-1 land after c, untouched: one run.
		j := i
		for j > 0 && userAt[j-1] > c {
			j--
		}
		if j < i {
			start := end - (par.rowAt[i] - par.rowAt[j])
			copy(buf[start:end], par.buf[par.rowAt[j]:par.rowAt[i]])
			for k := j; k < i; k++ {
				img.rowAt[userAt[k]] = par.rowAt[k] + start - par.rowAt[j]
			}
			end, i = start, j
		}
		if d < 0 {
			break
		}
		if i > 0 && userAt[i-1] == c {
			i-- // a touched parent user: its rows are formatted afresh
		}
		end -= rowsLen[d]
		if n := len(appendUserRows(buf[end:end], child, c)); n != rowsLen[d] {
			panic(fmt.Sprintf("searchlog: user %d formats to %d bytes, not %d", c, n, rowsLen[d]))
		}
		img.rowAt[c] = end
	}
	return img
}

// hexSum is the hex SHA-256 of b, the digest of a log whose image b is.
func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
