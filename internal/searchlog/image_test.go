package searchlog

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// checkImage writes l through WriteTSVDigest (after a Digest when
// digestFirst) and fails unless the bytes and digest equal WriteTSV of a
// Builder-built copy of l's histogram. A log that keeps a prepared state
// must have built its image, spliced exactly when wantSpliced, with the
// row offsets of a from-scratch image.
func checkImage(t *testing.T, what string, l *Log, digestFirst, wantSpliced bool) {
	t.Helper()
	fresh, err := BuildFromUserCounts(l.UserCounts())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := WriteTSV(&want, fresh); err != nil {
		t.Fatal(err)
	}
	wantSum := hexSum(want.Bytes())
	if digestFirst && l.Digest() != wantSum {
		t.Fatalf("%s: Digest %s, want %s", what, l.Digest(), wantSum)
	}
	var got bytes.Buffer
	d, err := WriteTSVDigest(&got, l)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: WriteTSVDigest wrote\n%q\nwant\n%q", what, got.Bytes(), want.Bytes())
	}
	if d != wantSum || l.Digest() != wantSum {
		t.Fatalf("%s: digest %s (memo %s), want %s", what, d, l.Digest(), wantSum)
	}
	if !l.prep.keep {
		return
	}
	img := l.prep.img
	if img == nil {
		t.Fatalf("%s: a log that keeps a prepared state built no image", what)
	}
	if img.spliced != wantSpliced || l.ImageSpliced() != wantSpliced {
		t.Fatalf("%s: image spliced %t, want %t", what, img.spliced, wantSpliced)
	}
	if wantAt := formatImage(fresh).rowAt; !slices.Equal(img.rowAt, wantAt) {
		t.Fatalf("%s: row offsets %v, want %v", what, img.rowAt, wantAt)
	}
}

// Flags of the user byte that ends a log in FuzzTSVImage's chains (see
// decodeChain). Each acts on the version the log completes.
const (
	imgCheck       = 1 << iota // write the version before the next append, so its child splices
	imgAbandon                 // merge the version twice, as after a failed store append
	imgRestart                 // append to a Builder-built copy, as after a PUT or a restart
	imgDigestFirst             // digest the version before writing it
)

// FuzzTSVImage runs random append chains and checks that every version's
// WriteTSVDigest bytes and digest equal WriteTSV of a Builder-built copy:
// spliced from the parent's image when the parent had written its own,
// formatted in full otherwise. The parent keeps no image once merged.
func FuzzTSVImage(f *testing.F) {
	sep := func(flags byte) [4]byte { return [4]byte{flags, 0, 0, 0} }
	chain := func(rs ...[4]byte) []byte {
		var out []byte
		for _, r := range rs {
			out = append(out, r[:]...)
		}
		return out
	}
	// A new first, middle and last user, one append each.
	f.Add(chain([4]byte{2, 1, 0, 1}, [4]byte{4, 1, 0, 2}, [4]byte{6, 2, 1, 1},
		sep(imgCheck), [4]byte{0, 1, 0, 1},
		sep(imgCheck), [4]byte{3, 2, 1, 2},
		sep(imgCheck), [4]byte{8, 3, 2, 1}))
	// New pairs sort first and shift every pair index; the touched users
	// are re-formatted, the rest keep their bytes.
	f.Add(chain([4]byte{1, 2, 1, 1}, [4]byte{2, 3, 1, 1}, [4]byte{3, 3, 2, 2},
		sep(imgCheck), [4]byte{1, 0, 0, 1}, [4]byte{2, 1, 0, 3}))
	// A delta on users the previous append left alone, whose bytes were
	// copied once already; then a delta of new users only.
	f.Add(chain([4]byte{0, 0, 0, 1}, [4]byte{1, 0, 0, 1}, [4]byte{2, 1, 0, 1}, [4]byte{3, 1, 0, 1},
		sep(imgCheck), [4]byte{0, 0, 0, 2},
		sep(imgCheck), [4]byte{2, 1, 0, 1}, [4]byte{3, 2, 0, 1},
		sep(imgCheck), [4]byte{5, 5, 2, 1}, [4]byte{7, 5, 2, 2}))
	// An abandoned child: the parent is merged twice, the second child
	// formats in full and must still be exact.
	f.Add(chain([4]byte{0, 0, 0, 1}, [4]byte{1, 0, 0, 1}, [4]byte{3, 1, 1, 1},
		sep(imgCheck|imgAbandon), [4]byte{1, 0, 0, 1}, [4]byte{2, 2, 0, 1},
		sep(imgCheck), [4]byte{3, 1, 1, 2}))
	// A chain restarted from a Builder-built log, then spliced again.
	f.Add(chain([4]byte{0, 0, 0, 1}, [4]byte{4, 0, 0, 1},
		sep(imgCheck), [4]byte{2, 3, 0, 1},
		sep(imgCheck|imgRestart), [4]byte{6, 4, 1, 1},
		sep(imgCheck|imgDigestFirst), [4]byte{4, 4, 1, 3}))
	// A version never written before its append: its child formats in
	// full, and the parent streams its own rows afterwards.
	f.Add(chain([4]byte{0, 0, 0, 1}, [4]byte{1, 1, 0, 1},
		sep(0), [4]byte{1, 0, 0, 1},
		sep(imgDigestFirst|imgCheck), [4]byte{0, 1, 0, 2}))
	f.Fuzz(checkImageChain)
}

// checkImageChain is FuzzTSVImage's check of one input.
func checkImageChain(t *testing.T, data []byte) {
	logs, flags := decodeChain(data)
	// The base log is folded onto an empty one, so it keeps a prepared
	// state like every appended version.
	l, err := Merge(&Log{}, logs[0])
	if err != nil {
		t.Fatal(err)
	}
	spliced := false // whether l's image must be spliced
	for s, delta := range logs[1:] {
		f := flags[s]
		if f&imgCheck != 0 {
			checkImage(t, "version", l, f&imgDigestFirst != 0, spliced)
		}
		parent := l
		if f&imgRestart != 0 {
			if parent, err = BuildFromUserCounts(l.UserCounts()); err != nil {
				t.Fatal(err)
			}
		}
		if f&imgAbandon != 0 {
			hadImage := parent.prep.img != nil
			abandoned, err := Merge(parent, delta)
			if err != nil {
				t.Fatal(err)
			}
			checkImage(t, "abandoned child", abandoned, false, hadImage)
		}
		spliced = parent.prep.img != nil
		if l, err = Merge(parent, delta); err != nil {
			t.Fatal(err)
		}
		if parent.prep.img != nil || parent.prep.imgFrom != nil {
			t.Fatal("the parent kept its image past the append")
		}
		if f&imgCheck == 0 {
			checkImage(t, "parent written after its append", parent, f&imgDigestFirst != 0, false)
		}
	}
	checkImage(t, "last version", l, flags[len(flags)-1]&imgDigestFirst != 0, spliced)
}

// TestImageConcurrentFirstDigest: eight goroutines digest one spliced
// version at once; all get the digest of a from-scratch build, and the
// image is built once.
func TestImageConcurrentFirstDigest(t *testing.T) {
	v2, err := Merge(paperLog(t), testDelta(t, "img-a\tbook\tamazon.com\t1\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkImage(t, "v2", v2, false, false)
	v3, err := Merge(v2, testDelta(t, "082\tbook\tamazon.com\t2\nimg-b\tcar price\tkbb.com\t1\n"))
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]string, 8)
	images := make([]*image, 8)
	var wg sync.WaitGroup
	for g := range digests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			digests[g] = v3.Digest()
			images[g] = v3.readImage()
			images[g].readers.Add(-1)
		}()
	}
	wg.Wait()
	fresh, err := BuildFromUserCounts(v3.UserCounts())
	if err != nil {
		t.Fatal(err)
	}
	for g := range digests {
		if digests[g] != fresh.Digest() || images[g] != images[0] {
			t.Fatalf("goroutine %d: digest %s, want %s, or a second image", g, digests[g], fresh.Digest())
		}
	}
	checkImage(t, "v3", v3, false, true)
}

// TestImageSplicesInPlace: a child whose rows fit the parent's buffer
// splices in it, moving only the bytes after the first touched user; the
// parent, which handed the buffer over, still writes its own bytes.
func TestImageSplicesInPlace(t *testing.T) {
	v2, err := Merge(paperLog(t), testDelta(t, "img-a\tbook\tamazon.com\t1\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkImage(t, "v2", v2, false, false)
	buf := v2.prep.img.buf
	v3, err := Merge(v2, testDelta(t, "082\tgoogle\tgoogle.com\t3\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkImage(t, "v3", v3, false, true)
	if got := v3.prep.img.buf; &got[:cap(got)][0] != &buf[:cap(buf)][0] {
		t.Fatal("v3 did not splice in v2's buffer")
	}
	checkImage(t, "v2 after the append", v2, false, false)

	// A reader of v3's image that outlives the append keeps its bytes:
	// v4 splices into a new buffer.
	img := v3.readImage()
	held := bytes.Clone(img.buf)
	v4, err := Merge(v3, testDelta(t, "082\tgoogle\tgoogle.com\t1\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkImage(t, "v4", v4, false, true)
	if !bytes.Equal(img.buf, held) {
		t.Fatal("v4 rewrote the bytes a reader of v3 held")
	}
	img.readers.Add(-1)
}

// TestImageWritesDuringAppend: goroutines write and digest a version
// while it is merged and its child written; under -race this checks that
// the child never splices into bytes a reader of the parent still reads.
func TestImageWritesDuringAppend(t *testing.T) {
	v1, err := Merge(&Log{}, paperLog(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := range 50 {
		var want bytes.Buffer
		if _, err := WriteTSVDigest(&want, v1); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got bytes.Buffer
				if _, err := WriteTSVDigest(&got, v1); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("append %d: a concurrent write of the parent got %q (%v)", n, got.Bytes(), err)
				}
			}()
		}
		v2, err := Merge(v1, testDelta(t, fmt.Sprintf("082\tgoogle\tgoogle.com\t%d\n", 1+n%3)))
		if err != nil {
			t.Fatal(err)
		}
		checkImage(t, "child", v2, false, true)
		wg.Wait()
		v1 = v2
	}
}
