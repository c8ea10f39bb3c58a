package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dpslog"
)

var client = &http.Client{Timeout: 30 * time.Second}

// process is one slserve process on free loopback ports.
type process struct {
	cmd       *exec.Cmd
	base, ops string
	stderr    bytes.Buffer // read only after exited closes
	exited    chan struct{}
	err       error // the exit error, valid after exited closes
}

// start runs bin on dataDir with the flags under test and returns once the
// ops listener reports the corpus store ready.
func start(t *testing.T, bin, dataDir string) *process {
	t.Helper()
	var addr [2]string // the data and ops listeners
	for i := range addr {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr[i] = ln.Addr().String()
		ln.Close()
	}
	p := &process{base: "http://" + addr[0], ops: "http://" + addr[1], exited: make(chan struct{})}
	p.cmd = exec.Command(bin, "-addr", addr[0], "-ops-addr", addr[1], "-data-dir", dataDir,
		"-budget-eexp", "4", "-budget-delta", "0.5", "-quiet")
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.err = p.cmd.Wait(); close(p.exited) }()
	t.Cleanup(func() { p.cmd.Process.Kill(); <-p.exited })
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		select {
		case <-p.exited:
			t.Fatalf("slserve exited before ready: %v\n%s", p.err, p.stderr.String())
		default:
		}
		if resp, err := client.Get(p.ops + "/readyz"); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if !bytes.Contains(body, []byte(`"status":"ready"`)) || !bytes.Contains(body, []byte(`"corpus_store":true`)) {
					t.Fatalf("/readyz on the ops listener: %s", body)
				}
				return p
			}
		}
	}
	t.Fatal("slserve not ready after 30s")
	return nil
}

func call(t *testing.T, method, url, contentType, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// released is what a corpus release response identifies: the digest of
// the released bytes and the journal entry's sequence number.
type released struct {
	ReleaseDigest string `json:"release_digest"`
	Release       struct {
		Seq int `json:"seq"`
	} `json:"release"`
}

// release asks p for an (ln 2, 0.25) release of the corpus "smoke", requires
// status want, and returns the release's identity.
func release(t *testing.T, p *process, options string, want int) released {
	t.Helper()
	code, body := call(t, http.MethodPost, p.base+"/v1/corpora/smoke/sanitize", "application/json",
		`{"options":{`+options+`,"epsilon":0.6931471805599453,"delta":0.25}}`)
	var rel released
	if code != want || json.Unmarshal([]byte(body), &rel) != nil {
		t.Fatalf("release %s: status %d, want %d: %s", options, code, want, body)
	}
	return rel
}

// spent reads the cumulative spend of corpus "smoke"'s lineage from p.
func spent(t *testing.T, p *process) dpslog.Budget {
	t.Helper()
	code, body := call(t, http.MethodGet, p.base+"/v1/corpora/smoke/budget", "", "")
	var b struct {
		Budget struct{ Spent dpslog.Budget }
	}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &b) != nil {
		t.Fatalf("budget: status %d: %s", code, body)
	}
	return b.Budget.Spent
}

// TestServeBudgetSurvivesKill runs real slserve processes on one data
// directory: the flags wire a (ln 4, 0.5) per-lineage budget, the ops
// listener serves readiness and pprof, one release each of v2 and v3
// exhaust the corpus's chain, a SIGKILLed server restarts with its ledger
// intact and re-derives a journaled release free of charge, and SIGTERM
// exits 0.
func TestServeBudgetSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process slserve test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "slserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build slserve: %v\n%s", err, out)
	}
	dataDir := t.TempDir()
	p := start(t, bin, dataDir)
	if code, prof := call(t, http.MethodGet, p.ops+"/debug/pprof/profile?seconds=1", "", ""); code != http.StatusOK || prof == "" {
		t.Fatalf("ops CPU profile: status %d, %d bytes", code, len(prof))
	}

	corpus, err := dpslog.Generate("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	var tsv strings.Builder
	dpslog.WriteTSV(&tsv, corpus) // a strings.Builder never fails
	if code, body := call(t, http.MethodPut, p.base+"/v1/corpora/smoke", "text/tab-separated-values", tsv.String()); code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	_, body := call(t, http.MethodGet, p.base+"/v1/corpora/smoke/budget", "", "")
	var b struct {
		Budget struct{ Budget dpslog.Budget }
	}
	if err := json.Unmarshal([]byte(body), &b); err != nil || b.Budget.Budget != (dpslog.Budget{Epsilon: math.Log(4), Delta: 0.5}) {
		t.Fatalf("configured budget %s, want (ln 4, 0.5)", body)
	}
	// Append twice, releasing v2 in between: the releases below are of v3,
	// whose preprocessed log and components are carried forward from v2's,
	// while the restarted process rebuilds them from the files.
	pre, _ := dpslog.Preprocess(corpus)
	pair := pre.Pair(0)
	for i, rows := range []string{
		"append-a\tappend q\thttp://append\t2\nappend-b\tappend q\thttp://append\t1\n",
		fmt.Sprintf("%s\t%s\t%s\t1\n", pre.User(pair.Entries[0].User).ID, pair.Query, pair.URL),
	} {
		if code, body := call(t, http.MethodPost, p.base+"/v1/corpora/smoke/append", "text/tab-separated-values", rows); code != http.StatusOK {
			t.Fatalf("append: status %d: %s", code, body)
		}
		if i == 0 {
			release(t, p, `"seed":1`, http.StatusOK)
		}
	}
	// v2's release counts against v3: the chain shares one budget, which
	// v3's first release uses up.
	journaled := release(t, p, `"seed":1`, http.StatusOK)
	release(t, p, `"seed":2`, http.StatusTooManyRequests)
	before := spent(t, p)
	if before != (dpslog.Budget{Epsilon: 2 * math.Log(2), Delta: 0.5}) {
		t.Fatalf("lineage spend %+v, want two (ln 2, 0.25) releases", before)
	}

	// SIGKILL gives the server no chance to flush or close anything.
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-p.exited
	p = start(t, bin, dataDir)
	release(t, p, `"seed":99`, http.StatusTooManyRequests)
	release(t, p, `"mechanism":"zealous","seed":7`, http.StatusTooManyRequests)
	// The restarted process holds no state from the first but the journal:
	// the repeat re-derives the release, which must match its entry.
	if got := release(t, p, `"seed":1`, http.StatusOK); got != journaled {
		t.Fatalf("journaled release repeated as %+v, want %+v", got, journaled)
	}
	if after := spent(t, p); after != before {
		t.Fatalf("repeat changed the spend: %+v, want %+v", after, before)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		t.Fatal("slserve did not exit within 15s of SIGTERM")
	}
	if p.err != nil || strings.Contains(p.stderr.String(), `"msg":"request"`) {
		t.Fatalf("SIGTERM exit %v; a -quiet server must log no requests:\n%s", p.err, p.stderr.String())
	}
}
