package dpslog_test

// CLI smoke tests: build every command once and drive the full pipeline
// slgen → slstats → slsanitize → slexp through real binaries, verifying the
// tools compose the way the README promises. Skipped under -short.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmds compiles the four commands into a temp dir once per test run.
func buildCmds(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	for _, name := range []string{"slgen", "slstats", "slsanitize", "slexp"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = repoRoot(t)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
	}
	return dir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func run(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", filepath.Base(bin), args, err, errBuf.String())
	}
	return out.String(), errBuf.String()
}

func TestCLIPipeline(t *testing.T) {
	bin := buildCmds(t)
	work := t.TempDir()
	corpus := filepath.Join(work, "corpus.tsv")

	// slgen: synthesize a corpus.
	_, genErr := run(t, filepath.Join(bin, "slgen"), "-profile", "tiny", "-seed", "3", "-o", corpus)
	if !strings.Contains(genErr, "wrote") {
		t.Errorf("slgen stderr missing summary: %q", genErr)
	}
	data, err := os.ReadFile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.Split(bytes.TrimSpace(data), []byte("\n"))) < 10 {
		t.Fatalf("corpus suspiciously small:\n%s", data)
	}
	// Canonical 4-column schema.
	first := strings.Split(strings.SplitN(string(data), "\n", 2)[0], "\t")
	if len(first) != 4 {
		t.Fatalf("corpus row has %d fields, want 4: %v", len(first), first)
	}

	// slstats: Table-3 style characteristics.
	statsOut, _ := run(t, filepath.Join(bin, "slstats"), corpus)
	for _, want := range []string{"raw:", "preprocessed:", "removed:"} {
		if !strings.Contains(statsOut, want) {
			t.Errorf("slstats output missing %q:\n%s", want, statsOut)
		}
	}

	// slsanitize: a differentially private release with an audit line.
	sanitized := filepath.Join(work, "sanitized.tsv")
	_, sanErr := run(t, filepath.Join(bin, "slsanitize"),
		"-eexp", "2", "-delta", "0.5", "-objective", "size", "-o", sanitized, corpus)
	if !strings.Contains(sanErr, "audit OK") {
		t.Errorf("slsanitize did not report a passing audit: %q", sanErr)
	}
	sanData, err := os.ReadFile(sanitized)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(sanData)), "\n") {
		if line == "" {
			continue
		}
		if got := len(strings.Split(line, "\t")); got != 4 {
			t.Fatalf("sanitized row has %d fields, want 4: %q", got, line)
		}
	}

	// The sanitized log feeds back into slstats (schema identical).
	reOut, _ := run(t, filepath.Join(bin, "slstats"), sanitized)
	if !strings.Contains(reOut, "raw:") {
		t.Errorf("slstats rejected the sanitized log:\n%s", reOut)
	}

	// slexp: regenerate one experiment.
	expOut, _ := run(t, filepath.Join(bin, "slexp"), "-profile", "tiny", "-seed", "3", "-exp", "table3")
	if !strings.Contains(expOut, "TABLE3") {
		t.Errorf("slexp table3 output malformed:\n%s", expOut)
	}
}

// TestCLIIngestRoundTrip: slingest generates the same corpus twice — once
// to a file in each format — and its local -stats fold must report the
// identical digest for both files and for the generated stream itself:
// the TSV and AOL renderings of one generation stream normalize to one
// histogram.
func TestCLIIngestRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "slingest")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/slingest")
	cmd.Dir = repoRoot(t)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build slingest: %v\n%s", err, msg)
	}
	work := t.TempDir()
	tsv := filepath.Join(work, "c.tsv")
	aol := filepath.Join(work, "c.aol")
	run(t, bin, "-profile", "tiny", "-seed", "9", "-format", "tsv", "-o", tsv, "-quiet")
	run(t, bin, "-profile", "tiny", "-seed", "9", "-format", "aol", "-o", aol, "-quiet")

	digestOf := func(args ...string) string {
		out, _ := run(t, bin, append(args, "-stats", "-quiet")...)
		var res struct {
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal([]byte(out), &res); err != nil || res.Digest == "" {
			t.Fatalf("bad -stats output %q: %v", out, err)
		}
		return res.Digest
	}
	want := digestOf("-file", tsv, "-format", "tsv")
	if got := digestOf("-file", aol, "-format", "aol"); got != want {
		t.Fatalf("aol digest %s != tsv digest %s", got, want)
	}
	if got := digestOf("-profile", "tiny", "-seed", "9", "-format", "aol"); got != want {
		t.Fatalf("generated-stream digest %s != file digest %s", got, want)
	}
}

func TestCLISanitizeObjectives(t *testing.T) {
	bin := buildCmds(t)
	work := t.TempDir()
	corpus := filepath.Join(work, "corpus.tsv")
	run(t, filepath.Join(bin, "slgen"), "-profile", "tiny", "-seed", "5", "-o", corpus)
	for _, objective := range []string{"size", "frequent", "diversity", "combined", "query-diversity"} {
		_, stderr := run(t, filepath.Join(bin, "slsanitize"),
			"-eexp", "2", "-delta", "0.5", "-objective", objective,
			"-support", "0.01", "-o", filepath.Join(work, objective+".tsv"), corpus)
		if !strings.Contains(stderr, "audit OK") {
			t.Errorf("objective %s: no passing audit: %q", objective, stderr)
		}
	}
}
