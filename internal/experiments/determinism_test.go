package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tables under testdata/")

// TestExperimentsDeterministic: two independent runners with identical
// configs must render byte-identical tables for every experiment, paper and
// extension, except fig5 (wall-clock timings). This is the reproducibility
// guarantee the README promises. The tables must also equal the committed
// testdata/<id>.txt — what `slexp -profile tiny -seed 9 -fig6-reps 2 -exp
// all+ext` prints — so a change that moves any cell fails. After a
// deliberate change, regenerate them with `go test ./internal/experiments
// -run TestExperimentsDeterministic -update`.
func TestExperimentsDeterministic(t *testing.T) {
	cfg := Config{Profile: "tiny", Seed: 9, SampleReps: 2}
	r1, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append(Experiments(), ExtensionExperiments()...) {
		if id == "fig5" {
			continue // timings are non-deterministic by nature
		}
		a, err := r1.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b, err := r2.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.Render() != b.Render() {
			t.Errorf("%s not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", id, a.Render(), b.Render())
		}
		path := filepath.Join("testdata", id+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(a.Render()), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if want, err := os.ReadFile(path); err != nil || a.Render() != string(want) {
			t.Errorf("%s drifted from %s (%v):\n--- got ---\n%s--- want ---\n%s", id, path, err, a.Render(), want)
		}
	}
}

// TestSeedChangesCorpus: different seeds must give different corpora (and
// thus different Table 3 rows) — the seed is not ignored.
func TestSeedChangesCorpus(t *testing.T) {
	r1, err := NewRunner(Config{Profile: "tiny", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(Config{Profile: "tiny", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := r1.Table3()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := r2.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if t1.Render() == t2.Render() {
		t.Error("different seeds produced identical Table 3")
	}
}

// TestTableRenderAlignment: rendered tables keep each row's cell count.
func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "t",
		Header: []string{"a", "bb", "ccc"},
	}
	tab.AddRow("row1", "1", "2")
	tab.AddRow("longer-row", "333", "4")
	tab.Note("note %d", 1)
	out := tab.Render()
	if out == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"X — t", "row1", "longer-row", "note: note 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestPrewarmMatchesSerial: concurrent prewarming must leave the cache in
// exactly the state serial solving produces, and Table 4 must render
// identically either way.
func TestPrewarmMatchesSerial(t *testing.T) {
	cfg := Config{Profile: "tiny", Seed: 4}
	warm, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Prewarm(EExpGrid7, DeltaGrid7); err != nil {
		t.Fatal(err)
	}
	cold, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := warm.Table4()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cold.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Errorf("prewarmed Table 4 differs from serial:\n%s\nvs\n%s", a.Render(), b.Render())
	}
	// Prewarming again is a no-op.
	if err := warm.Prewarm(EExpGrid7, DeltaGrid7); err != nil {
		t.Fatal(err)
	}
}
