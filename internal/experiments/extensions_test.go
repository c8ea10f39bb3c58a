package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestFrontierMonotone(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("frontier rows = %d, want 5", len(tab.Rows))
	}
	prev := -1.0
	for _, row := range tab.Rows {
		epsStar, err := strconv.ParseFloat(row.Cells[1], 64)
		if err != nil {
			t.Fatalf("bad ε cell %q", row.Cells[1])
		}
		if epsStar < prev-0.05 {
			t.Errorf("frontier ε* not monotone: %g after %g", epsStar, prev)
		}
		if epsStar > prev {
			prev = epsStar
		}
	}
}

func TestCombinedSweepShrinksRelease(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.CombinedSweep()
	if err != nil {
		t.Fatal(err)
	}
	first, err := strconv.Atoi(tab.Rows[0].Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	last, err := strconv.Atoi(tab.Rows[len(tab.Rows)-1].Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if last > first+1 {
		t.Errorf("release grew from %d to %d under a heavier distance weight", first, last)
	}
}

func TestQueryDivDominatesSPEQueries(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.QueryDiv()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		speQ, err := strconv.Atoi(row.Cells[1])
		if err != nil {
			t.Fatal(err)
		}
		qump, err := strconv.Atoi(row.Cells[2])
		if err != nil {
			t.Fatal(err)
		}
		if qump < speQ {
			t.Errorf("e^ε=%s: Q-UMP queries %d < SPE queries %d", row.Label, qump, speQ)
		}
	}
}

func TestMechanismFrontierCoversRegistry(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.MechanismFrontier()
	if err != nil {
		t.Fatal(err)
	}
	perMech := map[string]int{}
	for _, row := range tab.Rows {
		perMech[row.Label]++
	}
	for _, name := range []string{"ump", "laplace", "zealous"} {
		if perMech[name] != 4 {
			t.Errorf("mechanism %s has %d frontier rows, want 4 (one per e^ε)", name, perMech[name])
		}
	}
}

func TestBaselineCompareIteratesRegistry(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.BaselineCompare()
	if err != nil {
		t.Fatal(err)
	}
	// 3 budgets × (F-UMP + every registered aggregate mechanism).
	want := 3 * 3
	if len(tab.Rows) != want {
		t.Fatalf("baseline-compare rows = %d, want %d", len(tab.Rows), want)
	}
	for _, row := range tab.Rows {
		if strings.HasPrefix(row.Label, "F-UMP") {
			if row.Cells[3] != "yes" {
				t.Errorf("%s: per-user analysis = %q, want yes", row.Label, row.Cells[3])
			}
		} else if row.Cells[3] != "no" {
			t.Errorf("%s: per-user analysis = %q, want no (aggregate release)", row.Label, row.Cells[3])
		}
	}
}

func TestRunAllWithExtensions(t *testing.T) {
	r := tinyRunner(t)
	tabs, err := r.RunAllWithExtensions()
	if err != nil {
		t.Fatal(err)
	}
	want := len(Experiments()) + len(ExtensionExperiments())
	if len(tabs) != want {
		t.Fatalf("tables = %d, want %d", len(tabs), want)
	}
	seen := map[string]bool{}
	for _, tab := range tabs {
		seen[tab.ID] = true
		if !strings.Contains(tab.Render(), strings.ToUpper(tab.ID)) {
			t.Errorf("%s render missing its ID", tab.ID)
		}
	}
	for _, id := range ExtensionExperiments() {
		if !seen[id] {
			t.Errorf("extension %s missing from RunAllWithExtensions", id)
		}
	}
}
