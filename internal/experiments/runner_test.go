package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// tinyRunner builds a Runner on the tiny profile once per test binary.
func tinyRunner(t testing.TB) *Runner {
	t.Helper()
	r, err := NewRunner(Config{Profile: "tiny", Seed: 5, SampleReps: 3})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func cellFloat(t *testing.T, c string) float64 {
	t.Helper()
	c = strings.TrimSuffix(strings.TrimSuffix(c, "*"), "%")
	c = strings.TrimSuffix(c, "*")
	v, err := strconv.ParseFloat(c, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", c, err)
	}
	return v
}

func cellClamped(c string) bool { return strings.HasSuffix(c, "*") }

func TestNewRunnerDefaults(t *testing.T) {
	r, err := NewRunner(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.Profile != "small" || r.cfg.FeasPumpIter != 5 || r.cfg.BBNodes != 5 || r.cfg.SampleReps != 10 {
		t.Errorf("defaults not applied: %+v", r.cfg)
	}
	if _, err := NewRunner(Config{Profile: "bogus"}); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestTable3Shape(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("Table 3 rows = %d, want 5", len(tab.Rows))
	}
	// Preprocessing shrinks every characteristic.
	for _, row := range tab.Rows {
		raw := cellFloat(t, row.Cells[0])
		pre := cellFloat(t, row.Cells[1])
		if pre > raw {
			t.Errorf("%s: preprocessed %v > raw %v", row.Label, pre, raw)
		}
	}
	if !strings.Contains(tab.Render(), "TABLE3") {
		t.Error("Render missing table ID")
	}
}

func TestTable4MonotoneAndPlateaus(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(EExpGrid7) || len(tab.Rows[0].Cells) != len(DeltaGrid7) {
		t.Fatalf("grid shape %dx%d", len(tab.Rows), len(tab.Rows[0].Cells))
	}
	grid := make([][]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		grid[i] = make([]float64, len(row.Cells))
		for j, c := range row.Cells {
			grid[i][j] = cellFloat(t, c)
		}
	}
	// λ must be monotone non-decreasing along both axes.
	for i := range grid {
		for j := 1; j < len(grid[i]); j++ {
			if grid[i][j] < grid[i][j-1]-1 { // -1 for LP floor noise
				t.Errorf("row %d: λ decreased %v -> %v", i, grid[i][j-1], grid[i][j])
			}
		}
	}
	for j := 0; j < len(grid[0]); j++ {
		for i := 1; i < len(grid); i++ {
			if grid[i][j] < grid[i-1][j]-1 {
				t.Errorf("col %d: λ decreased %v -> %v", j, grid[i-1][j], grid[i][j])
			}
		}
	}
	// Plateau along δ once ln 1/(1−δ) ≥ ε: for the smallest e^ε = 1.001
	// (ε ≈ 0.001), δ ≥ 0.01 gives identical budgets, hence identical λ.
	first := grid[0]
	for j := 3; j < len(first); j++ {
		if first[j] != first[2] {
			t.Errorf("row e^ε=1.001: expected plateau from δ=0.01, got %v", first)
		}
	}
	// Plateau along ε at δ = 1e-4: budget pinned to ln 1/(1−δ) for all
	// e^ε ≥ 1.01.
	for i := 2; i < len(grid); i++ {
		if grid[i][0] != grid[1][0] {
			t.Errorf("col δ=1e-4: expected plateau, got %v vs %v", grid[i][0], grid[1][0])
		}
	}
}

func TestBudgetCacheCollapsesGrid(t *testing.T) {
	r := tinyRunner(t)
	if _, err := r.Table4(); err != nil {
		t.Fatal(err)
	}
	distinct := DistinctBudgets(EExpGrid7, DeltaGrid7)
	if len(r.lambdaCache) != len(distinct) {
		t.Errorf("λ cache has %d entries, want %d distinct budgets", len(r.lambdaCache), len(distinct))
	}
	if len(distinct) >= len(EExpGrid7)*len(DeltaGrid7) {
		t.Error("budget collapse ineffective")
	}
}

func TestDistinctBudgets(t *testing.T) {
	got := DistinctBudgets(EExpGrid7, DeltaGrid7)
	for i := 1; i < len(got); i++ {
		if !(got[i-1].Budget() < got[i].Budget()) {
			t.Fatalf("budgets not strictly ascending at %d: %g then %g", i, got[i-1].Budget(), got[i].Budget())
		}
	}
	have := map[float64]bool{}
	for _, p := range got {
		have[p.Budget()] = true
	}
	for _, e := range EExpGrid7 {
		for _, d := range DeltaGrid7 {
			if b := params(e, d).Budget(); !have[b] {
				t.Errorf("grid point (e^ε=%g, δ=%g) budget %g missing", e, d, b)
			}
		}
	}
	if len(have) != len(got) {
		t.Errorf("%d points for %d distinct budgets", len(got), len(have))
	}

	// δ = 10⁻⁴ binds below both ε, so the column collapses to one point,
	// represented by its first e^ε.
	col := DistinctBudgets([]float64{1.01, 2}, []float64{1e-4})
	if len(col) != 1 || col[0] != params(1.01, 1e-4) {
		t.Errorf("δ=1e-4 column = %+v, want one point (1.01, 1e-4)", col)
	}
	if got := DistinctBudgets(nil, DeltaGrid7); len(got) != 0 {
		t.Errorf("empty grid gave %d budgets", len(got))
	}
}

func TestFig3aRecallMonotoneInEps(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		prev := -1.0
		for j, c := range row.Cells {
			v := cellFloat(t, c)
			if v < prev-0.15 { // integral flooring can wobble slightly
				t.Errorf("%s: recall dropped at col %d: %v -> %v", row.Label, j, prev, v)
			}
			if v < 0 || v > 1 {
				t.Errorf("recall %v out of range", v)
			}
			prev = v
		}
	}
}

func TestFig3bDistancesShrinkWithBudget(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's trend (distances shrink as the budget grows) applies to
	// cells that run at the full requested |O|; clamped cells (λ < |O|)
	// solve a different, smaller problem and are excluded.
	for _, row := range tab.Rows {
		prev := -1.0
		for _, c := range row.Cells {
			if cellClamped(c) {
				continue
			}
			v := cellFloat(t, c)
			if prev >= 0 && v > prev+1e-9 {
				t.Errorf("%s: unclamped distance sum grew with budget: %v -> %v", row.Label, prev, v)
			}
			prev = v
		}
	}
}

func TestTables56Shape(t *testing.T) {
	r := tinyRunner(t)
	t5, err := r.Table5()
	if err != nil {
		t.Fatal(err)
	}
	t6, err := r.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != len(SupportGrid) || len(t6.Rows) != len(SupportGrid) {
		t.Fatal("support grid rows missing")
	}
	for _, row := range t5.Rows {
		for _, c := range row.Cells {
			v := cellFloat(t, c)
			if v < 0 || v > 1 {
				t.Errorf("recall %v out of range", v)
			}
		}
	}
	// Distances are non-negative and bounded by the frequent mass. The
	// paper's |O|-trend (sums grow with |O| at fixed s) needs |O| ≫ 1 per
	// frequent pair and is verified on the small profile in EXPERIMENTS.md,
	// not at this tiny scale where rounding noise dominates.
	for _, row := range t6.Rows {
		for _, c := range row.Cells {
			if v := cellFloat(t, c); v < 0 || math.IsNaN(v) {
				t.Errorf("table6 cell %q invalid", c)
			}
		}
	}
}

func TestFig4DiversityMonotone(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		prev := -1.0
		for _, c := range row.Cells {
			v := cellFloat(t, c)
			if v < 0 || v > 100 {
				t.Errorf("diversity %v%% out of range", v)
			}
			if v < prev-5 { // SPE is a heuristic; tolerate small wobble
				t.Errorf("%s: diversity dropped sharply: %v -> %v", row.Label, prev, v)
			}
			prev = v
		}
	}
}

func TestTable7SolverRows(t *testing.T) {
	r := tinyRunner(t)
	for _, fn := range []func() (*Table, error){r.Table7a, r.Table7b} {
		tab, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 6 {
			t.Fatalf("%s: %d solver rows, want 6", tab.ID, len(tab.Rows))
		}
		names := map[string]bool{}
		for _, row := range tab.Rows {
			names[row.Label] = true
			for _, c := range row.Cells {
				v := cellFloat(t, c)
				if v < 0 || v > 100 {
					t.Errorf("%s %s: diversity %v%% out of range", tab.ID, row.Label, v)
				}
			}
		}
		for _, want := range []string{"spe", "spe-violated", "branchbound", "rounding", "greedy", "feaspump"} {
			if !names[want] {
				t.Errorf("%s: missing solver row %q", tab.ID, want)
			}
		}
	}
}

func TestFig6SharesAndMass(t *testing.T) {
	r := tinyRunner(t)
	tab, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Fig 6 rows = %d, want 2 release + 2 sampler rows", len(tab.Rows))
	}
	var samplerShares []float64
	for _, row := range tab.Rows {
		share := cellFloat(t, row.Cells[len(row.Cells)-1])
		if share < 0 || share > 100 {
			t.Errorf("≤40%% share %v out of range", share)
		}
		if strings.HasPrefix(row.Label, "sampler") {
			samplerShares = append(samplerShares, share)
		}
	}
	if len(samplerShares) != 2 {
		t.Fatalf("sampler rows = %d, want 2", len(samplerShares))
	}
	// The paper's headline: most triplets below 40% DiffRatio. The sampler
	// rows reproduce it (identity scale isolates the multinomial step).
	for _, share := range samplerShares {
		if share < 50 {
			t.Errorf("sampler ≤40%% share = %v%%, want the majority of triplets", share)
		}
	}
}

func TestRunAllAndUnknown(t *testing.T) {
	r := tinyRunner(t)
	tabs, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != len(Experiments()) {
		t.Fatalf("RunAll returned %d tables, want %d", len(tabs), len(Experiments()))
	}
	for i, id := range Experiments() {
		if tabs[i].ID != id {
			t.Errorf("table %d is %q, want %q", i, tabs[i].ID, id)
		}
		if tabs[i].Render() == "" {
			t.Errorf("%s renders empty", id)
		}
	}
	if _, err := r.Run("table99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
