package bip

import (
	"fmt"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/searchlog"
)

// FuzzSolversVerify builds a tiny preprocessed log and a budget from the
// input, runs every registered solver on its Theorem-1 system, and requires
// each selection, as 0/1 counts, to pass the independent release audit
// dp.VerifyLog without beating the exhaustive optimum.
func FuzzSolversVerify(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 2, 2, 5, 1, 0, 5, 3, 3, 9, 0, 1, 9, 2}, uint8(44), uint8(60))
	f.Add([]byte{0, 1, 3, 1, 1, 3, 2, 1, 3, 3, 1, 3, 4, 1, 3}, uint8(4), uint8(1))
	f.Add([]byte{5, 2, 0, 4, 2, 1, 5, 7, 2, 4, 7, 3, 1, 11, 0, 2, 11, 1, 0, 7, 2}, uint8(200), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, epsSel, deltaSel uint8) {
		// Each 3-byte record is (user, pair, count): at most 6 users and
		// 12 pairs, so Exhaustive stays cheap.
		b := searchlog.NewBuilder()
		for i := 0; i+2 < len(data) && i < 3*32; i += 3 {
			pair := data[i+1] % 12
			b.Add(fmt.Sprintf("u%d", data[i]%6), fmt.Sprintf("q%d", pair/3), fmt.Sprintf("url%d", pair%3), 1+int(data[i+2]%4))
		}
		pre, _ := searchlog.Preprocess(b.Log())
		params := dp.Params{Eps: 0.05 + float64(epsSel)/64, Delta: (1 + float64(deltaSel)) / 258}
		c, err := dp.Build(pre, params)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Exhaustive(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Names() {
			s, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := s.Solve(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := dp.VerifyLog(pre, params, sol.Counts()); err != nil {
				t.Fatalf("%s selection fails the audit: %v", name, err)
			}
			if sol.Objective != Objective(sol.Y) {
				t.Fatalf("%s reports objective %d for %d selected pairs", name, sol.Objective, Objective(sol.Y))
			}
			if sol.Objective > opt.Objective {
				t.Fatalf("%s beat the exhaustive optimum: %d > %d", name, sol.Objective, opt.Objective)
			}
		}
	})
}
