package mechanism

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dpslog/internal/gen"
)

// goldenOptions is the slbench/experiments calibration at privacy level
// e^ε = eExp: O-UMP at δ = 0.5, laplace at δ̂ = 10⁻³ with D = 5, zealous at
// δ = 0.5 with D = 5, and the localdp defaults.
func goldenOptions(name string, eExp float64) Options {
	opts := Options{Mechanism: name, Epsilon: math.Log(eExp), Seed: 7}
	switch name {
	case "ump":
		opts.Delta = 0.5
	case "laplace":
		opts.Delta, opts.D = 1e-3, 5
	case "zealous":
		opts.Delta, opts.D = 0.5, 5
	}
	return opts
}

// TestGoldenReleases pins the release bytes of every registered mechanism
// on two synthetic corpora at two budgets. A changed digest means a
// release path changed behaviour: seed salts, noise draw order,
// contribution bounding or the threshold calibration. (At δ = 0.5 the
// merged UMP budget min(ε, ln 1/(1−δ)) is ln 2 at both levels, so its two
// pins coincide.)
func TestGoldenReleases(t *testing.T) {
	type pin struct {
		digest string
		rows   int
	}
	want := map[string]pin{
		"tiny/2/laplace":           {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0},
		"tiny/2/localdp":           {"4c83e1d23ae8b2e93f002a0b676254a5f42ddfb573f2f67eb53c1353804521ab", 27},
		"tiny/2/ump":               {"f3b182fe4462aad69d2a8636c940c77b6e59b867822b238ee709e3ce41034257", 12},
		"tiny/2/zealous":           {"4670d993cecff93e8d43647741f5fdf7563ea9e83232a2c2cfcb10800e670556", 1},
		"tiny/50/laplace":          {"3b152fc8a3ce6be3fde0e9671a3b0aadbf29c1ec2a2e868793563fab90c44e56", 7},
		"tiny/50/localdp":          {"436982606f39ec6e724df13ee36e4c49700358111a6a3bed1404fcd912424efa", 33},
		"tiny/50/ump":              {"f3b182fe4462aad69d2a8636c940c77b6e59b867822b238ee709e3ce41034257", 12},
		"tiny/50/zealous":          {"1146bf614c22dc0010ff8a9ef73957350553350008967bd3eb1cced337542bac", 13},
		"small-sharded/2/laplace":  {"f40c375dcf0970f78b0888f18e3b7cfa16be52e25596590eea8f201bfbcadb99", 21},
		"small-sharded/2/localdp":  {"7f1f74410f9f9850c05204114effdda652ae09f977947aa73a49d463dcc75cf6", 694},
		"small-sharded/2/ump":      {"5c65883a8d12a885dca453976059e116a8868ff85901ca407ee1ac2d5ff4da03", 141},
		"small-sharded/2/zealous":  {"dca1eb7f59254b3bde2c4cef650af38bc9f0978a8feeae6223b65a5b8cfb94d1", 48},
		"small-sharded/50/laplace": {"52349993cf3c1293074fc04606178f28c7e9c72f7916fe2be28ff38fc3379107", 172},
		"small-sharded/50/localdp": {"689d8c3894b1c5afeefac118dad143d2cf10fa3b19fa1839294deacd332a678c", 633},
		"small-sharded/50/ump":     {"5c65883a8d12a885dca453976059e116a8868ff85901ca407ee1ac2d5ff4da03", 141},
		"small-sharded/50/zealous": {"afa33a206cca59103bbf7f96633497e29a6bf910d77c52095613db5b13becd3c", 271},
	}
	for _, profile := range []string{"tiny", "small-sharded"} {
		p, err := gen.Profiles(profile)
		if err != nil {
			t.Fatal(err)
		}
		_, pre, _, err := gen.GeneratePreprocessed(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, eExp := range []float64{2, 50} {
			for _, name := range Names() {
				m, err := Get(name)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%g/%s", profile, eExp, name)
				rel, err := m.Sanitize(context.Background(), pre, goldenOptions(name, eExp))
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := pin{rel.Digest(), rel.Rows()}
				if got != want[key] {
					t.Errorf("%s: got {%q, %d}, want {%q, %d}", key, got.digest, got.rows, want[key].digest, want[key].rows)
				}
			}
		}
	}
}
