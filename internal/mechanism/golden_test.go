package mechanism

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dpslog/internal/gen"
)

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
		"tiny/2/ump":               {"f3b182fe4462aad69d2a8636c940c77b6e59b867822b238ee709e3ce41034257", 12},
		"tiny/2/zealous":           {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0},
		"tiny/50/laplace":          {"9a6c8be82c2705d90b3687a535bcd29c6b64a167758695289be5cfcacdc13739", 1},
		"tiny/50/ump":              {"f3b182fe4462aad69d2a8636c940c77b6e59b867822b238ee709e3ce41034257", 12},
		"tiny/50/zealous":          {"470e647fee9e08bd2cba202b07045851c7c118ad0b572d315d18f31851186f98", 5},
		"small-sharded/2/laplace":  {"0cc71696df943dc6174b6172b0bf2a583ac515c9c27989a0e2a13943820150b4", 1},
		"small-sharded/2/ump":      {"5c65883a8d12a885dca453976059e116a8868ff85901ca407ee1ac2d5ff4da03", 141},
		"small-sharded/2/zealous":  {"8e18ed19ce38b303775c8e7ac13c706a1e9392705777445d4cf2b16c7d84c8b8", 2},
		"small-sharded/50/laplace": {"e7958acb4c5e9d959cb5bdea4b739f8990b24f64dc92a2667c9ad7bc61d1c988", 28},
		"small-sharded/50/ump":     {"5c65883a8d12a885dca453976059e116a8868ff85901ca407ee1ac2d5ff4da03", 141},
		"small-sharded/50/zealous": {"2b07c0e9aac068224d9bd6b5d50845bb90db04fbb485ee8ea0a339ff57da4501", 51},
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
				rel, err := m.Sanitize(context.Background(), pre, Calibrated(name, math.Log(eExp), 7))
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
