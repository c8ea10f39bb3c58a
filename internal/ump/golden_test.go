package ump

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenPlanDigests pins the SHA-256 of every LP-backed plan below (see
// countsDigest). The values were recorded while a dense explicit-inverse
// engine still shipped beside the sparse LU one and both were asserted to
// produce identical plans, so they carry that cross-check forward: any
// change to the simplex path that moves a single count fails here. D-UMP
// and Q-UMP are greedy/BIP solves and are covered by the decomposition
// property grid.
var goldenPlanDigests = map[string]string{
	"tiny/1/O-UMP":          "f166eb991a45c0d527cb707ff705a59c553efe1b1be7ee95d986043c53bd3394",
	"tiny/1/F-UMP":          "0b1c9dba816501f9b730ad131374b5fd8f51a147bcc5b1dfc0f4eebe7d9ca0c8",
	"tiny/1/C-UMP":          "748a718f9c6db2e7c77bb2030c6eb678c4002f2e6bf7ca746b165cbae50b08e8",
	"tiny/2/O-UMP":          "a2cdc02af02697d4da3ae9a3fa9362e987e1cf15179f5b3e9458b01d413a5c92",
	"tiny/2/F-UMP":          "1deedc469d45da7690c5fac55da2db47f606c4333c08f12eeb45248881498b0c",
	"tiny/2/C-UMP":          "2634a1d352fd462ae76912004c5e3c01d96e39321cb3a3613931de546400e212",
	"tiny/3/O-UMP":          "b9cb3dacdc95c6c8cca7d9a33d1a1bfad150e969e3365c123c4195675d7e4ffc",
	"tiny/3/F-UMP":          "1825beae844383758644eb84c90d29fda700e7345db39127a898b2979085ed3c",
	"tiny/3/C-UMP":          "e99ad4c1d5c3b24cebd1d81650011437be719874637b34e035f1e6a980155a88",
	"tiny-sharded/1/O-UMP":  "bdd536e19617aeef0d371255b166c81e19761bc0c127d862aedb1895fa85c43b",
	"tiny-sharded/1/F-UMP":  "587afe609d12c568afbb22af2fec5345e61660c93082d3cb517c3ff0803fe3cf",
	"tiny-sharded/1/C-UMP":  "75b908e391d9e3f991f84db22af5b3eef5547d8a672f81b6856e3ee2c76afb93",
	"tiny-sharded/2/O-UMP":  "718179b2516c746d2902d871181d04b26300567ffaf46883f0cfdf6b925a9f96",
	"tiny-sharded/2/F-UMP":  "1ee195794fb50b7b350fc3e8bb8edc4ad19722c6f692cee8a460c5653994b42f",
	"tiny-sharded/2/C-UMP":  "37f7d3da54830741482936f7b53d457f381c71871f2eed35aee5bd50c7ce0dfe",
	"tiny-sharded/3/O-UMP":  "582af499d9f8bd8629b8bb35f78f240ad45767891e517394a640030f05fd2d09",
	"tiny-sharded/3/F-UMP":  "8fff44c9627a01dd1d3d4b3cab861918ea0f9a4928f4e0b9e22847dbabdfeb7f",
	"tiny-sharded/3/C-UMP":  "420a0377f9e239052146cde12fe7ebed1394bca73cf7d18b3e3c0f0c182768d6",
	"small-sharded/1/O-UMP": "09e35c7135b41326513aa950eae8b678f9dc07f9dbb62635ca3feb55ed9d88fd",
	"small-sharded/1/F-UMP": "080f6226890093e545bf42a2be75c64c20470269a52906e319752ba3253b2dff",
	"small-sharded/1/C-UMP": "b767f72a69d88303e92195ea23d4fba7545c39e0e1a9a6240cda9947c20a0c83",
	"small-sharded/2/O-UMP": "2760c84b584989c482663844ad66a9e964af4217da3b31d839b36bc5ed3e4a45",
	"small-sharded/2/F-UMP": "7920a7b2f37adeb6d10a7bfbdddf75ab9cc86aee442291bc86cec15beb0ded29",
	"small-sharded/2/C-UMP": "3da917ff356b82b29d1e63d67a0218488d07cd22131904f45199be7fc14a9321",
	"small-sharded/3/O-UMP": "54d79969f075c919162d84ff0605b71e1d0a1925bdc7b5595a07552ead5d65ee",
	"small-sharded/3/F-UMP": "6e71e7e5bdf8257b38741addd40ea2781d8c127d9624b75bc6cc6b44247b520d",
	"small-sharded/3/C-UMP": "7df24dee620069c0875f8d28223c2c31ef1fbe0adfea61a5eac1e1932107308f",
}

// countsDigest hashes plan counts as consecutive little-endian uint64s.
func countsDigest(counts []int) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range counts {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlanDigestsGolden checks O-, F- and C-UMP plans against
// goldenPlanDigests for every profile, seed and parallelism level: plans
// are byte-identical to the recorded ones and invariant under parallelism.
func TestPlanDigestsGolden(t *testing.T) {
	for _, profile := range []string{"tiny", "tiny-sharded", "small-sharded"} {
		if profile == "small-sharded" && testing.Short() {
			continue
		}
		for seed := uint64(1); seed <= 3; seed++ {
			pre := decompCorpus(t, profile, seed)
			for _, par := range []int{1, 8} {
				check := func(kind string, plan *Plan, err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					key := fmt.Sprintf("%s/%d/%s", profile, seed, kind)
					want, ok := goldenPlanDigests[key]
					if !ok {
						t.Fatalf("%s: no golden digest", key)
					}
					if got := countsDigest(plan.Counts); got != want {
						t.Errorf("%s par %d: plan digest %s, want %s", key, par, got, want)
					}
				}
				sp, err := MaxOutputSize(pre, decompParams, Options{Parallelism: par})
				check("O-UMP", sp, err)

				size := sp.OutputSize / 2
				if size == 0 {
					continue
				}
				fp, err := FrequentSupport(pre, decompParams, 0.002, size, Options{Parallelism: par})
				check("F-UMP", fp, err)

				w := CombinedWeights{SizeWeight: 1, DistanceWeight: 1}
				cp, err := Combined(pre, decompParams, 0.002, w, Options{Parallelism: par})
				check("C-UMP", cp, err)
			}
		}
	}
}
