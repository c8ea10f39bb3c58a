package ump

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"dpslog/internal/searchlog"
)

// goldenPlanDigests pins the SHA-256 of every plan below (see
// countsDigest). The O-, F- and C-UMP values were recorded while a dense
// explicit-inverse engine still shipped beside the sparse LU one and both
// were asserted to produce identical plans, so they carry that cross-check
// forward: any change to the simplex path that moves a single count fails
// here. The D-UMP (default SPE solver) and Q-UMP values, and the
// "/nodecompose" entries (Options.NoDecompose on the sharded profiles),
// were recorded while NoDecompose still ran a separate monolithic body per
// objective; they pin that the whole-log, one-component solve reproduces
// it byte for byte.
var goldenPlanDigests = map[string]string{
	"tiny/1/C-UMP":                      "748a718f9c6db2e7c77bb2030c6eb678c4002f2e6bf7ca746b165cbae50b08e8",
	"tiny/1/D-UMP":                      "4098b3fc6ba34999d50d1d344fd34f2b1e94174789eb395f18b3543f7a67fa38",
	"tiny/1/F-UMP":                      "0b1c9dba816501f9b730ad131374b5fd8f51a147bcc5b1dfc0f4eebe7d9ca0c8",
	"tiny/1/O-UMP":                      "f166eb991a45c0d527cb707ff705a59c553efe1b1be7ee95d986043c53bd3394",
	"tiny/1/Q-UMP":                      "dcee263d19418acbe1061a3d7a2773fbd47d0c6dd8681a9efc832f54f0f70ee0",
	"tiny/2/C-UMP":                      "2634a1d352fd462ae76912004c5e3c01d96e39321cb3a3613931de546400e212",
	"tiny/2/D-UMP":                      "c86d9c4e2d2f046f98adc41802875d5fb328a693af12187cc278605683229bfc",
	"tiny/2/F-UMP":                      "1deedc469d45da7690c5fac55da2db47f606c4333c08f12eeb45248881498b0c",
	"tiny/2/O-UMP":                      "a2cdc02af02697d4da3ae9a3fa9362e987e1cf15179f5b3e9458b01d413a5c92",
	"tiny/2/Q-UMP":                      "efe5a1da971d3790962ec72765648447f38e8229c976fe8be28b43f926c5be5e",
	"tiny/3/C-UMP":                      "e99ad4c1d5c3b24cebd1d81650011437be719874637b34e035f1e6a980155a88",
	"tiny/3/D-UMP":                      "e1a57c4d75f389d08ea6df37be5d7536ac0d58ab4ed5bff29869f55a2a8c1f1b",
	"tiny/3/F-UMP":                      "1825beae844383758644eb84c90d29fda700e7345db39127a898b2979085ed3c",
	"tiny/3/O-UMP":                      "b9cb3dacdc95c6c8cca7d9a33d1a1bfad150e969e3365c123c4195675d7e4ffc",
	"tiny/3/Q-UMP":                      "9328f940684f9a183569b4fd7711f764d941e9e9f494929b9abef9ea06d36464",
	"tiny-sharded/1/C-UMP":              "75b908e391d9e3f991f84db22af5b3eef5547d8a672f81b6856e3ee2c76afb93",
	"tiny-sharded/1/D-UMP":              "07a5e989eff9a7a4697ba8b03d9f572fcb4a44fd4d91978131fae3f84c05b3f7",
	"tiny-sharded/1/F-UMP":              "587afe609d12c568afbb22af2fec5345e61660c93082d3cb517c3ff0803fe3cf",
	"tiny-sharded/1/O-UMP":              "bdd536e19617aeef0d371255b166c81e19761bc0c127d862aedb1895fa85c43b",
	"tiny-sharded/1/Q-UMP":              "f633c859346e3897edcaa47d316e4a742c5f8d6a701c78a57e74458b21edfe5f",
	"tiny-sharded/1/C-UMP/nodecompose":  "75b908e391d9e3f991f84db22af5b3eef5547d8a672f81b6856e3ee2c76afb93",
	"tiny-sharded/1/D-UMP/nodecompose":  "120eac21d4964a36634921870ad97cea57521a8b1e23bd6095fcee6777334af1",
	"tiny-sharded/1/F-UMP/nodecompose":  "587afe609d12c568afbb22af2fec5345e61660c93082d3cb517c3ff0803fe3cf",
	"tiny-sharded/1/O-UMP/nodecompose":  "bdd536e19617aeef0d371255b166c81e19761bc0c127d862aedb1895fa85c43b",
	"tiny-sharded/1/Q-UMP/nodecompose":  "f633c859346e3897edcaa47d316e4a742c5f8d6a701c78a57e74458b21edfe5f",
	"tiny-sharded/2/C-UMP":              "37f7d3da54830741482936f7b53d457f381c71871f2eed35aee5bd50c7ce0dfe",
	"tiny-sharded/2/D-UMP":              "53c52bedb2350c66bcfff90348a0e3a053f6a1d6b210d1e51d84a0ac26850386",
	"tiny-sharded/2/F-UMP":              "1ee195794fb50b7b350fc3e8bb8edc4ad19722c6f692cee8a460c5653994b42f",
	"tiny-sharded/2/O-UMP":              "718179b2516c746d2902d871181d04b26300567ffaf46883f0cfdf6b925a9f96",
	"tiny-sharded/2/Q-UMP":              "ed9adcd1fd4731617cd17d470f30ad20b49a334f7c0cad2410f0cfebf37541fc",
	"tiny-sharded/2/C-UMP/nodecompose":  "37f7d3da54830741482936f7b53d457f381c71871f2eed35aee5bd50c7ce0dfe",
	"tiny-sharded/2/D-UMP/nodecompose":  "94746a0896dfbe70887b373c4f27c8390555251bff84a4ee89e64bed7851918b",
	"tiny-sharded/2/F-UMP/nodecompose":  "9041dacbf9701cb428238d9d6b710a569218da4433bbab69dcdf52f331a2509e",
	"tiny-sharded/2/O-UMP/nodecompose":  "718179b2516c746d2902d871181d04b26300567ffaf46883f0cfdf6b925a9f96",
	"tiny-sharded/2/Q-UMP/nodecompose":  "ed9adcd1fd4731617cd17d470f30ad20b49a334f7c0cad2410f0cfebf37541fc",
	"tiny-sharded/3/C-UMP":              "420a0377f9e239052146cde12fe7ebed1394bca73cf7d18b3e3c0f0c182768d6",
	"tiny-sharded/3/D-UMP":              "ca4bb7d907ef9a6b76ae86b60ca12fccf545e462be86d2602c9c6e1b8bf2c3f2",
	"tiny-sharded/3/F-UMP":              "8fff44c9627a01dd1d3d4b3cab861918ea0f9a4928f4e0b9e22847dbabdfeb7f",
	"tiny-sharded/3/O-UMP":              "582af499d9f8bd8629b8bb35f78f240ad45767891e517394a640030f05fd2d09",
	"tiny-sharded/3/Q-UMP":              "7ccaeb39eed3b80628fcf947d5698729a0ec7bc61a2c0835948a0b7e4a051ebb",
	"tiny-sharded/3/C-UMP/nodecompose":  "420a0377f9e239052146cde12fe7ebed1394bca73cf7d18b3e3c0f0c182768d6",
	"tiny-sharded/3/D-UMP/nodecompose":  "b2f1f569c904ea76ab9bc6b50c83536c6624dc9765a089ce21bf662b0477138b",
	"tiny-sharded/3/F-UMP/nodecompose":  "d5a2990947fbe13bdb0aea86642c3a59183999da6eaa7a8e911cf8c55a557c72",
	"tiny-sharded/3/O-UMP/nodecompose":  "582af499d9f8bd8629b8bb35f78f240ad45767891e517394a640030f05fd2d09",
	"tiny-sharded/3/Q-UMP/nodecompose":  "7ccaeb39eed3b80628fcf947d5698729a0ec7bc61a2c0835948a0b7e4a051ebb",
	"small-sharded/1/C-UMP":             "b767f72a69d88303e92195ea23d4fba7545c39e0e1a9a6240cda9947c20a0c83",
	"small-sharded/1/D-UMP":             "4fd794bc540360ababe530ef38bfe37caa5dca7117997b0a0c83e98ce2cb3ddf",
	"small-sharded/1/F-UMP":             "080f6226890093e545bf42a2be75c64c20470269a52906e319752ba3253b2dff",
	"small-sharded/1/O-UMP":             "09e35c7135b41326513aa950eae8b678f9dc07f9dbb62635ca3feb55ed9d88fd",
	"small-sharded/1/Q-UMP":             "2ac4a6ef22ef011880dfb3e9221c9a127b72508d2aff502bd14fb9341621bda6",
	"small-sharded/1/C-UMP/nodecompose": "b767f72a69d88303e92195ea23d4fba7545c39e0e1a9a6240cda9947c20a0c83",
	"small-sharded/1/D-UMP/nodecompose": "dc5c81e00b8c72640c48a19ca7708f50a3903f361369a40480a7aebc808041f8",
	"small-sharded/1/F-UMP/nodecompose": "27922f609cd643b56d1f68318d31e4e29e8046ec2722d550a17cbd4c93648011",
	"small-sharded/1/O-UMP/nodecompose": "09e35c7135b41326513aa950eae8b678f9dc07f9dbb62635ca3feb55ed9d88fd",
	"small-sharded/1/Q-UMP/nodecompose": "2ac4a6ef22ef011880dfb3e9221c9a127b72508d2aff502bd14fb9341621bda6",
	"small-sharded/2/C-UMP":             "3da917ff356b82b29d1e63d67a0218488d07cd22131904f45199be7fc14a9321",
	"small-sharded/2/D-UMP":             "b5ba39d10d7b99a274bca5d42a23bd4adde6030f08258b27b3128283b3ed4f13",
	"small-sharded/2/F-UMP":             "7920a7b2f37adeb6d10a7bfbdddf75ab9cc86aee442291bc86cec15beb0ded29",
	"small-sharded/2/O-UMP":             "2760c84b584989c482663844ad66a9e964af4217da3b31d839b36bc5ed3e4a45",
	"small-sharded/2/Q-UMP":             "579d5427b76559de0e22e424d9cb0acb5770cccc1be8784788f5849e71bace73",
	"small-sharded/2/C-UMP/nodecompose": "3da917ff356b82b29d1e63d67a0218488d07cd22131904f45199be7fc14a9321",
	"small-sharded/2/D-UMP/nodecompose": "d0626ada02e6cccee6f7d26bf0566f007a0d566281e0b7b8888b6ea1227f0ede",
	"small-sharded/2/F-UMP/nodecompose": "39b3eaf42eee728bada98e4e2001058326ee1423ba7cb2611326dbbe4b7203ee",
	"small-sharded/2/O-UMP/nodecompose": "2760c84b584989c482663844ad66a9e964af4217da3b31d839b36bc5ed3e4a45",
	"small-sharded/2/Q-UMP/nodecompose": "579d5427b76559de0e22e424d9cb0acb5770cccc1be8784788f5849e71bace73",
	"small-sharded/3/C-UMP":             "7df24dee620069c0875f8d28223c2c31ef1fbe0adfea61a5eac1e1932107308f",
	"small-sharded/3/D-UMP":             "36ff64e11899509309306ce89390a6548a0376f45ebd6c5793f6c3bdc569c51b",
	"small-sharded/3/F-UMP":             "6e71e7e5bdf8257b38741addd40ea2781d8c127d9624b75bc6cc6b44247b520d",
	"small-sharded/3/O-UMP":             "54d79969f075c919162d84ff0605b71e1d0a1925bdc7b5595a07552ead5d65ee",
	"small-sharded/3/Q-UMP":             "ed048d83e32d7d9140dc4bfd0f4fbae7e0aebe6006ed53af09df2599679d7178",
	"small-sharded/3/C-UMP/nodecompose": "7df24dee620069c0875f8d28223c2c31ef1fbe0adfea61a5eac1e1932107308f",
	"small-sharded/3/D-UMP/nodecompose": "f8a5203dee80427f79cf6b3a9f6fdfd2f23f7c200cba4e12cacc528f63a07a40",
	"small-sharded/3/F-UMP/nodecompose": "82ebc52a4fc50bd94c68f2d8f6e9591da7b4d5548fe8dc2efcedabc08118b878",
	"small-sharded/3/O-UMP/nodecompose": "54d79969f075c919162d84ff0605b71e1d0a1925bdc7b5595a07552ead5d65ee",
	"small-sharded/3/Q-UMP/nodecompose": "ed048d83e32d7d9140dc4bfd0f4fbae7e0aebe6006ed53af09df2599679d7178",
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

// TestPlanDigestsGolden checks O-, F-, C-, D- and Q-UMP plans against
// goldenPlanDigests for every profile and seed, decomposed at two
// parallelism levels and, on the sharded profiles, with NoDecompose: plans
// are byte-identical to the recorded ones and invariant under parallelism.
func TestPlanDigestsGolden(t *testing.T) {
	for _, profile := range []string{"tiny", "tiny-sharded", "small-sharded"} {
		if profile == "small-sharded" && testing.Short() {
			continue
		}
		type variant struct {
			suffix string
			opts   Options
		}
		variants := []variant{{"", Options{Parallelism: 1}}, {"", Options{Parallelism: 8}}}
		if profile != "tiny" {
			variants = append(variants, variant{"/nodecompose", Options{NoDecompose: true}})
		}
		for seed := uint64(1); seed <= 3; seed++ {
			pre := decompCorpus(t, profile, seed)
			for _, v := range variants {
				check := func(kind string, plan *Plan, err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					key := fmt.Sprintf("%s/%d/%s%s", profile, seed, kind, v.suffix)
					want, ok := goldenPlanDigests[key]
					if !ok {
						t.Fatalf("%s: no golden digest", key)
					}
					if got := countsDigest(plan.Counts); got != want {
						t.Errorf("%s par %d: plan digest %s, want %s", key, v.opts.Parallelism, got, want)
					}
				}
				sp, err := MaxOutputSize(pre, decompParams, v.opts)
				check("O-UMP", sp, err)

				dv, err := Diversity(pre, decompParams, v.opts)
				check("D-UMP", dv, err)

				qp, err := QueryDiversity(pre, decompParams, v.opts)
				check("Q-UMP", qp, err)

				size := sp.OutputSize / 2
				if size == 0 {
					continue
				}
				fp, err := FrequentSupport(pre, decompParams, 0.002, size, v.opts)
				check("F-UMP", fp, err)

				w := CombinedWeights{SizeWeight: 1, DistanceWeight: 1}
				cp, err := Combined(pre, decompParams, 0.002, w, v.opts)
				check("C-UMP", cp, err)
			}
		}
	}
}

// TestEmptyLogPlans pins every entry point on a log that preprocessing
// emptied (each pair held by one user), with and without decomposition and
// a component cache. The expectations were recorded while the empty log
// still took a separate monolithic body: F-UMP fails, and the other plans
// report one component, with nil Counts exactly where that body left them
// nil.
func TestEmptyLogPlans(t *testing.T) {
	b := searchlog.NewBuilder()
	b.Add("u1", "q1", "http://a", 3)
	b.Add("u2", "q2", "http://b", 2)
	pre, _ := searchlog.Preprocess(b.Log())
	if pre.NumPairs() != 0 {
		t.Fatalf("fixture keeps %d pairs, want 0", pre.NumPairs())
	}
	w := CombinedWeights{SizeWeight: 1, DistanceWeight: 1}
	for _, opts := range []Options{{}, {NoDecompose: true}, {Comp: NewComponentCache(0)}} {
		cases := []struct {
			kind      Kind
			nilCounts bool
			solve     func() (*Plan, error)
		}{
			{KindOutputSize, true, func() (*Plan, error) { return MaxOutputSize(pre, decompParams, opts) }},
			{KindDiversity, false, func() (*Plan, error) { return Diversity(pre, decompParams, opts) }},
			{KindQueryDiversity, false, func() (*Plan, error) { return QueryDiversity(pre, decompParams, opts) }},
			{KindCombined, true, func() (*Plan, error) { return Combined(pre, decompParams, 0.002, w, opts) }},
		}
		for _, tc := range cases {
			plan, err := tc.solve()
			if err != nil {
				t.Fatalf("%s (NoDecompose %v): %v", tc.kind, opts.NoDecompose, err)
			}
			if plan.Kind != tc.kind || (plan.Counts == nil) != tc.nilCounts || len(plan.Counts) != 0 ||
				plan.Components != 1 || plan.OutputSize != 0 || plan.Objective != 0 {
				t.Errorf("%s (NoDecompose %v): got kind %s, nil counts %v, %d counts, %d components, size %d, objective %g",
					tc.kind, opts.NoDecompose, plan.Kind, plan.Counts == nil, len(plan.Counts), plan.Components, plan.OutputSize, plan.Objective)
			}
		}
		if _, err := FrequentSupport(pre, decompParams, 0.002, 1, opts); err == nil {
			t.Errorf("F-UMP (NoDecompose %v) on an empty log: want an error", opts.NoDecompose)
		}
	}
}
