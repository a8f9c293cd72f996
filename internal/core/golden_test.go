package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/fermion"
	"repro/internal/models"
	"repro/internal/tree"
)

// goldenInput is one Hamiltonian the golden table pins every search on.
type goldenInput struct {
	name string
	mh   *fermion.MajoranaHamiltonian
}

func goldenInputs(t *testing.T) []goldenInput {
	t.Helper()
	var in []goldenInput
	for _, n := range []int{4, 6, 8, 12} {
		for seed := int64(1); seed <= 6; seed++ {
			in = append(in, goldenInput{fmt.Sprintf("rand%d-s%d", n, seed), randomFermionic(n, 3*n, seed)})
		}
	}
	for _, spec := range []string{"h2", "hubbard:2x2", "hubbard:2x3", "hubbard:3x3", "hubbard:4x4", "neutrino:3x2"} {
		h, err := models.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, goldenInput{spec, h.Majorana(1e-12)})
	}
	return append(in, goldenInput{"eq3", eq3()}, goldenInput{"motivation", motivation()})
}

// goldenSearch is one search configuration; extra carries outputs
// beyond the mapping (the exhaustive search's optimality and visits).
type goldenSearch struct {
	name     string
	maxModes int // 0: every input
	search   func(context.Context, *fermion.MajoranaHamiltonian, Options) (*Result, error)
	opts     Options
}

func goldenSearches() []goldenSearch {
	out := []goldenSearch{
		{name: "build-first", search: Build, opts: Options{TieBreak: TieFirst}},
		{name: "build-depth", search: Build, opts: Options{TieBreak: TieDepth}},
		{name: "build-support", search: Build, opts: Options{TieBreak: TieSupport}},
		{name: "unopt", search: BuildUnopt},
		{name: "anneal", search: Anneal, opts: Options{Iters: 400, Seed: 3, Restarts: 2, Workers: 2}},
		{name: "exhaustive", maxModes: 6, opts: Options{MaxVisits: 20_000}},
	}
	for _, w := range []int{1, 2, 4, 8} {
		// TieSupport is set on purpose: beam search and its greedy
		// incumbent ignore the tie-break and must stay first-found.
		out = append(out, goldenSearch{name: fmt.Sprintf("beam%d", w), search: Beam, opts: Options{Width: w, TieBreak: TieSupport}})
	}
	return out
}

// run executes the search, returning its result and extra output.
func (s goldenSearch) run(ctx context.Context, mh *fermion.MajoranaHamiltonian) (*Result, string, error) {
	if s.search != nil {
		r, err := s.search(ctx, mh, s.opts)
		return r, "", err
	}
	r, err := Exhaustive(ctx, mh, s.opts)
	if err != nil {
		return nil, "", err
	}
	return &r.Result, fmt.Sprintf("optimal=%v visited=%d", r.Optimal, r.Visited), nil
}

// goldenDigest hashes a result's mapping (name and every Majorana string
// with its phase), its tree (every node's ID and qubit in preorder) and
// any extra output.
func goldenDigest(t *testing.T, r *Result, extra string) string {
	t.Helper()
	h := sha256.New()
	if err := r.Mapping.WriteText(h); err != nil {
		t.Fatal(err)
	}
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		fmt.Fprintf(h, "%d:%d,", n.ID, n.Qubit)
		if !n.IsLeaf() {
			for _, c := range n.Child {
				walk(c)
			}
		}
	}
	walk(r.Tree.Root)
	h.Write([]byte(extra))
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestSearchesGolden pins the exact output of every search in this
// package on a fixed set of inputs: weight plus a digest of the mapping
// and tree. A refactor of the searches must reproduce every entry.
func TestSearchesGolden(t *testing.T) {
	ctx := context.Background()
	got := make(map[string]string)
	for _, in := range goldenInputs(t) {
		for _, s := range goldenSearches() {
			if s.maxModes > 0 && in.mh.Modes > s.maxModes {
				continue
			}
			r, extra, err := s.run(ctx, in.mh)
			if err != nil {
				t.Fatalf("%s/%s: %v", in.name, s.name, err)
			}
			got[in.name+"/"+s.name] = fmt.Sprintf("%d %s", r.PredictedWeight, goldenDigest(t, r, extra))
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := goldenWant[k]
		if !ok {
			t.Errorf("%s: no golden entry (got %q)", k, got[k])
			continue
		}
		if got[k] != want {
			t.Errorf("%s: got %q, want %q", k, got[k], want)
		}
	}
	if len(got) != len(goldenWant) {
		t.Errorf("ran %d cases, golden table has %d", len(got), len(goldenWant))
	}
}

// goldenWant is the expected output of every case; a change to any entry
// is a change in what a search returns.
var goldenWant = map[string]string{
	"eq3/anneal":                 "5 724336f6e80ac296",
	"eq3/beam1":                  "5 1e8306e04f42025a",
	"eq3/beam2":                  "5 1e8306e04f42025a",
	"eq3/beam4":                  "5 1e8306e04f42025a",
	"eq3/beam8":                  "5 1e8306e04f42025a",
	"eq3/build-depth":            "5 489dcc1055aa0112",
	"eq3/build-first":            "5 489dcc1055aa0112",
	"eq3/build-support":          "5 15db933574f1c6fa",
	"eq3/exhaustive":             "5 482ed1647fa9a5ee",
	"eq3/unopt":                  "5 998fc01ff5062d19",
	"h2/anneal":                  "32 dfe9f79fa8ad83d0",
	"h2/beam1":                   "32 bafd0daf08c13279",
	"h2/beam2":                   "32 bafd0daf08c13279",
	"h2/beam4":                   "32 bafd0daf08c13279",
	"h2/beam8":                   "32 bafd0daf08c13279",
	"h2/build-depth":             "32 f28d5572b73f43c7",
	"h2/build-first":             "32 f28d5572b73f43c7",
	"h2/build-support":           "32 f28d5572b73f43c7",
	"h2/exhaustive":              "32 73a5ae6144c1ccf6",
	"h2/unopt":                   "32 afd830d113518567",
	"hubbard:2x2/anneal":         "58 f5486b9233186758",
	"hubbard:2x2/beam1":          "78 da59c3e7bf8b481e",
	"hubbard:2x2/beam2":          "76 9d6a38d4057aa871",
	"hubbard:2x2/beam4":          "76 9d6a38d4057aa871",
	"hubbard:2x2/beam8":          "76 9d6a38d4057aa871",
	"hubbard:2x2/build-depth":    "78 32ae8539bead544f",
	"hubbard:2x2/build-first":    "78 32ae8539bead544f",
	"hubbard:2x2/build-support":  "56 33b7cb21776fb7ee",
	"hubbard:2x2/unopt":          "82 c00975729f26dcb9",
	"hubbard:2x3/anneal":         "118 ab3fcef1efd7de80",
	"hubbard:2x3/beam1":          "135 0c66335a03f08dbb",
	"hubbard:2x3/beam2":          "135 0c66335a03f08dbb",
	"hubbard:2x3/beam4":          "135 0c66335a03f08dbb",
	"hubbard:2x3/beam8":          "128 b2703b9708f23c8f",
	"hubbard:2x3/build-depth":    "135 ad54c4858c40ed63",
	"hubbard:2x3/build-first":    "135 ad54c4858c40ed63",
	"hubbard:2x3/build-support":  "117 a3d899ca68a12353",
	"hubbard:2x3/unopt":          "135 7599ed190b5ae16c",
	"hubbard:3x3/anneal":         "243 21b87b87e9476b15",
	"hubbard:3x3/beam1":          "252 5dafb92ed7fae9b5",
	"hubbard:3x3/beam2":          "249 236c13e244cc8ba3",
	"hubbard:3x3/beam4":          "245 5b0107e4e86f4460",
	"hubbard:3x3/beam8":          "240 52f328309cd8b15f",
	"hubbard:3x3/build-depth":    "252 83a832ba38823b6b",
	"hubbard:3x3/build-first":    "252 83a832ba38823b6b",
	"hubbard:3x3/build-support":  "227 125cc169e8c1be1f",
	"hubbard:3x3/unopt":          "247 28cd8fa874b38f5d",
	"hubbard:4x4/anneal":         "562 da867bbf7367e558",
	"hubbard:4x4/beam1":          "531 9ce2edbec0cf0fa4",
	"hubbard:4x4/beam2":          "531 9ce2edbec0cf0fa4",
	"hubbard:4x4/beam4":          "523 8d2667e2b90fd7d3",
	"hubbard:4x4/beam8":          "531 9ce2edbec0cf0fa4",
	"hubbard:4x4/build-depth":    "531 ffe605f05dd65654",
	"hubbard:4x4/build-first":    "531 ffe605f05dd65654",
	"hubbard:4x4/build-support":  "515 06ce7d7b7a46647c",
	"hubbard:4x4/unopt":          "595 b644385455330895",
	"motivation/anneal":          "2 b315db3cea841f0e",
	"motivation/beam1":           "3 dfb7c06b9666f4ba",
	"motivation/beam2":           "2 a3f0d6aa48b6f09b",
	"motivation/beam4":           "2 a3f0d6aa48b6f09b",
	"motivation/beam8":           "2 a3f0d6aa48b6f09b",
	"motivation/build-depth":     "2 259321d9091eb9c3",
	"motivation/build-first":     "3 6b9d16d483f3c003",
	"motivation/build-support":   "2 13e9d4d2b02e37b4",
	"motivation/exhaustive":      "2 5bf057b393091d41",
	"motivation/unopt":           "2 f19595f39fb14f62",
	"neutrino:3x2/anneal":        "740 0a0116d065726560",
	"neutrino:3x2/beam1":         "808 61ad98fc7aeec8d8",
	"neutrino:3x2/beam2":         "808 61ad98fc7aeec8d8",
	"neutrino:3x2/beam4":         "808 61ad98fc7aeec8d8",
	"neutrino:3x2/beam8":         "808 60f0b7bd675f6354",
	"neutrino:3x2/build-depth":   "808 c3312a8e5466afef",
	"neutrino:3x2/build-first":   "808 c3312a8e5466afef",
	"neutrino:3x2/build-support": "832 5f80964d6332581e",
	"neutrino:3x2/unopt":         "808 c27cfcf3d7974b1a",
	"rand12-s1/anneal":           "337 8693e8a22c5d05fa",
	"rand12-s1/beam1":            "350 86a6064f89463267",
	"rand12-s1/beam2":            "350 86a6064f89463267",
	"rand12-s1/beam4":            "350 86a6064f89463267",
	"rand12-s1/beam8":            "350 86a6064f89463267",
	"rand12-s1/build-depth":      "350 18c0098748847e35",
	"rand12-s1/build-first":      "350 18c0098748847e35",
	"rand12-s1/build-support":    "366 c750f88e9cf873de",
	"rand12-s1/unopt":            "352 5cbde569e5a7aa6e",
	"rand12-s2/anneal":           "451 41b07ca31c3fb259",
	"rand12-s2/beam1":            "486 22d5c4bdb54b5833",
	"rand12-s2/beam2":            "485 65ea533194e86a7b",
	"rand12-s2/beam4":            "476 c721968948287b14",
	"rand12-s2/beam8":            "476 c721968948287b14",
	"rand12-s2/build-depth":      "485 34f0b2522e25a398",
	"rand12-s2/build-first":      "486 1e017b800c56e06e",
	"rand12-s2/build-support":    "474 8b72f1422e49d4bc",
	"rand12-s2/unopt":            "462 f545756468a967de",
	"rand12-s3/anneal":           "381 44fcbac9fd47dc97",
	"rand12-s3/beam1":            "412 b826c773363e8ca5",
	"rand12-s3/beam2":            "375 51f9b5a1ea932c2a",
	"rand12-s3/beam4":            "375 51f9b5a1ea932c2a",
	"rand12-s3/beam8":            "375 51f9b5a1ea932c2a",
	"rand12-s3/build-depth":      "412 35cdd4d38844ea98",
	"rand12-s3/build-first":      "412 35cdd4d38844ea98",
	"rand12-s3/build-support":    "375 5186fcdaef57603f",
	"rand12-s3/unopt":            "428 c0a99903e6d9d421",
	"rand12-s4/anneal":           "297 404a5d8d37add14c",
	"rand12-s4/beam1":            "318 fd6c043a4ca0f339",
	"rand12-s4/beam2":            "318 fd6c043a4ca0f339",
	"rand12-s4/beam4":            "318 fd6c043a4ca0f339",
	"rand12-s4/beam8":            "310 b7fc518ec26fefed",
	"rand12-s4/build-depth":      "323 7cabd840f650a0f7",
	"rand12-s4/build-first":      "318 5f23274f8015b0dd",
	"rand12-s4/build-support":    "318 cdb2336230085bfd",
	"rand12-s4/unopt":            "329 3d79acd97ed8acfc",
	"rand12-s5/anneal":           "389 bc129157cb7dad0c",
	"rand12-s5/beam1":            "421 188523fb00cb8bc9",
	"rand12-s5/beam2":            "402 fb1fad5b5a2d6a6c",
	"rand12-s5/beam4":            "402 fb1fad5b5a2d6a6c",
	"rand12-s5/beam8":            "415 6fd02273c079f465",
	"rand12-s5/build-depth":      "421 fc79c735c32780cf",
	"rand12-s5/build-first":      "421 fc79c735c32780cf",
	"rand12-s5/build-support":    "408 1b4a2ece323be691",
	"rand12-s5/unopt":            "398 5ba0bb3f4edf88d4",
	"rand12-s6/anneal":           "287 edb594b42962e95b",
	"rand12-s6/beam1":            "281 8101f7cc9b98a928",
	"rand12-s6/beam2":            "281 8101f7cc9b98a928",
	"rand12-s6/beam4":            "281 8101f7cc9b98a928",
	"rand12-s6/beam8":            "281 8101f7cc9b98a928",
	"rand12-s6/build-depth":      "281 742203114921958e",
	"rand12-s6/build-first":      "281 742203114921958e",
	"rand12-s6/build-support":    "279 3092a6d9a39817b2",
	"rand12-s6/unopt":            "300 de981caef34797fa",
	"rand4-s1/anneal":            "27 cf9d26560a686181",
	"rand4-s1/beam1":             "30 73b05e91eb9b8cbe",
	"rand4-s1/beam2":             "30 73b05e91eb9b8cbe",
	"rand4-s1/beam4":             "30 73b05e91eb9b8cbe",
	"rand4-s1/beam8":             "29 12d34c9b0e7f15d7",
	"rand4-s1/build-depth":       "30 3e6374577958dddc",
	"rand4-s1/build-first":       "30 3e6374577958dddc",
	"rand4-s1/build-support":     "29 b1d93390b63b47b4",
	"rand4-s1/exhaustive":        "27 e68d545a7f730f21",
	"rand4-s1/unopt":             "30 b118c052a33d9e8e",
	"rand4-s2/anneal":            "27 fcac36e033820925",
	"rand4-s2/beam1":             "33 e887ab149af10a7e",
	"rand4-s2/beam2":             "30 a06ff0132a691446",
	"rand4-s2/beam4":             "30 a06ff0132a691446",
	"rand4-s2/beam8":             "30 a06ff0132a691446",
	"rand4-s2/build-depth":       "33 b822addc71c019d1",
	"rand4-s2/build-first":       "33 b822addc71c019d1",
	"rand4-s2/build-support":     "30 c86cd8c244b054a3",
	"rand4-s2/exhaustive":        "27 c823e2d76202e414",
	"rand4-s2/unopt":             "30 8ef7b11d210b315f",
	"rand4-s3/anneal":            "56 8cf09a8b717a075b",
	"rand4-s3/beam1":             "69 ed41a3a1ec7053e9",
	"rand4-s3/beam2":             "69 ed41a3a1ec7053e9",
	"rand4-s3/beam4":             "69 ed41a3a1ec7053e9",
	"rand4-s3/beam8":             "69 ed41a3a1ec7053e9",
	"rand4-s3/build-depth":       "69 df5b9f4a57f643c9",
	"rand4-s3/build-first":       "69 df5b9f4a57f643c9",
	"rand4-s3/build-support":     "67 8e606d64a522f5df",
	"rand4-s3/exhaustive":        "56 fa3fbc0f92a21c36",
	"rand4-s3/unopt":             "62 38cfe625ebf093cb",
	"rand4-s4/anneal":            "17 1a6fc5a78a7f985c",
	"rand4-s4/beam1":             "19 a06ff0132a691446",
	"rand4-s4/beam2":             "19 a06ff0132a691446",
	"rand4-s4/beam4":             "19 cb12c2fcdb9ae2cd",
	"rand4-s4/beam8":             "19 cb12c2fcdb9ae2cd",
	"rand4-s4/build-depth":       "19 c86cd8c244b054a3",
	"rand4-s4/build-first":       "19 c86cd8c244b054a3",
	"rand4-s4/build-support":     "19 c86cd8c244b054a3",
	"rand4-s4/exhaustive":        "17 94a032cefdd1c077",
	"rand4-s4/unopt":             "19 17a8fa4774d574c7",
	"rand4-s5/anneal":            "54 560e355a7ff8d63b",
	"rand4-s5/beam1":             "60 0dbe833c4f789dec",
	"rand4-s5/beam2":             "59 baa1c5665d76f9a7",
	"rand4-s5/beam4":             "59 baa1c5665d76f9a7",
	"rand4-s5/beam8":             "59 baa1c5665d76f9a7",
	"rand4-s5/build-depth":       "60 f7ec9d989b8ab4a4",
	"rand4-s5/build-first":       "60 f7ec9d989b8ab4a4",
	"rand4-s5/build-support":     "60 f7ec9d989b8ab4a4",
	"rand4-s5/exhaustive":        "53 d8a1c42b1c0386f6",
	"rand4-s5/unopt":             "58 def8b439b1f05bd9",
	"rand4-s6/anneal":            "21 2c791f1cd551dc7e",
	"rand4-s6/beam1":             "23 195cb8c786051af9",
	"rand4-s6/beam2":             "23 195cb8c786051af9",
	"rand4-s6/beam4":             "23 195cb8c786051af9",
	"rand4-s6/beam8":             "23 195cb8c786051af9",
	"rand4-s6/build-depth":       "23 5466096143f75b95",
	"rand4-s6/build-first":       "23 5466096143f75b95",
	"rand4-s6/build-support":     "23 5466096143f75b95",
	"rand4-s6/exhaustive":        "21 813bfe0af6627429",
	"rand4-s6/unopt":             "23 0cfcb10ceec82605",
	"rand6-s1/anneal":            "78 c488c4cdec013916",
	"rand6-s1/beam1":             "77 fa78dfa469eabfc0",
	"rand6-s1/beam2":             "77 fa78dfa469eabfc0",
	"rand6-s1/beam4":             "77 fa78dfa469eabfc0",
	"rand6-s1/beam8":             "77 fa78dfa469eabfc0",
	"rand6-s1/build-depth":       "78 b25d02c3650ee19c",
	"rand6-s1/build-first":       "77 2d03a3e618d44c0b",
	"rand6-s1/build-support":     "80 354b4b32ed5b93a6",
	"rand6-s1/exhaustive":        "78 ac0c382b4922f1f1",
	"rand6-s1/unopt":             "78 428cfc2c33913cb8",
	"rand6-s2/anneal":            "104 e0a01ad2bdadbc22",
	"rand6-s2/beam1":             "117 d952999d4f1c0ef4",
	"rand6-s2/beam2":             "117 d952999d4f1c0ef4",
	"rand6-s2/beam4":             "117 d952999d4f1c0ef4",
	"rand6-s2/beam8":             "117 5588bbcebb28f053",
	"rand6-s2/build-depth":       "117 3d3604ea72c29998",
	"rand6-s2/build-first":       "117 3d3604ea72c29998",
	"rand6-s2/build-support":     "117 3d3604ea72c29998",
	"rand6-s2/exhaustive":        "109 97a23427e7a1ac95",
	"rand6-s2/unopt":             "109 2660d1e3bbd33b36",
	"rand6-s3/anneal":            "93 135117b8a1a6a6fc",
	"rand6-s3/beam1":             "97 0e751d334d04860a",
	"rand6-s3/beam2":             "97 0e751d334d04860a",
	"rand6-s3/beam4":             "97 0e751d334d04860a",
	"rand6-s3/beam8":             "97 0e751d334d04860a",
	"rand6-s3/build-depth":       "97 32db2051a76827e0",
	"rand6-s3/build-first":       "97 32db2051a76827e0",
	"rand6-s3/build-support":     "103 abdf0504faf98210",
	"rand6-s3/exhaustive":        "97 6ab3de83648a1d3e",
	"rand6-s3/unopt":             "99 d10f66973073f062",
	"rand6-s4/anneal":            "116 ee3363c1971565d6",
	"rand6-s4/beam1":             "123 125c2f22cabf8cf4",
	"rand6-s4/beam2":             "123 125c2f22cabf8cf4",
	"rand6-s4/beam4":             "123 125c2f22cabf8cf4",
	"rand6-s4/beam8":             "123 125c2f22cabf8cf4",
	"rand6-s4/build-depth":       "123 b3a642b60e005d1b",
	"rand6-s4/build-first":       "123 b3a642b60e005d1b",
	"rand6-s4/build-support":     "123 b3a642b60e005d1b",
	"rand6-s4/exhaustive":        "120 a938179265e2494b",
	"rand6-s4/unopt":             "121 d3c00ef452ae8ca1",
	"rand6-s5/anneal":            "142 91fb9adc1815fa30",
	"rand6-s5/beam1":             "152 8a25963c173ca22a",
	"rand6-s5/beam2":             "152 8a25963c173ca22a",
	"rand6-s5/beam4":             "152 8a25963c173ca22a",
	"rand6-s5/beam8":             "152 8a25963c173ca22a",
	"rand6-s5/build-depth":       "152 a371858c7faba9f2",
	"rand6-s5/build-first":       "152 a371858c7faba9f2",
	"rand6-s5/build-support":     "152 a371858c7faba9f2",
	"rand6-s5/exhaustive":        "155 f5429ea94afcb7ad",
	"rand6-s5/unopt":             "155 c52d8fc927d2f75c",
	"rand6-s6/anneal":            "116 269dca0a574130f9",
	"rand6-s6/beam1":             "151 f53215bfa5f114b3",
	"rand6-s6/beam2":             "143 ab5c31980c57575b",
	"rand6-s6/beam4":             "143 ab5c31980c57575b",
	"rand6-s6/beam8":             "136 c98e8f12c029c9fe",
	"rand6-s6/build-depth":       "151 83d7c03bf8099c36",
	"rand6-s6/build-first":       "151 83d7c03bf8099c36",
	"rand6-s6/build-support":     "146 fe0c7d7d69824cf1",
	"rand6-s6/exhaustive":        "132 6ee6f60e13aec31d",
	"rand6-s6/unopt":             "135 b5eaa218b83836c4",
	"rand8-s1/anneal":            "106 45660385ef813fa5",
	"rand8-s1/beam1":             "124 adc252b2e4cb84d6",
	"rand8-s1/beam2":             "124 adc252b2e4cb84d6",
	"rand8-s1/beam4":             "114 766118932b696677",
	"rand8-s1/beam8":             "114 766118932b696677",
	"rand8-s1/build-depth":       "124 dbcbc8291d8ae6f1",
	"rand8-s1/build-first":       "124 dbcbc8291d8ae6f1",
	"rand8-s1/build-support":     "120 e9fdd46f71122c1d",
	"rand8-s1/unopt":             "111 1b3c8a91d438db68",
	"rand8-s2/anneal":            "277 c2db669a17f6a91c",
	"rand8-s2/beam1":             "299 45714e13a6a41451",
	"rand8-s2/beam2":             "299 45714e13a6a41451",
	"rand8-s2/beam4":             "294 62878ff2e89f93dc",
	"rand8-s2/beam8":             "294 62878ff2e89f93dc",
	"rand8-s2/build-depth":       "299 ab380bd4f31c960b",
	"rand8-s2/build-first":       "299 ab380bd4f31c960b",
	"rand8-s2/build-support":     "299 ab380bd4f31c960b",
	"rand8-s2/unopt":             "307 aac5181b0aee4977",
	"rand8-s3/anneal":            "186 c107248aeac72c3f",
	"rand8-s3/beam1":             "210 46330e3085c075cf",
	"rand8-s3/beam2":             "210 46330e3085c075cf",
	"rand8-s3/beam4":             "210 46330e3085c075cf",
	"rand8-s3/beam8":             "210 46330e3085c075cf",
	"rand8-s3/build-depth":       "210 b5fa02b838e071b4",
	"rand8-s3/build-first":       "210 b5fa02b838e071b4",
	"rand8-s3/build-support":     "214 d5b070f2be144d4d",
	"rand8-s3/unopt":             "199 4022988474cbfd8d",
	"rand8-s4/anneal":            "140 2f4b6c6a4faade1b",
	"rand8-s4/beam1":             "155 81d22ad3719d6d04",
	"rand8-s4/beam2":             "155 81d22ad3719d6d04",
	"rand8-s4/beam4":             "152 a6cb4c74de6ced2b",
	"rand8-s4/beam8":             "152 a6cb4c74de6ced2b",
	"rand8-s4/build-depth":       "155 53c3ad57e4afe64b",
	"rand8-s4/build-first":       "155 53c3ad57e4afe64b",
	"rand8-s4/build-support":     "153 be3340b8874445fe",
	"rand8-s4/unopt":             "144 d3a15810cb64099d",
	"rand8-s5/anneal":            "189 0799be57b0672cf9",
	"rand8-s5/beam1":             "198 9c9a8ea53add5b94",
	"rand8-s5/beam2":             "198 9c9a8ea53add5b94",
	"rand8-s5/beam4":             "198 9c9a8ea53add5b94",
	"rand8-s5/beam8":             "198 9c9a8ea53add5b94",
	"rand8-s5/build-depth":       "198 c6c25214738d6ab6",
	"rand8-s5/build-first":       "198 c6c25214738d6ab6",
	"rand8-s5/build-support":     "199 34de062dbaa9eb6a",
	"rand8-s5/unopt":             "194 b48d0594b1646bd3",
	"rand8-s6/anneal":            "224 794a33b1fb456b80",
	"rand8-s6/beam1":             "241 7acf9fea89a8d7c2",
	"rand8-s6/beam2":             "229 02cef155a7e4842f",
	"rand8-s6/beam4":             "229 02cef155a7e4842f",
	"rand8-s6/beam8":             "241 7acf9fea89a8d7c2",
	"rand8-s6/build-depth":       "224 468cc9e0db80006a",
	"rand8-s6/build-first":       "241 0a4f61a4dceb88c7",
	"rand8-s6/build-support":     "241 0a4f61a4dceb88c7",
	"rand8-s6/unopt":             "237 7cb3649743eed212",
}
