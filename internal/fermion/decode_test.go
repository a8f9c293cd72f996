package fermion_test

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis/annotations"
	"repro/internal/fermion"
	"repro/internal/models"
)

// seedCatalog is the catalog models whose MarshalJSON and WriteJSON
// output seed the decoder fuzz: one of each family, each under 40 KB of
// JSON, so that the fuzzer still runs thousands of inputs a second.
// TestCanonicalFormTakesOnePass covers the larger models.
var seedCatalog = []string{"h2", "molecule:4", "hubbard:2x2", "neutrino:2x2"}

// inlineHubbard is the shape of an inline Hamiltonian a client sends: a
// spinful Fermi–Hubbard model on an open rows×cols lattice in which each
// bond survives with probability 0.75, hopping t and on-site U on a
// 0.0001 grid, modes numbered 2·site + spin.
func inlineHubbard(r *rand.Rand, rows, cols int) *fermion.Hamiltonian {
	t := float64(5000+r.Intn(10001)) / 10000
	u := float64(20000+r.Intn(40001)) / 10000
	h := fermion.NewHamiltonian(2 * rows * cols)
	hop := func(a, b int) {
		if r.Float64() >= 0.75 {
			return
		}
		for spin := 0; spin < 2; spin++ {
			h.AddHermitian(complex(-t, 0),
				fermion.Op{Mode: 2*a + spin, Dagger: true}, fermion.Op{Mode: 2*b + spin})
		}
	}
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			s := row*cols + col
			if col+1 < cols {
				hop(s, s+1)
			}
			if row+1 < rows {
				hop(s, s+cols)
			}
		}
	}
	for s := 0; s < rows*cols; s++ {
		h.Add(complex(u, 0),
			fermion.Op{Mode: 2 * s, Dagger: true}, fermion.Op{Mode: 2 * s},
			fermion.Op{Mode: 2*s + 1, Dagger: true}, fermion.Op{Mode: 2*s + 1})
	}
	return h
}

// canonicalInputs returns the MarshalJSON and WriteJSON output of the
// catalog models specs name and of inline Hubbard Hamiltonians on each
// lattice in grids.
func canonicalInputs(tb testing.TB, specs []string, grids ...[2]int) [][]byte {
	var hs []*fermion.Hamiltonian
	for _, spec := range specs {
		h, err := models.Resolve(spec)
		if err != nil {
			tb.Fatal(err)
		}
		hs = append(hs, h)
	}
	r := rand.New(rand.NewSource(22))
	for _, g := range grids {
		hs = append(hs, inlineHubbard(r, g[0], g[1]))
	}
	var out [][]byte
	for _, h := range hs {
		compact, err := h.MarshalJSON()
		if err != nil {
			tb.Fatal(err)
		}
		var indented bytes.Buffer
		if err := h.WriteJSON(&indented); err != nil {
			tb.Fatal(err)
		}
		out = append(out, compact, indented.Bytes())
	}
	return out
}

// edgeCases are inputs at the border of the canonical form, each named
// for what it exercises. Those outside the form must decode exactly as
// encoding/json decodes them, errors included.
var edgeCases = map[string]string{
	"canonical":             `{"modes":2,"terms":[{"coeff":[1.5,-0],"ops":[{"mode":0,"dagger":true},{"mode":1,"dagger":false}]}]}`,
	"reordered keys":        `{"terms":[{"ops":[{"dagger":true,"mode":1}],"coeff":[1e-3,2E+2]}],"modes":2}`,
	"whitespace":            " \t\r\n{ \"modes\" :\n2 , \"terms\" : [ { \"coeff\" : [ 1 , 0 ] , \"ops\" : [ ] } ] }\n ",
	"ops null":              `{"modes":1,"terms":[{"coeff":[1,0],"ops":null}]}`,
	"ops empty":             `{"modes":1,"terms":[{"coeff":[1,0],"ops":[]}]}`,
	"ops missing":           `{"modes":1,"terms":[{"coeff":[1,0]}]}`,
	"op fields missing":     `{"modes":1,"terms":[{"coeff":[1,0],"ops":[{}]}]}`,
	"terms empty":           `{"modes":3,"terms":[]}`,
	"terms missing":         `{"modes":3}`,
	"terms null":            `{"modes":3,"terms":null}`,
	"coeff null":            `{"modes":1,"terms":[{"coeff":null,"ops":[]}]}`,
	"coeff missing":         `{"modes":1,"terms":[{"ops":[]}]}`,
	"coeff one number":      `{"modes":1,"terms":[{"coeff":[1],"ops":[]}]}`,
	"coeff three numbers":   `{"modes":1,"terms":[{"coeff":[1,0,7],"ops":[]}]}`,
	"coeff out of range":    `{"modes":1,"terms":[{"coeff":[1e400,0],"ops":[]}]}`,
	"coeff string":          `{"modes":1,"terms":[{"coeff":["1",0],"ops":[]}]}`,
	"coef typo":             `{"modes":1,"terms":[{"coef":[1,0],"ops":[{"mode":0,"dagger":true}]}]}`,
	"dager typo":            `{"modes":1,"terms":[{"coeff":[1,0],"ops":[{"mode":0,"dager":true}]}]}`,
	"unknown top-level key": `{"modes":1,"terms":[],"name":"x"}`,
	"case-variant key":      `{"Modes":2,"terms":[{"coeff":[1,0],"OPS":[{"Mode":1,"Dagger":true}]}]}`,
	"escaped key":           `{"mod\u0065s":2,"terms":[]}`,
	"duplicate modes":       `{"modes":2,"modes":3,"terms":[]}`,
	"duplicate coeff":       `{"modes":1,"terms":[{"coeff":[1,0],"coeff":[2,0,3]}]}`,
	"duplicate mode":        `{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":0,"mode":1}]}]}`,
	"duplicate ops":         `{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":0,"dagger":true}],"ops":[{"mode":1}]}]}`,
	"duplicate terms":       `{"modes":2,"terms":[{"coeff":[1,0]}],"terms":[{"coeff":[2,0]}]}`,
	"mode null":             `{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":null,"dagger":true}]}]}`,
	"dagger null":           `{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":1,"dagger":null}]}]}`,
	"modes null":            `{"modes":null,"terms":[]}`,
	"modes as float":        `{"modes":1.0,"terms":[]}`,
	"modes as exponent":     `{"modes":1e1,"terms":[]}`,
	"modes negative zero":   `{"modes":-0,"terms":[]}`,
	"modes zero":            `{"modes":0,"terms":[]}`,
	"modes negative":        `{"modes":-3,"terms":[]}`,
	"modes 18 digits":       `{"modes":999999999999999999,"terms":[]}`,
	"modes 19 digits":       `{"modes":1000000000000000000,"terms":[]}`,
	"modes overflow":        `{"modes":99999999999999999999,"terms":[]}`,
	"mode negative zero":    `{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":-0,"dagger":true}]}]}`,
	"mode out of range":     `{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":2,"dagger":true}]}]}`,
	"mode leading zero":     `{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":01,"dagger":true}]}]}`,
	"dagger as number":      `{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":1,"dagger":1}]}]}`,
	"number grammar":        `{"modes":2,"terms":[{"coeff":[.5,1.],"ops":[]}]}`,
	"trailing data":         `{"modes":1,"terms":[]}{}`,
	"trailing garbage":      `{"modes":1,"terms":[]} x`,
	"trailing comma":        `{"modes":1,"terms":[],}`,
	"truncated":             `{"modes":2,"terms":[{`,
	"empty object":          `{}`,
	"not an object":         `[1,2]`,
	"empty input":           ``,
	"control char in key":   "{\"mo\x01des\":1}",
	"literal prefix":        `{"modes":1,"terms":[{"coeff":[1,0],"ops":nul}]}`,
}

// requireSameHamiltonian fails t unless got and want are equal field for
// field: mode count, term order, coefficient bits, every operator, and
// nil versus empty slices.
func requireSameHamiltonian(t *testing.T, got, want *fermion.Hamiltonian) {
	t.Helper()
	if got.Modes != want.Modes {
		t.Fatalf("Modes = %d, reference %d", got.Modes, want.Modes)
	}
	if len(got.Terms) != len(want.Terms) || (got.Terms == nil) != (want.Terms == nil) {
		t.Fatalf("%d terms (nil %v), reference %d (nil %v)", len(got.Terms), got.Terms == nil, len(want.Terms), want.Terms == nil)
	}
	for i, g := range got.Terms {
		w := want.Terms[i]
		if math.Float64bits(real(g.Coeff)) != math.Float64bits(real(w.Coeff)) ||
			math.Float64bits(imag(g.Coeff)) != math.Float64bits(imag(w.Coeff)) {
			t.Fatalf("term %d: coefficient %v, reference %v", i, g.Coeff, w.Coeff)
		}
		if !slices.Equal(g.Ops, w.Ops) || (g.Ops == nil) != (w.Ops == nil) {
			t.Fatalf("term %d: ops %v (nil %v), reference %v (nil %v)", i, g.Ops, g.Ops == nil, w.Ops, w.Ops == nil)
		}
	}
}

// FuzzReadJSONMatchesReference holds UnmarshalJSON to the encoding/json
// decoder on any input: the same error text, or a Hamiltonian equal field
// for field.
func FuzzReadJSONMatchesReference(f *testing.F) {
	for _, in := range canonicalInputs(f, seedCatalog, [2]int{3, 4}) {
		f.Add(in)
	}
	for _, name := range slices.Sorted(maps.Keys(edgeCases)) {
		f.Add([]byte(edgeCases[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got fermion.Hamiltonian
		gotErr := got.UnmarshalJSON(data)
		want, wantErr := fermion.DecodeReference(data)
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("UnmarshalJSON error %v, reference %v", gotErr, wantErr)
			}
			return
		}
		requireSameHamiltonian(t, &got, want)
	})
}

// TestCanonicalFormTakesOnePass: what MarshalJSON and WriteJSON emit on
// every shape of the catalog the Majorana fuzz uses and on inline
// Hubbard lattices, and the canonical edge cases, decode in the one-pass
// decoder, equal to encoding/json's result, rather than falling back.
func TestCanonicalFormTakesOnePass(t *testing.T) {
	inputs := canonicalInputs(t, append(seedCatalog, "hubbard:3x3", "hubbard:1x30", "neutrino:3x2", "molecule:12"), [2]int{3, 4}, [2]int{4, 4})
	for _, name := range []string{"canonical", "reordered keys", "whitespace", "ops null", "ops empty", "ops missing", "op fields missing", "terms empty", "terms missing", "modes 18 digits"} {
		inputs = append(inputs, []byte(edgeCases[name]))
	}
	for _, in := range inputs {
		got, ok := fermion.DecodeCanonical(in)
		if !ok {
			t.Fatalf("one-pass decoder declined canonical input %.80q", in)
		}
		want, err := fermion.DecodeReference(in)
		if err != nil {
			t.Fatal(err)
		}
		requireSameHamiltonian(t, got, want)
	}
}

// TestJSONRejectsTypos: a misspelt key and a coeff that is not exactly
// two numbers are errors, not a different Hamiltonian.
func TestJSONRejectsTypos(t *testing.T) {
	for _, name := range []string{"coef typo", "dager typo", "unknown top-level key", "coeff three numbers", "coeff one number", "coeff missing", "coeff null"} {
		var h fermion.Hamiltonian
		if err := h.UnmarshalJSON([]byte(edgeCases[name])); err == nil {
			t.Errorf("%s: accepted %s as %v", name, edgeCases[name], h.String())
		}
	}
}

// TestReadJSONAllocs gates the allocations of decoding a 4×4 inline
// Hubbard Hamiltonian (8 KB of JSON): the one-pass decoder grows its
// term, operator and offset tables and allocates the Hamiltonian, and
// io.ReadAll grows its buffer, 37 allocations in all with Go 1.24. The
// budget of 50 leaves room for other Go versions; decoding the same
// input through encoding/json alone took 405.
func TestReadJSONAllocs(t *testing.T) {
	if annotations.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	raw, err := inlineHubbard(rand.New(rand.NewSource(7)), 4, 4).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := fermion.ReadJSON(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
	if n > 50 {
		t.Fatalf("ReadJSON on a %d-byte inline Hamiltonian allocates %.0f/op, want ≤ 50", len(raw), n)
	}
}
