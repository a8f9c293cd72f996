package fermion_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis/annotations"
	"repro/internal/fermion"
	"repro/internal/models"
)

// catalog is the model specs the differential fuzz is seeded with.
var catalog = []string{
	"h2",
	"hubbard:2x2", "hubbard:2x3", "hubbard:3x3", "hubbard:4x4", "hubbard:6x6", "hubbard:1x30",
	"neutrino:3x2",
	"molecule:14", "molecule:20",
}

// FuzzMajoranaMatchesReference holds Majorana to the reference expansion
// bit for bit: same mode count, same terms in the same order, same index
// sets, same coefficient bits and so the same Fingerprint. Each input is
// a catalog spec, checked when it names a model small enough, plus bytes
// decoded by fuzzHamiltonian.
func FuzzMajoranaMatchesReference(f *testing.F) {
	for _, spec := range catalog {
		f.Add(spec, []byte(nil))
	}
	f.Add("", []byte{3, 0x42, 5, 6, 0x80, 0x01, 0xc4, 1, 2, 0x81, 0x02, 0x03, 0x80})
	f.Add("", []byte{1, 0x86, 9, 9, 0x80, 0x00, 0x80, 0x00, 0x80, 0x00})
	f.Add("", []byte{7, 0xc6, 7, 8, 0x85, 0x02, 0x06, 0x84, 0x01, 0x07, 0x44, 7, 7, 0x81, 0x00, 0x83, 0x82})
	f.Fuzz(func(t *testing.T, spec string, data []byte) {
		if h := catalogModel(spec); h != nil {
			requireReference(t, h)
		}
		if h := fuzzHamiltonian(data); h != nil {
			requireReference(t, h)
		}
	})
}

// catalogModel resolves spec if it names a model of at most 72 modes and
// 2^19 monomials, and returns nil otherwise.
func catalogModel(spec string) *fermion.Hamiltonian {
	if n, err := models.Modes(spec); err != nil || n > 72 {
		return nil
	}
	h, err := models.Resolve(spec)
	if err != nil || h.MonomialCount() > 1<<19 {
		return nil
	}
	return h
}

// palette holds the fuzzed coefficient parts. Sums of 0.1, 0.2, 0.3 and
// 1/3 round differently in different orders, so a change in summation
// order shows in the bits; −0 shows a lost sign of zero, and 1e-13
// falls below the expansion's eps.
var palette = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.25, 0.1, 0.2, 0.3, -0.7, 1.0 / 3, 2, 1e-13}

// fuzzHamiltonian decodes bytes into a Hamiltonian of at most 8 modes, 12
// terms and 6 operators per term, or nil if data is empty. The first byte
// picks the mode count; then each term record is a head byte (operator
// count in head%7, kind in head>>6), two palette bytes for the
// coefficient, and one byte per operator (mode in the low bits, dagger in
// the top bit). A record adds its term as written, with its Hermitian
// conjugate, or followed by its own negation so that the two cancel.
func fuzzHamiltonian(data []byte) *fermion.Hamiltonian {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	if len(data) == 0 {
		return nil
	}
	h := fermion.NewHamiltonian(1 + int(next()%8))
	for len(data) > 0 && h.NumTerms() <= 10 {
		head := next()
		c := complex(palette[int(next())%len(palette)], palette[int(next())%len(palette)])
		ops := make([]fermion.Op, head%7)
		for i := range ops {
			b := next()
			ops[i] = fermion.Op{Mode: int(b&0x7f) % h.Modes, Dagger: b&0x80 != 0}
		}
		switch head >> 6 {
		case 2:
			h.AddHermitian(c, ops...)
		case 3:
			h.Add(c, ops...)
			h.Add(-c, ops...)
		default:
			h.Add(c, ops...)
		}
	}
	return h
}

// requireReference fails t unless h.Majorana matches the reference
// expansion exactly.
func requireReference(t *testing.T, h *fermion.Hamiltonian) {
	t.Helper()
	got, want := h.Majorana(1e-12), fermion.MajoranaReference(h, 1e-12)
	if got.Modes != want.Modes {
		t.Fatalf("Modes = %d, reference %d", got.Modes, want.Modes)
	}
	if len(got.Terms) != len(want.Terms) || (got.Terms == nil) != (want.Terms == nil) {
		t.Fatalf("%d terms (nil %v), reference %d (nil %v)", len(got.Terms), got.Terms == nil, len(want.Terms), want.Terms == nil)
	}
	for i, g := range got.Terms {
		w := want.Terms[i]
		if !slices.Equal(g.Indices, w.Indices) || (g.Indices == nil) != (w.Indices == nil) {
			t.Fatalf("term %d: indices %v, reference %v", i, g.Indices, w.Indices)
		}
		if math.Float64bits(real(g.Coeff)) != math.Float64bits(real(w.Coeff)) ||
			math.Float64bits(imag(g.Coeff)) != math.Float64bits(imag(w.Coeff)) {
			t.Fatalf("term %d %v: coefficient %v, reference %v", i, g.Indices, g.Coeff, w.Coeff)
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("Fingerprint %s, reference %s", got.Fingerprint(), want.Fingerprint())
	}
}

// TestMajoranaMatchesReferenceBeyondFuzz covers what the fuzz decoder
// cannot reach: up to 70 modes, whose three-digit Majorana indices sort
// as strings (100 before 11 before 2), and a 12-operator term, whose
// walk carries across many positions.
func TestMajoranaMatchesReferenceBeyondFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for range 300 {
		h := fermion.NewHamiltonian(1 + r.Intn(70))
		for range 1 + r.Intn(20) {
			ops := make([]fermion.Op, r.Intn(6))
			for i := range ops {
				ops[i] = fermion.Op{Mode: r.Intn(h.Modes), Dagger: r.Intn(2) == 0}
			}
			c := complex(palette[r.Intn(len(palette))], palette[r.Intn(len(palette))])
			if r.Intn(2) == 0 {
				h.AddHermitian(c, ops...)
			} else {
				h.Add(c, ops...)
			}
		}
		requireReference(t, h)
	}

	h := fermion.NewHamiltonian(3)
	ops := make([]fermion.Op, 12)
	for i := range ops {
		ops[i] = fermion.Op{Mode: (i * 5) % 3, Dagger: i%3 != 1}
	}
	h.Add(complex(0.3, -0.1), ops...)
	h.AddHermitian(complex(0.1, 0.2), ops[:9]...)
	requireReference(t, h)
}

func TestMonomialCount(t *testing.T) {
	h := fermion.NewHamiltonian(2)
	h.Add(1)
	h.Add(1, fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 1})
	if got := h.MonomialCount(); got != 1+4 {
		t.Fatalf("MonomialCount = %d, want 5", got)
	}
	// 62 operators still fit in an int; 63 saturate, as does the sum.
	long := make([]fermion.Op, 62)
	h.Add(1, long...)
	if got := h.MonomialCount(); got != 5+1<<62 {
		t.Fatalf("MonomialCount = %d, want 5+2^62", got)
	}
	h.Add(1, long...)
	if got := h.MonomialCount(); got != math.MaxInt {
		t.Fatalf("MonomialCount = %d, want saturation at MaxInt", got)
	}
	g := fermion.NewHamiltonian(1)
	g.Add(1, make([]fermion.Op, 64)...)
	if got := g.MonomialCount(); got != math.MaxInt {
		t.Fatalf("64-operator MonomialCount = %d, want MaxInt", got)
	}
}

// TestMajoranaAllocs gates the expansion's allocations on hubbard:3x3:
// monomials reuse scratch buffers, so only the growing tables and the
// output allocate (the string-keyed reference makes 2,010).
func TestMajoranaAllocs(t *testing.T) {
	if annotations.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	h, err := models.Resolve("hubbard:3x3")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { h.Majorana(1e-12) }); n > 50 {
		t.Fatalf("Majorana on hubbard:3x3 allocates %.0f/op, want ≤ 50", n)
	}
}
