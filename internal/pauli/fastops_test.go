package pauli

import (
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis/annotations"
)

// stringFromWords builds a test string directly from symplectic words,
// used by the fuzz harnesses to reach arbitrary bit patterns.
func stringFromWords(n int, x, z []uint64, phase uint8) String {
	s := Identity(n)
	w := words(n)
	var mask uint64 = ^uint64(0)
	if n%64 != 0 {
		mask = 1<<uint(n%64) - 1
	}
	for i := 0; i < w && i < len(x); i++ {
		s.x[i] = x[i]
		s.z[i] = z[i]
	}
	if w > 0 {
		s.x[w-1] &= mask
		s.z[w-1] &= mask
	}
	s.phase = phase & 3
	return s
}

func checkMulVariants(t *testing.T, a, b String) {
	t.Helper()
	want := a.Mul(b)

	var dst String
	a.MulInto(&dst, b)
	if !dst.Equal(want) {
		t.Fatalf("MulInto: %s, want %s", dst, want)
	}
	// Warm destination: result must be identical and buffers reused.
	a.MulInto(&dst, b)
	if !dst.Equal(want) {
		t.Fatalf("warm MulInto: %s, want %s", dst, want)
	}

	acc := a.Clone()
	acc.MulAssign(b)
	if !acc.Equal(want) {
		t.Fatalf("MulAssign: %s, want %s", acc, want)
	}

	// Aliased destination: dst == receiver.
	self := a.Clone()
	self.MulInto(&self, b)
	if !self.Equal(want) {
		t.Fatalf("aliased MulInto: %s, want %s", self, want)
	}
}

func TestMulVariantsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(140) // exercises 1, 2, and 3-word strings
		checkMulVariants(t, randomString(r, n), randomString(r, n))
	}
}

func FuzzMulIntoEquivalence(f *testing.F) {
	f.Add(uint8(4), uint64(0b1010), uint64(0b0110), uint64(0b0011), uint64(0b1001), uint8(1), uint8(2))
	f.Add(uint8(64), ^uint64(0), uint64(0), uint64(0), ^uint64(0), uint8(0), uint8(3))
	f.Add(uint8(1), uint64(1), uint64(1), uint64(1), uint64(0), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, n uint8, xa, za, xb, zb uint64, pa, pb uint8) {
		qubits := 1 + int(n)%64
		a := stringFromWords(qubits, []uint64{xa}, []uint64{za}, pa)
		b := stringFromWords(qubits, []uint64{xb}, []uint64{zb}, pb)
		checkMulVariants(t, a, b)
	})
}

func TestSupportAppend(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	buf := make([]int, 0, 256)
	for trial := 0; trial < 200; trial++ {
		s := randomString(r, 1+r.Intn(130))
		want := s.Support()
		got := s.SupportAppend(buf[:0])
		if len(got) != len(want) {
			t.Fatalf("len %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("support[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
}

func TestFingerprintMatchesKeyEquality(t *testing.T) {
	// Within one qubit count, Fingerprint equality must coincide with
	// letter (Key) equality; for n ≤ 64 this is exact by construction,
	// wider strings are exercised through the hash path.
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 7, 63, 64, 65, 130, 200} {
		seen := map[Fingerprint]string{}
		for trial := 0; trial < 400; trial++ {
			s := randomString(r, n)
			fp := s.Fingerprint()
			if k, ok := seen[fp]; ok && k != s.Key() {
				t.Fatalf("n=%d: fingerprint collision between distinct strings", n)
			}
			seen[fp] = s.Key()
		}
	}
}

func TestCompareSymplecticIsTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(100)
		a, b := randomString(r, n), randomString(r, n)
		ab, ba := a.CompareSymplectic(b), b.CompareSymplectic(a)
		if ab != -ba {
			t.Fatalf("antisymmetry violated: %d vs %d", ab, ba)
		}
		if (ab == 0) != a.EqualUpToPhase(b) {
			t.Fatalf("zero iff equal letters violated")
		}
	}
}

func TestResetKeepsBuffers(t *testing.T) {
	s := MustParse("XYZI")
	s.Reset()
	if !s.IsIdentity() || s.Phase() != 0 {
		t.Fatalf("Reset left %s (phase %d)", s, s.Phase())
	}
	if s.N() != 4 {
		t.Fatalf("Reset changed qubit count to %d", s.N())
	}
}

func TestTermsCacheInvalidation(t *testing.T) {
	h := NewHamiltonian(3)
	h.Add(1, MustParse("XII"))
	first := h.Terms()
	if len(first) != 1 {
		t.Fatalf("len %d", len(first))
	}
	if &first[0] != &h.Terms()[0] {
		t.Fatal("Terms() not cached between calls")
	}
	h.Add(2, MustParse("IZI"))
	second := h.Terms()
	if len(second) != 2 {
		t.Fatalf("cache not invalidated by Add: len %d", len(second))
	}
	h.Prune(10)
	if len(h.Terms()) != 0 {
		t.Fatal("cache not invalidated by Prune")
	}
}

// TestCollisionSpillInvariants simulates a 128-bit fingerprint collision
// (unreachable through honest hashing in a test's lifetime) by planting a
// term in the exact-keyed overflow map the way Add's collision branch
// does, then checks the invariants the spill exists for: the overflow
// entry stays authoritative for its key through Coeff, repeated Add,
// Prune of the colliding primary, and aggregate accounting.
func TestCollisionSpillInvariants(t *testing.T) {
	a := MustParse("XZIY")
	bs := MustParse("IYZX")
	h := NewHamiltonian(4)
	h.Add(2, a)
	// Plant bs as if bs.Fingerprint() == a.Fingerprint() != letters(a).
	h.invalidate()
	h.extra = map[string]Term{bs.Key(): {Coeff: 3, S: canonical(bs)}}

	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	if c := h.Coeff(bs); cmplx.Abs(c-3) > 1e-12 {
		t.Fatalf("spilled Coeff = %v, want 3", c)
	}
	// Accumulating onto the spilled term must hit the overflow, not
	// create a duplicate primary entry.
	h.Add(1, bs)
	if h.Len() != 2 {
		t.Fatalf("Add duplicated a spilled term: Len = %d", h.Len())
	}
	if c := h.Coeff(bs); cmplx.Abs(c-4) > 1e-12 {
		t.Fatalf("spilled Coeff after Add = %v, want 4", c)
	}
	// Pruning the primary away must leave the spill readable and still
	// authoritative for future Adds.
	h.Add(-2, a) // a's coefficient → 0
	h.Prune(1e-12)
	if h.Len() != 1 {
		t.Fatalf("Len after prune = %d, want 1", h.Len())
	}
	if c := h.Coeff(bs); cmplx.Abs(c-4) > 1e-12 {
		t.Fatalf("spilled Coeff after prune = %v, want 4", c)
	}
	h.Add(1, bs)
	if h.Len() != 1 || len(h.terms) != 0 {
		t.Fatalf("orphaned spill re-entered the primary map: Len=%d primaries=%d", h.Len(), len(h.terms))
	}
	if c := h.Coeff(bs); cmplx.Abs(c-5) > 1e-12 {
		t.Fatalf("spilled Coeff after orphaned Add = %v, want 5", c)
	}
	ts := h.Terms()
	if len(ts) != 1 || !ts[0].S.EqualUpToPhase(bs) {
		t.Fatalf("Terms() lost the spilled entry: %v", ts)
	}
}

// --- Allocation gates -------------------------------------------------------

func TestZeroAllocMulInto(t *testing.T) {
	if annotations.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	r := rand.New(rand.NewSource(3))
	a, b := randomString(r, 48), randomString(r, 48)
	dst := Identity(48)
	if n := testing.AllocsPerRun(200, func() {
		a.MulInto(&dst, b)
	}); n != 0 {
		t.Fatalf("MulInto allocates %.1f/op, want 0", n)
	}
	acc := a.Clone()
	if n := testing.AllocsPerRun(200, func() {
		acc.MulAssign(b)
	}); n != 0 {
		t.Fatalf("MulAssign allocates %.1f/op, want 0", n)
	}
}

func TestZeroAllocHamiltonianAddWarm(t *testing.T) {
	if annotations.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	r := rand.New(rand.NewSource(5))
	h := NewHamiltonian(32)
	ss := make([]String, 64)
	for i := range ss {
		ss[i] = randomString(r, 32)
		h.Add(complex(float64(i), 0), ss[i])
	}
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		h.Add(0.25, ss[i%len(ss)])
		i++
	}); n != 0 {
		t.Fatalf("warm Hamiltonian.Add allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		_ = h.Coeff(ss[i%len(ss)])
		i++
	}); n != 0 {
		t.Fatalf("Hamiltonian.Coeff allocates %.1f/op, want 0", n)
	}
}

// TestNoAllocAnnotationCoverage pins the gates above to the static
// contract: every function they exercise must carry the //hatt:noalloc
// annotation the noalloc analysis pass enforces, so the runtime gate
// and the lint rule can never drift apart.
func TestNoAllocAnnotationCoverage(t *testing.T) {
	annotated, err := annotations.NoAllocFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"String.MulAssign", "String.MulInto", "Hamiltonian.Add", "Hamiltonian.Coeff"} {
		if !slices.Contains(annotated, fn) {
			t.Errorf("%s lacks the %s annotation the zero-alloc gates rely on (annotated: %v)",
				fn, annotations.Directive, annotated)
		}
	}
}
