package circuit

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
)

func matricesEqualUpToPhase(a, b [2][2]complex128) bool {
	// Find the first entry of significant magnitude and align phases.
	var phase complex128
	found := false
	for i := 0; i < 2 && !found; i++ {
		for j := 0; j < 2 && !found; j++ {
			if cmplx.Abs(a[i][j]) > 1e-8 {
				if cmplx.Abs(b[i][j]) < 1e-10 {
					return false
				}
				phase = b[i][j] / a[i][j]
				found = true
			}
		}
	}
	if !found {
		return true
	}
	if math.Abs(cmplx.Abs(phase)-1) > 1e-8 {
		return false
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(a[i][j]*phase-b[i][j]) > 1e-8 {
				return false
			}
		}
	}
	return true
}

func TestU3AnglesRoundTrip(t *testing.T) {
	gates := []Gate{H(0), RxPlus(0), RxMinus(0), X(0), Rz(0, 0.7), Rz(0, -2.1)}
	for _, g := range gates {
		th, ph, la := U3Angles(g.M)
		back := u3Matrix(th, ph, la)
		if !matricesEqualUpToPhase(g.M, back) {
			t.Errorf("%s: round trip failed: %v vs %v", g.Label, g.M, back)
		}
	}
}

func TestU3AnglesRoundTripRandomProducts(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	base := []Gate{H(0), RxPlus(0), Rz(0, 0.3), X(0), Rz(0, 1.2)}
	for trial := 0; trial < 50; trial++ {
		m := [2][2]complex128{{1, 0}, {0, 1}}
		for k := 0; k < 4; k++ {
			m = mulMat(base[r.Intn(len(base))].M, m)
		}
		th, ph, la := U3Angles(m)
		if !matricesEqualUpToPhase(m, u3Matrix(th, ph, la)) {
			t.Fatalf("random product round trip failed: %v", m)
		}
	}
}

func TestQASMOutput(t *testing.T) {
	c := New(2)
	c.Append(H(0), CNOT(0, 1), Rz(1, 0.5))
	q := c.QASM()
	for _, want := range []string{
		"OPENQASM 2.0;",
		"qreg q[2];",
		"cx q[0],q[1];",
		"u3(",
	} {
		if !strings.Contains(q, want) {
			t.Errorf("QASM missing %q:\n%s", want, q)
		}
	}
	if strings.Count(q, "u3(") != 2 {
		t.Errorf("expected 2 u3 gates:\n%s", q)
	}
}

func TestDiagramRendering(t *testing.T) {
	c := New(2)
	c.Append(H(0), CNOT(0, 1))
	d := c.Diagram()
	if !strings.Contains(d, "●") || !strings.Contains(d, "⊕") {
		t.Errorf("diagram missing CNOT glyphs:\n%s", d)
	}
	if !strings.Contains(d, "[H") {
		t.Errorf("diagram missing H label:\n%s", d)
	}
	if lines := strings.Count(d, "\n"); lines != 2 {
		t.Errorf("diagram has %d lines, want 2", lines)
	}
}
