package mapping_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/pauli"
	"repro/pkg/compiler"
)

// fmtString is the fmt-era rendering of a Pauli string, kept as the
// oracle for pauli.String.String and AppendTo: a phase prefix read from
// LetterPhase, then one letter per qubit from qubit N-1 down to 0.
func fmtString(s pauli.String) string {
	var b strings.Builder
	switch s.LetterPhase() {
	case 1:
		b.WriteString("i·")
	case 2:
		b.WriteString("-")
	case 3:
		b.WriteString("-i·")
	}
	for q := s.N() - 1; q >= 0; q-- {
		b.WriteString(s.Letter(q).String())
	}
	return b.String()
}

// fmtWriteText is the fmt-era Mapping.WriteText, kept as its oracle.
func fmtWriteText(w io.Writer, m *mapping.Mapping) error {
	if _, err := fmt.Fprintf(w, "# mapping %s modes=%d qubits=%d\n", m.Name, m.Modes, m.Qubits()); err != nil {
		return err
	}
	for j, s := range m.Majoranas {
		if _, err := fmt.Fprintf(w, "M%d %s\n", j, fmtString(s)); err != nil {
			return err
		}
	}
	return nil
}

// requireRendersAsFmt fails t unless every string of m renders as
// fmtString does, through String and through AppendTo onto a non-empty
// buffer, and WriteText writes what fmtWriteText writes.
func requireRendersAsFmt(t *testing.T, m *mapping.Mapping) {
	t.Helper()
	for j, s := range m.Majoranas {
		want := fmtString(s)
		if got := s.String(); got != want {
			t.Fatalf("%s: M%d String = %q, fmt form %q", m.Name, j, got, want)
		}
		if got := string(s.AppendTo([]byte("M7 "))); got != "M7 "+want {
			t.Fatalf("%s: M%d AppendTo = %q, fmt form %q", m.Name, j, got, "M7 "+want)
		}
	}
	var got, want bytes.Buffer
	if err := m.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if err := fmtWriteText(&want, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: WriteText differs from the fmt form:\n%s\nwant:\n%s", m.Name, got.Bytes(), want.Bytes())
	}
}

// TestRenderingMatchesFmtOracle holds String and WriteText byte for byte
// to their fmt-era forms on every registered method's mappings of two
// models, and on products of random strings that cover all four phases
// and qubit counts on both sides of each 64-bit word boundary.
func TestRenderingMatchesFmtOracle(t *testing.T) {
	for _, spec := range []string{"h2", "hubbard:2x2"} {
		h, err := models.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		mh := h.Majorana(1e-12)
		for _, method := range compiler.Methods() {
			res, err := compiler.Compile(context.Background(), method, mh)
			if err != nil {
				t.Fatalf("%s on %s: %v", method, spec, err)
			}
			requireRendersAsFmt(t, res.Mapping)
		}
	}

	r := rand.New(rand.NewSource(22))
	letters := []pauli.Letter{pauli.I, pauli.X, pauli.Y, pauli.Z}
	random := func(n int) pauli.String {
		qubits, ls := make([]int, n), make([]pauli.Letter, n)
		for q := range qubits {
			qubits[q], ls[q] = q, letters[r.Intn(len(letters))]
		}
		return pauli.New(n, qubits, ls)
	}
	var phases [4]int
	for _, n := range []int{0, 1, 2, 5, 59, 60, 61, 63, 64, 65, 127, 128, 130} {
		m := &mapping.Mapping{Name: fmt.Sprintf("products-%d", n), Modes: 4}
		for range 4 {
			s := random(n)
			for range 4 {
				m.Majoranas = append(m.Majoranas, s)
				phases[s.LetterPhase()]++
				s = s.Mul(random(n))
			}
		}
		requireRendersAsFmt(t, m)
	}
	for p, seen := range phases {
		if seen == 0 {
			t.Fatalf("no product had LetterPhase %d: %v", p, phases)
		}
	}
}
