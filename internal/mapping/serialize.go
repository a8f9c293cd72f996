package mapping

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/pauli"
)

// WriteText serializes the mapping as a plain-text table:
//
//	# mapping <name> modes=<N> qubits=<Q>
//	M0 <string>
//	M1 <string>
//	...
//
// The string column uses the paper's N-length form (qubit N−1 leftmost).
// Mappings serialized this way can be stored alongside compiled circuits
// and re-verified on load.
func (m *Mapping) WriteText(w io.Writer) error {
	q := m.Qubits()
	b := make([]byte, 0, 64+len(m.Name)+len(m.Majoranas)*(q+16))
	b = append(b, "# mapping "...)
	b = append(b, m.Name...)
	b = append(b, " modes="...)
	b = strconv.AppendInt(b, int64(m.Modes), 10)
	b = append(b, " qubits="...)
	b = strconv.AppendInt(b, int64(q), 10)
	b = append(b, '\n')
	for j, s := range m.Majoranas {
		b = append(b, 'M')
		b = strconv.AppendInt(b, int64(j), 10)
		b = append(b, ' ')
		b = s.AppendTo(b)
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// ReadText parses a mapping serialized by WriteText and verifies it.
func ReadText(r io.Reader) (*Mapping, error) {
	sc := bufio.NewScanner(r)
	var m *Mapping
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if m != nil {
				return nil, fmt.Errorf("mapping: duplicate header at line %d", line)
			}
			var name string
			var modes, qubits int
			if _, err := fmt.Sscanf(text, "# mapping %s modes=%d qubits=%d", &name, &modes, &qubits); err != nil {
				return nil, fmt.Errorf("mapping: bad header at line %d: %v", line, err)
			}
			m = &Mapping{Name: name, Modes: modes, Majoranas: make([]pauli.String, 2*modes)}
			continue
		}
		if m == nil {
			return nil, fmt.Errorf("mapping: missing header before line %d", line)
		}
		var idx int
		var str string
		if _, err := fmt.Sscanf(text, "M%d %s", &idx, &str); err != nil {
			return nil, fmt.Errorf("mapping: bad row at line %d: %v", line, err)
		}
		if idx < 0 || idx >= len(m.Majoranas) {
			return nil, fmt.Errorf("mapping: index M%d out of range at line %d", idx, line)
		}
		s, err := pauli.Parse(str)
		if err != nil {
			return nil, fmt.Errorf("mapping: line %d: %v", line, err)
		}
		m.Majoranas[idx] = s
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("mapping: empty input")
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("mapping: loaded mapping invalid: %w", err)
	}
	return m, nil
}
