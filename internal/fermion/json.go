package fermion

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// jsonHamiltonian is the interchange schema:
//
//	{
//	  "modes": 4,
//	  "terms": [
//	    {"coeff": [1.5, 0.0], "ops": [{"mode": 0, "dagger": true},
//	                                  {"mode": 1, "dagger": false}]}
//	  ]
//	}
//
// No other key is accepted, and coeff holds exactly two numbers, the
// real and the imaginary part, so a typo fails loudly instead of
// decoding into a different Hamiltonian.
type jsonHamiltonian struct {
	Modes int        `json:"modes"`
	Terms []jsonTerm `json:"terms"`
}

type jsonTerm struct {
	Coeff []float64 `json:"coeff"`
	Ops   []jsonOp  `json:"ops"`
}

type jsonOp struct {
	Mode   int  `json:"mode"`
	Dagger bool `json:"dagger"`
}

// MarshalJSON encodes the Hamiltonian in the interchange schema.
func (h *Hamiltonian) MarshalJSON() ([]byte, error) {
	out := jsonHamiltonian{Modes: h.Modes}
	coeffs := make([]float64, 2*len(h.Terms)) // one allocation for every term's pair
	for i, t := range h.Terms {
		c := coeffs[2*i : 2*i+2 : 2*i+2]
		c[0], c[1] = real(t.Coeff), imag(t.Coeff)
		jt := jsonTerm{Coeff: c}
		for _, o := range t.Ops {
			jt.Ops = append(jt.Ops, jsonOp{Mode: o.Mode, Dagger: o.Dagger})
		}
		out.Terms = append(out.Terms, jt)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the interchange schema with validation. The
// form MarshalJSON and WriteJSON emit is decoded in one pass by
// decodeCanonical; any other input, and any input that fails
// validation, goes through decodeReference, which alone defines what is
// accepted and every error. Both give field-for-field equal results.
func (h *Hamiltonian) UnmarshalJSON(data []byte) error {
	dec, ok := decodeCanonical(data)
	if !ok {
		var err error
		if dec, err = decodeReference(data); err != nil {
			return err
		}
	}
	*h = *dec
	return nil
}

// decodeReference decodes the interchange schema through encoding/json.
func decodeReference(data []byte) (*Hamiltonian, error) {
	d := json.NewDecoder(bytes.NewReader(data))
	d.DisallowUnknownFields()
	var in jsonHamiltonian
	if err := d.Decode(&in); err != nil {
		return nil, err
	}
	if err := d.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("fermion: trailing data after the Hamiltonian")
	}
	if in.Modes <= 0 {
		return nil, fmt.Errorf("fermion: invalid mode count %d", in.Modes)
	}
	dec := NewHamiltonian(in.Modes)
	for ti, t := range in.Terms {
		if len(t.Coeff) != 2 {
			return nil, fmt.Errorf("fermion: term %d: coeff has %d numbers, want 2 (real, imaginary)", ti, len(t.Coeff))
		}
		ops := make([]Op, len(t.Ops))
		for i, o := range t.Ops {
			if o.Mode < 0 || o.Mode >= in.Modes {
				return nil, fmt.Errorf("fermion: term %d: mode %d out of range [0,%d)", ti, o.Mode, in.Modes)
			}
			ops[i] = Op{Mode: o.Mode, Dagger: o.Dagger}
		}
		dec.Add(complex(t.Coeff[0], t.Coeff[1]), ops...)
	}
	return dec, nil
}

// The keys of each object in the canonical form, indexed as
// canonical.object reports them.
var (
	hamiltonianKeys = []string{"modes", "terms"}
	termKeys        = []string{"coeff", "ops"}
	opKeys          = []string{"mode", "dagger"}
)

// decodeCanonical decodes the canonical form in one pass: the schema's
// keys spelled exactly, without escapes, each at most once per object,
// in any order, with any JSON whitespace; numbers in JSON grammar, mode
// counts and modes without sign, fraction or exponent; booleans for
// dagger; and "ops": null. It reports false for anything else and for a
// Hamiltonian that fails validation. Every term's operators share one
// backing array, each capped at its own length so that appending to one
// cannot reach the next.
func decodeCanonical(data []byte) (*Hamiltonian, bool) {
	c := canonical{b: data}
	h := &Hamiltonian{}
	var (
		ops  []Op  // every term's operators, back to back
		ends []int // term t's operators end at ops[ends[t]]
	)
	op := func() bool {
		var o Op
		ok := c.object(opKeys, func(k int) bool {
			var ok bool
			if k == 0 {
				o.Mode, ok = c.integer()
			} else {
				o.Dagger = c.literal("true")
				ok = o.Dagger || c.literal("false")
			}
			return ok
		})
		ops = append(ops, o)
		return ok
	}
	term := func() bool {
		var re, im float64
		hasCoeff := false
		ok := c.object(termKeys, func(k int) bool {
			if k == 0 {
				hasCoeff = true
				return c.consume('[') && c.float(&re) && c.consume(',') && c.float(&im) && c.consume(']')
			}
			return c.literal("null") || c.array(op)
		})
		h.Terms = append(h.Terms, Term{Coeff: complex(re, im)})
		ends = append(ends, len(ops))
		return ok && hasCoeff
	}
	ok := c.object(hamiltonianKeys, func(k int) bool {
		if k == 0 {
			var ok bool
			h.Modes, ok = c.integer()
			return ok
		}
		return c.array(term)
	})
	c.space()
	if !ok || c.i != len(data) || h.Modes <= 0 {
		return nil, false
	}
	for _, o := range ops {
		if o.Mode >= h.Modes {
			return nil, false
		}
	}
	start := 0
	for t, end := range ends {
		h.Terms[t].Ops = ops[start:end:end]
		if start == end {
			h.Terms[t].Ops = []Op{}
		}
		start = end
	}
	return h, true
}

// canonical is a cursor over JSON input in the canonical form. Each
// method consumes what it reads and reports false when the input leaves
// the form; after a false the cursor's position is meaningless.
type canonical struct {
	b []byte
	i int
}

// jsonSpace marks the four JSON whitespace bytes.
var jsonSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// space skips JSON whitespace. Like the loops below it works on a local
// copy of the position, which the compiler keeps in a register.
func (c *canonical) space() {
	b, i := c.b, c.i
	for i < len(b) && jsonSpace[b[i]] {
		i++
	}
	c.i = i
}

// peek returns the next byte, or 0 at the end of the input.
func (c *canonical) peek() byte {
	if c.i < len(c.b) {
		return c.b[c.i]
	}
	return 0
}

// consume skips whitespace and then the byte ch.
func (c *canonical) consume(ch byte) bool {
	c.space()
	if c.peek() != ch {
		return false
	}
	c.i++
	return true
}

// literal skips whitespace and then the bare word w.
func (c *canonical) literal(w string) bool {
	c.space()
	if len(c.b)-c.i < len(w) || string(c.b[c.i:c.i+len(w)]) != w {
		return false
	}
	c.i += len(w)
	return true
}

// object reads an object whose keys are drawn from keys, each at most
// once, calling member with the key's index to read its value.
func (c *canonical) object(keys []string, member func(k int) bool) bool {
	if !c.consume('{') {
		return false
	}
	if c.consume('}') {
		return true
	}
	seen := 0
	for {
		k := c.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !member(k) {
			return false
		}
		seen |= 1 << k
		if c.consume('}') {
			return true
		}
		if !c.consume(',') {
			return false
		}
	}
}

// key reads a quoted key and its colon, and returns the key's index in
// keys, or -1 when it is none of them or holds an escape.
func (c *canonical) key(keys []string) int {
	if !c.consume('"') {
		return -1
	}
	b, start, end := c.b, c.i, c.i
	for end < len(b) && b[end] != '"' && b[end] != '\\' {
		end++
	}
	if end == len(b) || b[end] != '"' {
		return -1
	}
	k := b[start:end]
	c.i = end + 1
	for i, want := range keys {
		if string(k) == want {
			if !c.consume(':') {
				return -1
			}
			return i
		}
	}
	return -1
}

// array reads an array, calling elem to read each element.
func (c *canonical) array(elem func() bool) bool {
	if !c.consume('[') {
		return false
	}
	if c.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if c.consume(']') {
			return true
		}
		if !c.consume(',') {
			return false
		}
	}
}

// number reads a number in JSON grammar and returns its literal.
func (c *canonical) number() ([]byte, bool) {
	c.space()
	start := c.i
	if c.peek() == '-' {
		c.i++
	}
	switch p := c.peek(); {
	case p == '0':
		c.i++
	case '1' <= p && p <= '9':
		c.digits()
	default:
		return nil, false
	}
	if c.peek() == '.' {
		c.i++
		if !c.digits() {
			return nil, false
		}
	}
	if p := c.peek(); p == 'e' || p == 'E' {
		c.i++
		if p := c.peek(); p == '+' || p == '-' {
			c.i++
		}
		if !c.digits() {
			return nil, false
		}
	}
	return c.b[start:c.i], true
}

// digits skips a run of decimal digits and reports whether it was
// non-empty.
func (c *canonical) digits() bool {
	b, start, end := c.b, c.i, c.i
	for end < len(b) && '0' <= b[end] && b[end] <= '9' {
		end++
	}
	c.i = end
	return end > start
}

// integer reads a non-negative integer of at most 18 digits, which
// cannot overflow an int64. A sign, fraction or exponent fails, as does
// anything longer, and decodeReference then decides.
func (c *canonical) integer() (int, bool) {
	lit, ok := c.number()
	if !ok || len(lit) > 18 {
		return 0, false
	}
	n := 0
	for _, d := range lit {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

// float reads a number into *f with strconv.ParseFloat, the conversion
// encoding/json makes, so the bits agree. An out-of-range literal fails.
func (c *canonical) float(f *float64) bool {
	lit, ok := c.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*f = v
	return err == nil
}

// WriteJSON writes the Hamiltonian as indented JSON.
func (h *Hamiltonian) WriteJSON(w io.Writer) error {
	b, err := h.MarshalJSON()
	if err != nil {
		return err
	}
	var buf []byte
	buf, err = indentJSON(b)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

func indentJSON(b []byte) ([]byte, error) {
	var v interface{}
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	return json.MarshalIndent(v, "", "  ")
}

// ReadJSON parses a Hamiltonian from a reader.
func ReadJSON(r io.Reader) (*Hamiltonian, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	h := &Hamiltonian{}
	if err := h.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return h, nil
}
