package arch

import (
	"fmt"
	"strconv"
	"strings"
)

// Linear returns an n-qubit nearest-neighbor chain — the simplest
// constrained topology and the worst case for routing overhead.
func Linear(n int) (*Device, error) {
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return NewDevice(fmt.Sprintf("linear:%d", n), n, edges)
}

// Grid returns an r×c square-lattice device (degree ≤ 4, no diagonals).
func Grid(r, c int) (*Device, error) {
	if r <= 0 || c <= 0 {
		return nil, fmt.Errorf("arch: grid needs positive dimensions, got %dx%d", r, c)
	}
	if err := checkGridSize(r, c); err != nil {
		return nil, err
	}
	var edges [][2]int
	idx := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				edges = append(edges, [2]int{idx(i, j), idx(i, j+1)})
			}
			if i+1 < r {
				edges = append(edges, [2]int{idx(i, j), idx(i+1, j)})
			}
		}
	}
	return NewDevice(fmt.Sprintf("grid:%dx%d", r, c), r*c, edges)
}

// Size guardrails for the parametric device families, so a spec like
// "linear:1000000000" is rejected at parse cost instead of allocating.
const (
	// MaxSpecQubits bounds linear:N / grid:RxC and custom JSON devices.
	MaxSpecQubits = 1 << 16
	maxGridDim    = 1 << 12
)

// checkGridSize holds a grid of positive dimensions to the guardrails.
func checkGridSize(r, c int) error {
	if r > maxGridDim || c > maxGridDim || r*c > MaxSpecQubits {
		return fmt.Errorf("arch: grid %dx%d too large (max %d qubits)", r, c, MaxSpecQubits)
	}
	return nil
}

// Info describes one catalog entry for listings (hattc -list-devices,
// the service's /v1/devices).
type Info struct {
	Spec        string `json:"spec"`   // what Lookup accepts
	Name        string `json:"name"`   // the device's display name
	Qubits      int    `json:"qubits"` // 0 for parametric families
	Couplers    int    `json:"couplers,omitempty"`
	Description string `json:"description"`
}

// Catalog lists every device spec Lookup resolves: the three fixed
// coupling graphs the paper evaluates plus the two parametric families.
func Catalog() []Info {
	fixed := []struct {
		spec string
		d    *Device
		desc string
	}{
		{"manhattan", Manhattan(), "IBM Manhattan, 65-qubit heavy-hex (Table IV)"},
		{"sycamore", Sycamore(), "Google Sycamore, 54-qubit grid with woven diagonals (Table IV)"},
		{"montreal", Montreal(), "IBM Montreal, 27-qubit heavy-hex (Table IV)"},
	}
	out := make([]Info, 0, len(fixed)+2)
	for _, f := range fixed {
		out = append(out, Info{
			Spec: f.spec, Name: f.d.Name, Qubits: f.d.N,
			Couplers: len(f.d.Edges()), Description: f.desc,
		})
	}
	out = append(out,
		Info{Spec: "linear:<n>", Name: "linear chain", Description: "n-qubit nearest-neighbor line"},
		Info{Spec: "grid:<r>x<c>", Name: "square grid", Description: "r×c lattice, degree ≤ 4"},
	)
	return out
}

// Normalize canonicalizes a catalog spec (trim, lower-case) without
// resolving it, so equivalent spellings share cache keys.
func Normalize(spec string) string {
	return strings.ToLower(strings.TrimSpace(spec))
}

// Lookup resolves a device spec from the catalog: "manhattan",
// "sycamore", "montreal", "linear:<n>", or "grid:<r>x<c>"
// (case-insensitive). Unknown or malformed specs are errors.
func Lookup(spec string) (*Device, error) {
	build, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return build()
}

// CheckSpec returns the error Lookup would return for spec, without
// building the device.
func CheckSpec(spec string) error {
	_, err := parseSpec(spec)
	return err
}

// fixedDevices are the catalog's fixed coupling graphs by spec.
var fixedDevices = map[string]func() *Device{
	"manhattan": Manhattan,
	"sycamore":  Sycamore,
	"montreal":  Montreal,
}

// parseSpec parses a catalog spec and holds it to the guardrails, and
// returns the builder of its device, which then cannot fail.
func parseSpec(spec string) (func() (*Device, error), error) {
	s := Normalize(spec)
	if fixed, ok := fixedDevices[s]; ok {
		return func() (*Device, error) { return fixed(), nil }, nil
	}
	if arg, ok := strings.CutPrefix(s, "linear:"); ok {
		n, err := strconv.Atoi(arg)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("arch: bad linear spec %q (want linear:<n>)", spec)
		}
		if n > MaxSpecQubits {
			return nil, fmt.Errorf("arch: linear:%d too large (max %d qubits)", n, MaxSpecQubits)
		}
		return func() (*Device, error) { return Linear(n) }, nil
	}
	if arg, ok := strings.CutPrefix(s, "grid:"); ok {
		rs, cs, ok := strings.Cut(arg, "x")
		if !ok {
			return nil, fmt.Errorf("arch: bad grid spec %q (want grid:<r>x<c>)", spec)
		}
		r, err1 := strconv.Atoi(rs)
		c, err2 := strconv.Atoi(cs)
		if err1 != nil || err2 != nil || r <= 0 || c <= 0 {
			return nil, fmt.Errorf("arch: bad grid spec %q (want grid:<r>x<c>)", spec)
		}
		if err := checkGridSize(r, c); err != nil {
			return nil, err
		}
		return func() (*Device, error) { return Grid(r, c) }, nil
	}
	return nil, fmt.Errorf("arch: unknown device %q (want manhattan | sycamore | montreal | linear:<n> | grid:<r>x<c>)", spec)
}
