package arch

import (
	"fmt"
	"strings"
	"testing"
)

func TestLookupCatalog(t *testing.T) {
	cases := []struct {
		spec   string
		qubits int
	}{
		{"manhattan", 65},
		{"sycamore", 54},
		{"montreal", 27},
		{"Montreal", 27},   // case-insensitive
		{" MONTREAL ", 27}, // and whitespace-tolerant
		{"linear:7", 7},
		{"grid:3x4", 12},
		{"grid:1x2", 2},
	}
	for _, c := range cases {
		d, err := Lookup(c.spec)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", c.spec, err)
		}
		if d.N != c.qubits {
			t.Errorf("Lookup(%q).N = %d, want %d", c.spec, d.N, c.qubits)
		}
		if !d.Connected() {
			t.Errorf("Lookup(%q) disconnected", c.spec)
		}
	}
}

func TestLookupRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"", "ibmq", "linear:", "linear:0", "linear:-3", "linear:x",
		"grid:", "grid:3", "grid:0x4", "grid:3x", "grid:ax2",
		"linear:999999999", "grid:99999x99999",
	} {
		if _, err := Lookup(spec); err == nil {
			t.Errorf("Lookup(%q) succeeded, want error", spec)
		}
	}
}

// TestCheckSpecMatchesLookup: CheckSpec accepts what Lookup resolves and
// rejects what it rejects, with the same error text.
func TestCheckSpecMatchesLookup(t *testing.T) {
	for _, spec := range []string{
		"manhattan", " Sycamore ", "MONTREAL", "linear:7", "grid:6x6", "grid:1x2",
		"", "ibmq", "linear:", "linear:0", "linear:x", "linear:65537",
		"grid:", "grid:3", "grid:0x4", "grid:ax2", "grid:5000x2", "grid:300x300",
	} {
		_, lookupErr := Lookup(spec)
		checkErr := CheckSpec(spec)
		if fmt.Sprint(checkErr) != fmt.Sprint(lookupErr) {
			t.Errorf("CheckSpec(%q) = %v, Lookup error %v", spec, checkErr, lookupErr)
		}
	}
}

func TestCatalogListsEveryFixedDevice(t *testing.T) {
	infos := Catalog()
	want := map[string]int{"manhattan": 65, "sycamore": 54, "montreal": 27}
	for _, in := range infos {
		if n, ok := want[in.Spec]; ok {
			if in.Qubits != n || in.Couplers == 0 || in.Description == "" {
				t.Errorf("catalog entry %+v malformed", in)
			}
			delete(want, in.Spec)
		}
	}
	if len(want) != 0 {
		t.Errorf("catalog missing fixed devices: %v", want)
	}
	// The parametric families are advertised too.
	var families int
	for _, in := range infos {
		if strings.Contains(in.Spec, "<") {
			families++
		}
	}
	if families != 2 {
		t.Errorf("catalog advertises %d parametric families, want 2", families)
	}
}

func TestConstructionErrors(t *testing.T) {
	if _, err := NewDevice("bad", 0, nil); err == nil {
		t.Error("zero-qubit device accepted")
	}
	if _, err := NewDevice("bad", -2, nil); err == nil {
		t.Error("negative-qubit device accepted")
	}
	if _, err := NewDevice("bad", 3, [][2]int{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewDevice("bad", 3, [][2]int{{0, 3}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewDevice("bad", 3, [][2]int{{-1, 1}}); err == nil {
		t.Error("negative endpoint accepted")
	}
	d := testDevice(t, "ok", 3, [][2]int{{0, 1}})
	if err := d.AddEdge(1, 1); err == nil {
		t.Error("AddEdge self-loop accepted")
	}
	if err := d.AddEdge(2, 5); err == nil {
		t.Error("AddEdge out-of-range accepted")
	}
	// Duplicate insertion stays a silent no-op.
	if err := d.AddEdge(1, 0); err != nil {
		t.Errorf("duplicate edge: %v", err)
	}
	if len(d.Edges()) != 1 {
		t.Errorf("duplicate edge appended: %v", d.Edges())
	}
}

func TestFingerprintStability(t *testing.T) {
	// Edge order must not matter; name, size, and edge set must.
	a := testDevice(t, "ring", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	b := testDevice(t, "ring", 4, [][2]int{{3, 0}, {2, 3}, {1, 2}, {1, 0}})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("edge order changed fingerprint")
	}
	c := testDevice(t, "ring", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different edge sets share a fingerprint")
	}
	e := testDevice(t, "ring2", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if a.Fingerprint() == e.Fingerprint() {
		t.Error("different names share a fingerprint")
	}
	f := testDevice(t, "ring", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if a.Fingerprint() == f.Fingerprint() {
		t.Error("different sizes share a fingerprint")
	}
}
