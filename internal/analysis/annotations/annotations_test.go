package annotations

import (
	"path/filepath"
	"slices"
	"testing"
)

func TestNoAllocFuncs(t *testing.T) {
	// The noalloc analyzer's fixture carries a known annotation set.
	got, err := NoAllocFuncs(filepath.Join("..", "noalloc", "testdata", "a"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bad", "capturing", "coldPath", "good"}
	if !slices.Equal(got, want) {
		t.Fatalf("NoAllocFuncs = %v, want %v", got, want)
	}
}

func TestNoAllocFuncsMethods(t *testing.T) {
	got, err := NoAllocFuncs(filepath.Join("..", "..", "pauli"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"Hamiltonian.Add", "Hamiltonian.Coeff", "String.MulAssign", "String.MulInto"} {
		if !slices.Contains(got, fn) {
			t.Errorf("NoAllocFuncs(internal/pauli) = %v, missing %s", got, fn)
		}
	}
}
