package fermion

// MajoranaReference exposes the reference expansion to the external test
// package, which can import internal/models for catalog seeds.
var MajoranaReference = (*Hamiltonian).majoranaReference
