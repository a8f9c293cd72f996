package fermion

// MajoranaReference exposes the reference expansion to the external test
// package, which can import internal/models for catalog seeds.
var MajoranaReference = (*Hamiltonian).majoranaReference

// DecodeReference and DecodeCanonical expose UnmarshalJSON's two
// decoders to the external test package for the same reason.
var (
	DecodeReference = decodeReference
	DecodeCanonical = decodeCanonical
)
