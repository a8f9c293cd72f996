package core

import (
	"context"
	"testing"

	"repro/internal/models"
)

// TestUnoptPruneMatchesReference asserts that the pairwise-delta prune in
// buildUnoptScan is invisible: on every model it must produce exactly
// the merge schedule and settled weight of the exhaustive triple scan.
func TestUnoptPruneMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		spec string
	}{
		{"eq3", ""},
		{"h2", "h2"},
		{"hubbard2x2", "hubbard:2x2"},
		{"hubbard2x3", "hubbard:2x3"},
		{"neutrino3x2", "neutrino:3x2"},
		{"molecule8", "molecule:8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mh := eq3()
			if tc.spec != "" {
				h, err := models.Resolve(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				mh = h.Majorana(1e-12)
			}
			pruned, err := buildUnoptScan(context.Background(), newProblem(mh), Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref := buildUnoptReference(newProblem(mh))
			if pruned.predicted != ref.predicted {
				t.Fatalf("predicted weight %d, reference %d", pruned.predicted, ref.predicted)
			}
			if len(pruned.log) != len(ref.log) {
				t.Fatalf("merge count %d, reference %d", len(pruned.log), len(ref.log))
			}
			for i := range pruned.log {
				if pruned.log[i] != ref.log[i] {
					t.Fatalf("step %d: merge %v, reference %v", i, pruned.log[i], ref.log[i])
				}
			}
		})
	}
}

// TestBuildUnoptReferenceExported keeps the exported reference wrapper in
// lockstep with BuildUnopt.
func TestBuildUnoptReferenceExported(t *testing.T) {
	mh := eq3()
	a, b := run(t, BuildUnopt, mh, Options{}), BuildUnoptReference(mh)
	if a.PredictedWeight != b.PredictedWeight {
		t.Fatalf("weights diverge: %d vs %d", a.PredictedWeight, b.PredictedWeight)
	}
	for j := range a.Mapping.Majoranas {
		if !a.Mapping.Majoranas[j].Equal(b.Mapping.Majoranas[j]) {
			t.Fatalf("Majorana %d diverges", j)
		}
	}
}
