package compiler

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/models"
)

func TestCompileBatchOrderAndResults(t *testing.T) {
	items := []BatchItem{
		{Model: "h2"},
		{Model: "h2", Spec: "jw"},
		{Model: "hubbard:2x2", Spec: "hatt"},
		{Model: "hubbard:2x2", Spec: "bk"},
	}
	results := CompileBatch(context.Background(), items, WithParallelism(4))
	if len(results) != len(items) {
		t.Fatalf("got %d results, want %d", len(results), len(items))
	}
	for i, br := range results {
		if br.Index != i {
			t.Fatalf("result %d has index %d (input order violated)", i, br.Index)
		}
		if br.Err != nil {
			t.Fatalf("item %d: %v", i, br.Err)
		}
		if br.Result == nil || br.Result.PredictedWeight <= 0 {
			t.Fatalf("item %d: bad result %+v", i, br.Result)
		}
	}
	// hatt (default spec) must beat or match JW on the same model.
	if results[0].Result.PredictedWeight > results[1].Result.PredictedWeight {
		t.Fatalf("hatt weight %d worse than jw %d",
			results[0].Result.PredictedWeight, results[1].Result.PredictedWeight)
	}
}

func TestCompileBatchMatchesSequentialCompile(t *testing.T) {
	mh := models.H2STO3G().Majorana(1e-12)
	want, err := Compile(context.Background(), "hatt", mh, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{Hamiltonian: mh, Spec: "hatt"}
	}
	for _, br := range CompileBatch(context.Background(), items, WithParallelism(8)) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		var a, b bytes.Buffer
		if err := want.Mapping.WriteText(&a); err != nil {
			t.Fatal(err)
		}
		if err := br.Result.Mapping.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("item %d: batch mapping differs from sequential compile", br.Index)
		}
	}
}

func TestCompileBatchPerItemErrors(t *testing.T) {
	items := []BatchItem{
		{Model: "h2"},
		{Model: "no-such-model"},
		{},                                  // neither model nor Hamiltonian
		{Model: "h2", Spec: "no-such-spec"}, // bad method
		{Model: "hubbard:2x2"},
	}
	results := CompileBatch(context.Background(), items, WithParallelism(3))
	if results[0].Err != nil || results[4].Err != nil {
		t.Fatalf("good items failed: %v / %v", results[0].Err, results[4].Err)
	}
	for _, i := range []int{1, 2, 3} {
		if results[i].Err == nil {
			t.Fatalf("item %d: expected an error", i)
		}
		if results[i].Result != nil {
			t.Fatalf("item %d: result and error both set", i)
		}
	}
	if !strings.Contains(results[2].Err.Error(), "Model spec or a Hamiltonian") {
		t.Fatalf("item 2 error = %v", results[2].Err)
	}
}

func TestCompileBatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := []BatchItem{{Model: "h2"}, {Model: "hubbard:2x2"}}
	for i, br := range CompileBatch(ctx, items, WithParallelism(2)) {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, br.Err)
		}
	}
}

func TestCompileBatchStreamDeliversAll(t *testing.T) {
	items := []BatchItem{
		{Model: "h2", Spec: "jw"},
		{Model: "h2", Spec: "bk"},
		{Model: "h2", Spec: "parity"},
	}
	seen := make(map[int]bool)
	for br := range CompileBatchStream(context.Background(), items, WithParallelism(3)) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		if seen[br.Index] {
			t.Fatalf("index %d delivered twice", br.Index)
		}
		seen[br.Index] = true
	}
	if len(seen) != len(items) {
		t.Fatalf("stream delivered %d results, want %d", len(seen), len(items))
	}
}

func TestPipelineBatch(t *testing.T) {
	pipes := []Pipeline{
		{Model: "h2", Method: "hatt"},
		{Model: "h2", Method: "jw"},
		{Model: "bad-model", Method: "hatt"},
	}
	results := PipelineBatch(context.Background(), pipes, WithParallelism(3))
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, i := range []int{0, 1} {
		if results[i].Err != nil {
			t.Fatalf("pipeline %d: %v", i, results[i].Err)
		}
		if results[i].Report == nil || results[i].Report.CNOTs <= 0 {
			t.Fatalf("pipeline %d: bad report", i)
		}
	}
	if results[2].Err == nil {
		t.Fatal("bad model pipeline did not fail")
	}
}

func TestCompileParallelismDeterministic(t *testing.T) {
	// Facade-level reproducibility guarantee: same seed ⇒ byte-identical
	// mapping at any WithParallelism value, for every search method.
	mh := models.FermiHubbard(2, 2, 1, 4).Majorana(1e-12)
	for _, spec := range []string{"hatt", "beam:4", "anneal"} {
		var want []byte
		for _, par := range []int{1, 2, 8} {
			res, err := Compile(context.Background(), spec, mh,
				WithParallelism(par), WithSeed(3), WithAnnealRestarts(4),
				WithAnnealSchedule(300, 0, 0))
			if err != nil {
				t.Fatalf("%s par=%d: %v", spec, par, err)
			}
			var buf bytes.Buffer
			if err := res.Mapping.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(want, buf.Bytes()) {
				t.Fatalf("%s: mapping differs between parallelism 1 and %d", spec, par)
			}
		}
	}
}
