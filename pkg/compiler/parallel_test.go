package compiler

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/models"
)

func TestCompileConcurrentMatchesSequential(t *testing.T) {
	// Many problems at once is many Compile calls from the caller's own
	// goroutines, each single-threaded; every one must produce the
	// mapping a lone sequential compile produces.
	mh := models.H2STO3G().Majorana(1e-12)
	want, err := Compile(context.Background(), "hatt", mh, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var a bytes.Buffer
	if err := want.Mapping.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Compile(context.Background(), "hatt", mh, WithParallelism(1))
			if err != nil {
				errs[i] = err
				return
			}
			var b bytes.Buffer
			errs[i] = res.Mapping.WriteText(&b)
			got[i] = b.Bytes()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("compile %d: %v", i, errs[i])
		}
		if !bytes.Equal(a.Bytes(), got[i]) {
			t.Fatalf("compile %d: concurrent mapping differs from sequential compile", i)
		}
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
