package compiler

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fermion"
	"repro/internal/models"
	"repro/internal/parallel"
)

// BatchItem is one compilation request in a CompileBatch call. Either
// Model (a spec for models.Resolve, e.g. "hubbard:2x3") or Hamiltonian
// must be set; Hamiltonian wins when both are. An empty Spec compiles
// with "hatt".
type BatchItem struct {
	Spec        string
	Model       string
	Hamiltonian *fermion.MajoranaHamiltonian
}

// BatchResult is the outcome of one BatchItem. Exactly one of Result and
// Err is non-nil.
type BatchResult struct {
	Index  int // position of the item in the batch
	Item   BatchItem
	Result *Result
	Err    error
}

// CompileBatch compiles every item concurrently — the serving primitive
// for multi-tenant traffic — and returns the results in input order.
// Options.Parallelism bounds how many items are in flight at once; each
// item itself compiles single-threaded, so a batch never oversubscribes
// the host. Failures are per-item: one bad spec or cancelled search
// lands in that item's Err and the rest of the batch completes (after
// ctx is cancelled, remaining items fail fast with ctx.Err()).
//
// A WithProgress callback is invoked from whichever worker is compiling;
// with a batch in flight that means concurrently — wrap the callback in
// a lock if it touches shared state.
func CompileBatch(ctx context.Context, items []BatchItem, opts ...Option) []BatchResult {
	out := make([]BatchResult, len(items))
	for br := range CompileBatchStream(ctx, items, opts...) {
		out[br.Index] = br
	}
	return out
}

// CompileBatchStream is CompileBatch with streaming delivery: results are
// sent in completion order as they finish, and the channel is closed once
// every item has been reported. The channel is buffered to the batch
// size, so the consumer can never stall the workers.
func CompileBatchStream(ctx context.Context, items []BatchItem, opts ...Option) <-chan BatchResult {
	o := NewOptions(opts...)
	// The batch fans out across items; each item compiles sequentially.
	item := o
	item.Parallelism = 1
	ch := make(chan BatchResult, len(items))
	go func() {
		defer close(ch)
		// The pool itself runs uncancelled so that every item emits a
		// result; cancellation is consulted per item inside the task.
		_ = parallel.ForEach(context.WithoutCancel(ctx), len(items), o.Parallelism, func(i int) error {
			ch <- compileBatchItem(ctx, i, items[i], item)
			return nil
		})
	}()
	return ch
}

func compileBatchItem(ctx context.Context, i int, it BatchItem, o Options) (br BatchResult) {
	br = BatchResult{Index: i, Item: it}
	// Failures stay per-item, panics included: a panic escaping one item
	// (e.g. from model construction, which runs outside the method
	// boundary's recover) must not take down the rest of the batch.
	defer func() {
		if r := recover(); r != nil {
			br.Result, br.Err = nil, fmt.Errorf("compiler: batch item %d panicked: %v", i, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		br.Err = err
		return br
	}
	mh := it.Hamiltonian
	if mh == nil {
		if it.Model == "" {
			br.Err = errors.New("compiler: batch item needs a Model spec or a Hamiltonian")
			return br
		}
		h, err := models.Resolve(it.Model)
		if err != nil {
			br.Err = err
			return br
		}
		mh = h.Majorana(1e-12)
	}
	spec := it.Spec
	if spec == "" {
		spec = "hatt"
	}
	br.Result, br.Err = compileWith(ctx, spec, mh, o)
	return br
}

// PipelineResult is the outcome of one Pipeline in a PipelineBatch call.
type PipelineResult struct {
	Index  int
	Report *Report
	Err    error
}

// PipelineBatch runs full compilation pipelines (model → mapping →
// synthesis → metrics) concurrently and returns the reports in input
// order. The shared opts are applied before each pipeline's own Options,
// so per-pipeline settings win; Options.Parallelism sets the batch
// width, with each pipeline forced single-threaded (override inside a
// pipeline's own Options to change that). Failures are per-pipeline.
func PipelineBatch(ctx context.Context, pipes []Pipeline, opts ...Option) []PipelineResult {
	o := NewOptions(opts...)
	out := make([]PipelineResult, len(pipes))
	// The pool runs uncancelled so every pipeline reports a result;
	// cancellation is consulted per item inside runPipelineItem.
	_ = parallel.ForEach(context.WithoutCancel(ctx), len(pipes), o.Parallelism, func(i int) error {
		out[i] = runPipelineItem(ctx, i, pipes[i], opts)
		return nil
	})
	return out
}

func runPipelineItem(ctx context.Context, i int, p Pipeline, opts []Option) (pr PipelineResult) {
	pr = PipelineResult{Index: i}
	// Per-pipeline failure isolation, panics included: Pipeline.Run
	// stages beyond the method boundary (mapping application, synthesis)
	// have no recover of their own.
	defer func() {
		if r := recover(); r != nil {
			pr.Report, pr.Err = nil, fmt.Errorf("compiler: pipeline %d panicked: %v", i, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		pr.Err = err
		return pr
	}
	shared := make([]Option, 0, len(opts)+1+len(p.Options))
	shared = append(shared, opts...)
	shared = append(shared, func(po *Options) { po.Parallelism = 1 })
	p.Options = append(shared, p.Options...)
	pr.Report, pr.Err = p.Run(ctx)
	return pr
}
