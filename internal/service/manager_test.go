package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/pkg/compiler"
)

// blockingMethod is a registry method whose Compile parks until the test
// releases it (or the job's context is canceled), so tests can hold jobs
// in the running state deterministically.
type blockingMethod struct {
	name    string
	release chan struct{}
	started chan struct{} // receives one token per Compile entry
}

func (b *blockingMethod) Name() string { return b.name }

func (b *blockingMethod) Compile(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts compiler.Options) (*compiler.Result, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	if opts.Progress != nil {
		opts.Progress(compiler.ProgressEvent{Method: b.name, Stage: compiler.StageSearch, Step: 1, Total: 2, BestWeight: 41})
	}
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	m := mapping.JordanWigner(mh.Modes)
	return &compiler.Result{Method: b.name, Mapping: m, PredictedWeight: m.HamiltonianWeight(mh)}, nil
}

var blockSeq int

// newBlocking registers a fresh blocking method (names are global and
// single-registration, so each call mints a new one).
func newBlocking(t *testing.T) *blockingMethod {
	t.Helper()
	blockSeq++
	b := &blockingMethod{
		name:    fmt.Sprintf("testblock%d", blockSeq),
		release: make(chan struct{}),
		started: make(chan struct{}, 64),
	}
	if err := compiler.Register(b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSubmitRunResult(t *testing.T) {
	m := New(Config{Workers: 2, QueueDepth: 8})
	defer m.Shutdown(context.Background())

	st, deduped, err := m.Submit(Request{Model: "h2", Spec: "jw"})
	if err != nil || deduped {
		t.Fatalf("submit: err=%v deduped=%v", err, deduped)
	}
	if st.State != StateQueued || st.ID == "" {
		t.Fatalf("fresh job status = %+v", st)
	}
	fin, err := m.Wait(context.Background(), st.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("wait: %+v err=%v", fin, err)
	}
	res, err := m.Result(st.ID)
	if err != nil || res == nil || res.Mapping == nil || res.Method != "jw" {
		t.Fatalf("result: %+v err=%v", res, err)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Shutdown(context.Background())
	if _, _, err := m.Submit(Request{Model: "h2", Spec: "no-such-method"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, _, err := m.Submit(Request{Model: "no-such-model"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, _, err := m.Submit(Request{}); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := m.Status("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job: %v, want ErrNotFound", err)
	}
}

func TestDeduplicationOfInflightJobs(t *testing.T) {
	b := newBlocking(t)
	m := New(Config{Workers: 2, QueueDepth: 8})
	defer m.Shutdown(context.Background())

	first, deduped, err := m.Submit(Request{Model: "h2", Spec: b.name})
	if err != nil || deduped {
		t.Fatalf("first submit: err=%v deduped=%v", err, deduped)
	}
	<-b.started // running now

	second, deduped, err := m.Submit(Request{Model: "h2", Spec: b.name})
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if !deduped || second.ID != first.ID {
		t.Fatalf("identical in-flight submit not deduplicated: %+v vs %+v", second, first)
	}
	if second.Attached != 1 {
		t.Fatalf("attached = %d, want 1", second.Attached)
	}

	// A different model is a different content address — no dedup.
	other, deduped, err := m.Submit(Request{Model: "hubbard:1x2", Spec: b.name})
	if err != nil || deduped || other.ID == first.ID {
		t.Fatalf("distinct problem deduplicated: %+v err=%v deduped=%v", other, err, deduped)
	}

	close(b.release)
	if st, err := m.Wait(context.Background(), first.ID); err != nil || st.State != StateDone {
		t.Fatalf("wait first: %+v err=%v", st, err)
	}

	// Once finished, the content address is free again: a new submission
	// is a fresh job (it will hit the store, but it is not attached).
	again, deduped, err := m.Submit(Request{Model: "h2", Spec: b.name})
	if err != nil || deduped || again.ID == first.ID {
		t.Fatalf("finished job still captured dedup: %+v err=%v deduped=%v", again, err, deduped)
	}
	if st, err := m.Wait(context.Background(), again.ID); err != nil || st.State != StateDone {
		t.Fatalf("wait again: %+v err=%v", st, err)
	}
}

func TestQueueBackpressure(t *testing.T) {
	b := newBlocking(t)
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer func() {
		close(b.release)
		m.Shutdown(context.Background())
	}()

	running, _, err := m.Submit(Request{Model: "h2", Spec: b.name})
	if err != nil {
		t.Fatal(err)
	}
	<-b.started
	// Distinct problems so dedup cannot absorb them.
	if _, _, err := m.Submit(Request{Model: "hubbard:1x2", Spec: b.name}); err != nil {
		t.Fatalf("queue slot submit: %v", err)
	}
	// With QueueDepth 1 the shed depth coincides with hard-full, so the
	// refusal is the graceful ErrOverloaded (both map to 429).
	_, _, err = m.Submit(Request{Model: "hubbard:1x3", Spec: b.name})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overfull submit: %v, want ErrOverloaded", err)
	}
	_ = running
}

func TestShedBeforeHardFull(t *testing.T) {
	b := newBlocking(t)
	m := New(Config{Workers: 1, QueueDepth: 8, ShedDepth: 2})
	defer func() {
		close(b.release)
		m.Shutdown(context.Background())
	}()

	if _, _, err := m.Submit(Request{Model: "h2", Spec: b.name}); err != nil {
		t.Fatal(err)
	}
	<-b.started
	// Two jobs fit under the shed depth; distinct problems defeat dedup.
	for _, model := range []string{"hubbard:1x2", "hubbard:1x3"} {
		if _, _, err := m.Submit(Request{Model: model, Spec: b.name}); err != nil {
			t.Fatalf("submit %s under shed depth: %v", model, err)
		}
	}
	// The queue still has six free slots, but the shed depth refuses
	// net-new work here — before the cliff.
	if _, _, err := m.Submit(Request{Model: "hubbard:2x2", Spec: b.name}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("beyond shed depth: %v, want ErrOverloaded", err)
	}
	if pending, capacity := m.QueueDepth(); pending >= capacity {
		t.Fatalf("shed only fired at hard-full: %d/%d", pending, capacity)
	}
	// Deduplicated attaches are always admitted, even while shedding.
	if _, deduped, err := m.Submit(Request{Model: "hubbard:1x2", Spec: b.name}); err != nil || !deduped {
		t.Fatalf("dedup attach while shedding: deduped=%v err=%v", deduped, err)
	}
}

func TestCancelRunningAndQueued(t *testing.T) {
	b := newBlocking(t)
	m := New(Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())

	run, _, err := m.Submit(Request{Model: "h2", Spec: b.name})
	if err != nil {
		t.Fatal(err)
	}
	<-b.started
	queued, _, err := m.Submit(Request{Model: "hubbard:1x2", Spec: b.name})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job first: its state flips immediately, the
	// running job is untouched.
	if st, err := m.Cancel(queued.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: %+v err=%v", st, err)
	}
	if st, _ := m.Status(run.ID); st.State != StateRunning {
		t.Fatalf("running job disturbed by neighbor cancel: %+v", st)
	}

	// Cancel the running job: its blocked Compile sees ctx.Done.
	if _, err := m.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	st, err := m.Wait(context.Background(), run.ID)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("wait canceled: %+v err=%v", st, err)
	}
	if _, err := m.Result(run.ID); err == nil {
		t.Fatal("canceled job yielded a result")
	}

	// Progress snapshot captured before the block is still visible.
	if st.Progress.BestWeight != 41 || st.Progress.Stage != compiler.StageSearch {
		t.Fatalf("progress snapshot lost: %+v", st.Progress)
	}
}

func TestCanceledJobDoesNotCaptureDedup(t *testing.T) {
	// A canceled job must leave the dedup index immediately: identical
	// submissions arriving after the cancel get a fresh job, not a
	// doomed attachment.
	b := newBlocking(t)
	m := New(Config{Workers: 1, QueueDepth: 4})
	defer func() {
		close(b.release)
		m.Shutdown(context.Background())
	}()

	// Occupy the only worker so the target job stays queued.
	if _, _, err := m.Submit(Request{Model: "hubbard:1x2", Spec: b.name}); err != nil {
		t.Fatal(err)
	}
	<-b.started
	target, _, err := m.Submit(Request{Model: "h2", Spec: b.name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(target.ID); err != nil {
		t.Fatal(err)
	}
	fresh, deduped, err := m.Submit(Request{Model: "h2", Spec: b.name})
	if err != nil {
		t.Fatal(err)
	}
	if deduped || fresh.ID == target.ID {
		t.Fatalf("submission after cancel attached to the canceled job: %+v (canceled %s)", fresh, target.ID)
	}
	if fresh.State == StateCanceled {
		t.Fatalf("fresh job born canceled: %+v", fresh)
	}
}

func TestAsyncJobTimeout(t *testing.T) {
	// Request.Timeout bounds the job once it runs; expiry is a failure,
	// not a cancellation (nobody canceled it).
	b := newBlocking(t)
	m := New(Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())

	st, _, err := m.Submit(Request{Model: "h2", Spec: b.name, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("timed-out job = %+v, want failed with a deadline error", fin)
	}
}

func TestMaxJobTimeCapsEveryJob(t *testing.T) {
	// The server-side ceiling applies even when the client asked for no
	// timeout (or a longer one): a job can never pin a worker forever.
	b := newBlocking(t)
	m := New(Config{Workers: 1, QueueDepth: 4, MaxJobTime: 30 * time.Millisecond})
	defer m.Shutdown(context.Background())

	for name, req := range map[string]Request{
		"no client timeout":     {Model: "h2", Spec: b.name},
		"longer client timeout": {Model: "hubbard:1x2", Spec: b.name, Timeout: time.Hour},
	} {
		st, _, err := m.Submit(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fin, err := m.Wait(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != StateFailed || !strings.Contains(fin.Error, "deadline") {
			t.Fatalf("%s: job = %+v, want failed on the server ceiling", name, fin)
		}
	}
}

func TestShutdownDrains(t *testing.T) {
	m := New(Config{Workers: 2, QueueDepth: 8})
	var ids []string
	for _, model := range []string{"h2", "hubbard:1x2", "hubbard:1x3"} {
		st, _, err := m.Submit(Request{Model: model, Spec: "jw"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, err := m.Status(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %s after drain: %+v err=%v", id, st, err)
		}
	}
	if _, _, err := m.Submit(Request{Model: "h2", Spec: "jw"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown submit: %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownDeadlineCancelsStuckJobs(t *testing.T) {
	b := newBlocking(t)
	m := New(Config{Workers: 1, QueueDepth: 4})
	st, _, err := m.Submit(Request{Model: "h2", Spec: b.name})
	if err != nil {
		t.Fatal(err)
	}
	<-b.started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v, want DeadlineExceeded", err)
	}
	fin, err := m.Status(st.ID)
	if err != nil || fin.State != StateCanceled {
		t.Fatalf("stuck job after forced shutdown: %+v err=%v", fin, err)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	m := New(Config{Workers: 4, QueueDepth: 64})
	defer m.Shutdown(context.Background())
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				st, _, err := m.Submit(Request{Model: "h2", Spec: "jw"})
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				if _, err := m.Wait(context.Background(), st.ID); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
