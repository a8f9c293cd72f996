// Package a is the locksafe analysistest fixture.
package a

import (
	"context"
	"sync"

	"repro/internal/parallel"
)

type Q struct {
	mu sync.Mutex
	ch chan int
}

func (q *Q) BadSend(v int) {
	q.mu.Lock()
	q.ch <- v // want `channel send while q.mu is held in BadSend`
	q.mu.Unlock()
}

// GoodSend releases before the blocking operation.
func (q *Q) GoodSend(v int) {
	q.mu.Lock()
	q.mu.Unlock()
	q.ch <- v
}

func (q *Q) DeferSend(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ch <- v // want `channel send while q.mu is held in DeferSend`
}

// TrySend is the blessed backpressure idiom: a non-blocking send under
// the lock via select-with-default.
func (q *Q) TrySend(v int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case q.ch <- v:
		return true
	default:
		return false
	}
}

func (q *Q) BadRecv() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return <-q.ch // want `channel receive while q.mu is held in BadRecv`
}

func (q *Q) BadSelect() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // want `blocking select while q.mu is held in BadSelect`
	case v := <-q.ch:
		return v
	}
}

func (q *Q) BadWait(wg *sync.WaitGroup) {
	q.mu.Lock()
	defer q.mu.Unlock()
	wg.Wait() // want `sync Wait while q.mu is held in BadWait`
}

func (q *Q) BadFanout(ctx context.Context) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return parallel.ForEach(ctx, 8, 2, func(i int) error { return nil }) // want `call into internal/parallel while q.mu is held in BadFanout`
}

// CondLocked locks only inside a branch; the state does not leak out.
func (q *Q) CondLocked(b bool) {
	if b {
		q.mu.Lock()
		q.mu.Unlock()
	}
	q.ch <- 0
}

// SpawnUnderLock launches a goroutine under the lock; the goroutine
// body runs without it.
func (q *Q) SpawnUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	go func() {
		q.ch <- 1
	}()
}
