// Package par is the one bulk fan-out of the batch paths: HTML
// rendering and page conversion, index bulk-loading, content hashing,
// training-data annotation and feature extraction, and event
// extraction all spread index-addressed work across a bounded worker
// pool through For.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) exactly once for every i in [0, n) across at most
// workers goroutines and returns once every call has finished.
// workers <= 0 means GOMAXPROCS. With one worker fn runs inline on the
// caller's goroutine, in index order. fn must only touch state owned by
// its own index.
func For(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
