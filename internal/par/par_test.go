package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCallsEveryIndexOnce(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, 1, 10_000} {
		for _, workers := range []int{-1, 0, 1, 3, n + 5} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				calls := make([]atomic.Int32, n)
				For(workers, n, func(i int) { calls[i].Add(1) })
				for i := range calls {
					if got := calls[i].Load(); got != 1 {
						t.Fatalf("index %d called %d times, want 1 (GOMAXPROCS=%d)", i, got, procs)
					}
				}
			})
		}
	}
}

func TestForOneWorkerRunsInOrder(t *testing.T) {
	const n = 1000
	var order []int
	For(1, n, func(i int) { order = append(order, i) })
	if len(order) != n {
		t.Fatalf("%d calls, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d ran index %d; one worker must run in index order", i, got)
		}
	}
}

func TestForSpreadsAcrossWorkers(t *testing.T) {
	// Every worker blocks until all of them have started, so For can
	// only return if it really runs `workers` calls at once.
	const workers = 4
	started := make(chan struct{})
	var arrived atomic.Int32
	For(workers, workers, func(int) {
		if arrived.Add(1) == workers {
			close(started)
		}
		<-started
	})
}
