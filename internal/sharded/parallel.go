// The one worker pool of the sharded containers: the codec's per-shard
// marshal and decode run through fanout. It is the only place in the
// library that starts a goroutine.
package sharded

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// fanout runs fn(0 … n−1) on a worker pool of min(workers, GOMAXPROCS,
// n) goroutines; workers ≤ 0 means GOMAXPROCS. The calling goroutine is
// one of the workers, the others pull indices from a shared atomic
// cursor, and a deferred Wait joins them on every path out, a panic
// included. With more than one worker every index runs exactly once (a
// failed shard does not cancel its siblings — each holds its own lock
// for a bounded, small amount of work) and the error at the lowest
// index wins, so the result is deterministic regardless of scheduling.
// A lone worker runs the indices in order and stops at the first
// error, which is the same error.
func fanout(n, workers int, fn func(i int) error) (err error) {
	if n <= 0 {
		return nil
	}
	w := runtime.GOMAXPROCS(0)
	if workers > 0 && workers < w {
		w = workers
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	defer func() {
		for _, e := range errs {
			if e != nil {
				err = e
				return
			}
		}
	}()
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait() // deferred last, so it runs before the scan above
	wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	return nil
}
