// Package checkpoint trips all three shapes of SQ015: FanOut spawns
// one goroutine per input part with no runtime.GOMAXPROCS bound in
// sight, and Scatter both joins its worker with a trailing rather than
// a deferred Wait and throws its worker's error away inside the
// closure. FanOut's deferred join keeps the other findings from
// multiplying.
package checkpoint

import "sync"

// FanOut spawns per part, not per core: flagged (the join is fine).
func FanOut(parts []int) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
}

// Scatter leaks its worker on the empty-input path, having no deferred
// Wait, and drops the worker's error: two findings.
func Scatter(xs []int) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = work(xs)
	}()
	if len(xs) == 0 {
		return nil
	}
	wg.Wait()
	return nil
}

func work(xs []int) error {
	if len(xs) > 1024 {
		return nil
	}
	return nil
}
