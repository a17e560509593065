package sharded

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanoutContract pins the worker pool's runtime contract, the half
// of the fan-out discipline that quantlint's SQ015 can only check by
// shape: the lowest failing index's error wins, every index runs
// exactly once, no more than min(workers, GOMAXPROCS, n) calls are ever
// in flight, and every worker has been joined by the time fanout
// returns.
func TestFanoutContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	errs := map[int]error{5: errors.New("index 5"), 40: errors.New("index 40")}
	for _, tc := range []struct{ n, workers, width int }{
		{64, 0, 4},
		{64, 2, 2},
		{64, 3, 3},
		{64, 100, 4},
		{3, 0, 3},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", tc.n, tc.workers), func(t *testing.T) {
			before := settledGoroutines(t)
			runs := make([]atomic.Int32, tc.n)
			var inFlight, peak atomic.Int32
			err := fanout(tc.n, tc.workers, func(i int) error {
				cur := inFlight.Add(1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				time.Sleep(200 * time.Microsecond)
				runs[i].Add(1)
				inFlight.Add(-1)
				return errs[i]
			})
			if f := inFlight.Load(); f != 0 {
				t.Fatalf("%d calls still in flight after fanout returned", f)
			}
			// A joined worker has called Done but may not have exited
			// yet, so the goroutine count gets a moment to settle.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() != before; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after fanout returned, %d before", runtime.NumGoroutine(), before)
				}
			}
			want := errs[5]
			if tc.n <= 5 {
				want = nil
			}
			if err != want {
				t.Fatalf("err = %v, want the lowest failing index's %v", err, want)
			}
			for i := range runs {
				if r := runs[i].Load(); r != 1 {
					t.Fatalf("index %d ran %d times, want once", i, r)
				}
			}
			if p := peak.Load(); p > int32(tc.width) {
				t.Fatalf("%d calls in flight at once, want at most %d", p, tc.width)
			}
		})
	}
}

// settledGoroutines returns the goroutine count once it has read the
// same over three 1-ms polls in a row. Goroutines of earlier tests and
// subtests can still be exiting when a subtest starts, and a count
// taken while one does would later read as a leak, or mask one.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline, same := time.Now().Add(time.Second), 0; same < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count did not settle within 1s (now %d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}
