package core

import (
	"runtime"
	"testing"
)

// TestPartitionLayout pins the partition invariants: ranges are contiguous,
// cover [0, n) exactly, never differ in size by more than one, and clamp to
// the circulation count so no range is ever empty.
func TestPartitionLayout(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 12, 100, 1000} {
		for _, k := range []int{1, 2, 3, 4, 8, 16, n, n + 5} {
			spans := partition(n, k)
			if want := min(k, n); len(spans) != want {
				t.Fatalf("partition(%d, %d): %d ranges, want %d", n, k, len(spans), want)
			}
			lo, smallest, largest := 0, n+1, -1
			for _, sp := range spans {
				if sp.lo != lo || sp.hi <= sp.lo {
					t.Fatalf("partition(%d, %d): range %v not contiguous from %d", n, k, sp, lo)
				}
				lo = sp.hi
				smallest = min(smallest, sp.hi-sp.lo)
				largest = max(largest, sp.hi-sp.lo)
			}
			if lo != n {
				t.Fatalf("partition(%d, %d): covers [0,%d), want [0,%d)", n, k, lo, n)
			}
			if largest-smallest > 1 {
				t.Fatalf("partition(%d, %d): range sizes span [%d,%d]", n, k, smallest, largest)
			}
		}
	}
}

// TestPartitionResolvesZero pins that a non-positive parallelism resolves to
// all CPUs through ResolveParallelism, the rule Config.Workers follows.
func TestPartitionResolvesZero(t *testing.T) {
	n := runtime.GOMAXPROCS(0) * 3
	for _, k := range []int{0, -1} {
		if got := len(partition(n, k)); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("partition(%d, %d): %d ranges, want GOMAXPROCS=%d", n, k, got, runtime.GOMAXPROCS(0))
		}
	}
	if partition(0, 4) != nil {
		t.Fatal("partition(0, 4) should be nil")
	}
}
