package core

import "runtime"

// ParallelismFlagHelp is the shared CLI help suffix for -workers flags: every
// command resolves a zero through ResolveParallelism, so the documentation
// (and the behavior) cannot drift apart per command.
const ParallelismFlagHelp = "(0 = all CPUs, runtime.GOMAXPROCS)"

// ResolveParallelism resolves a parallelism value: n when positive,
// otherwise runtime.GOMAXPROCS(0). It is the single resolution rule shared by
// Config.Workers, the run server's workers/shards request fields and the
// CLIs' -workers flags, so "0" always means the same "all CPUs".
func ResolveParallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// span is a contiguous half-open circulation range [lo, hi) stepped by one
// pipeline worker.
type span struct{ lo, hi int }

// partition splits circulations [0, n) into ResolveParallelism(parallelism)
// contiguous ranges, as evenly as possible: every range gets n/k
// circulations and the first n%k ranges get one extra. A count above n
// clamps to n so no range is ever empty; partition(n, 1) is the single range
// [0, n).
func partition(n, parallelism int) []span {
	if n <= 0 {
		return nil
	}
	k := ResolveParallelism(parallelism)
	if k > n {
		k = n
	}
	base, extra := n/k, n%k
	spans := make([]span, k)
	lo := 0
	for s := range spans {
		size := base
		if s < extra {
			size++
		}
		spans[s] = span{lo: lo, hi: lo + size}
		lo += size
	}
	return spans
}
