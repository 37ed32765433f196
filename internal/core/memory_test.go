package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// measureRunAllocs runs the generator source through eng's streaming path
// (no retained series) and returns the number of heap allocations the run
// performed.
func measureRunAllocs(t *testing.T, eng *Engine, gcfg trace.GeneratorConfig, seed int64) uint64 {
	t.Helper()
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.RunSource(src, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStreamingSteadyStateAllocs pins the bounded-memory claim at the
// allocator level: on a warm serial engine, a streaming run's allocations
// come only from residual cache fills — they are bounded by the cache size,
// not proportional to the trace length. A 10x longer trace must therefore
// stay under the same constant ceiling, orders of magnitude below one
// allocation per interval. Both cache regimes are pinned: a 1/512 quantum
// bounds the distinct entries, and the exact quantum (the default), where
// nearly every plane is fresh, relies on the cache's entry cap — once full,
// the cache stops allocating.
func TestStreamingSteadyStateAllocs(t *testing.T) {
	for _, quantum := range []float64{1.0 / 512, 0} {
		cfg := smallConfig(sched.Original)
		cfg.Workers = 1
		cfg.DecisionQuantum = quantum
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if quantum == 0 {
			fillDecisionCache(t, eng.Controller())
		}
		g := trace.DrasticConfig(60)
		g.Horizon = 12 * time.Hour // 144 intervals

		// First run warms the decision cache and any lazily built engine state.
		measureRunAllocs(t, eng, g, 1011)
		short := measureRunAllocs(t, eng, g, 1011)

		g.Horizon = 120 * time.Hour // 1440 intervals: 10x longer
		long := measureRunAllocs(t, eng, g, 1011)

		// The quantized cache admits at most ~513 distinct plane keys, so even
		// a run that visits every plane cold stays under ~1024 allocations.
		// Seen empirically: short ~16, long ~190 — the bound leaves headroom
		// for allocator noise without ever tolerating per-interval growth
		// (1440 intervals would blow through it at 1 alloc/interval).
		const ceiling = 1024
		if short > ceiling || long > ceiling {
			t.Fatalf("quantum %v: warm streaming run allocations exceed constant ceiling: short=%d long=%d ceiling=%d",
				quantum, short, long, ceiling)
		}
		if perInterval := float64(long) / 1440; perInterval > 0.5 {
			t.Fatalf("quantum %v: long run allocates %.2f/interval; steady state must be amortized-free",
				quantum, perInterval)
		}
	}
}

// TestParallelRunAllocsFlat pins the parallel run loop's allocations to a
// per-run constant: at Workers 2 a warm engine allocates the same for a
// 4-day run as for a 1-day one — the range workers and the pipeline's slots
// are set up once per run, never per interval.
func TestParallelRunAllocsFlat(t *testing.T) {
	cfg := smallConfig(sched.Original)
	cfg.Workers = 2
	cfg.DecisionQuantum = 1.0 / 512
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := trace.DrasticConfig(60)
	g.Horizon = 4 * 24 * time.Hour
	measureRunAllocs(t, eng, g, 1011) // warms the cache over every plane
	long := measureRunAllocs(t, eng, g, 1011)
	g.Horizon = 24 * time.Hour
	short := measureRunAllocs(t, eng, g, 1011)
	// 864 more intervals: even one allocation per ten intervals would show.
	if long > short+64 {
		t.Fatalf("warm run allocations grow with the interval count: 1 day %d, 4 days %d", short, long)
	}
}

// TestStreamingWorkingSetBounded pins the O(servers) working-set claim: a
// streaming run over a trace whose full matrix would be tens of megabytes
// must retain only a small constant heap beyond its starting point, because
// no column outlives its interval. This is the regression guard against
// anything on the streaming path quietly re-materializing the matrix.
func TestStreamingWorkingSetBounded(t *testing.T) {
	const servers = 400
	g := trace.DrasticConfig(servers)
	g.Horizon = 240 * time.Hour // 2880 intervals: the matrix would be ~9.2 MB

	cfg := smallConfig(sched.Original)
	cfg.Workers = 4
	cfg.DecisionQuantum = 1.0 / 512
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewGeneratorSource(g, 7)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := eng.RunSource(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if res.Servers != servers || len(res.Intervals) != 0 {
		t.Fatalf("unexpected result shape: servers=%d retained intervals=%d", res.Servers, len(res.Intervals))
	}
	matrixBytes := uint64(servers) * 2880 * 8
	var retained uint64
	if after.HeapAlloc > before.HeapAlloc {
		retained = after.HeapAlloc - before.HeapAlloc
	}
	// The run may legitimately retain the engine's decision cache and the
	// result struct; a materialized matrix it may not. Keep the bound an
	// order of magnitude under the matrix.
	if retained > matrixBytes/10 {
		t.Fatalf("streaming run retained %d bytes (matrix would be %d); working set is not O(servers)",
			retained, matrixBytes)
	}
}
