package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
)

// TestSerialParallelEquivalence is the determinism guarantee of the layered
// engine: the same trace under Workers = 1 and Workers = 8 must produce
// bit-identical Results — every summary metric and every IntervalResult —
// under both schemes, for all three synthetic workload classes.
func TestSerialParallelEquivalence(t *testing.T) {
	traces, err := trace.GenerateAll(60, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		for _, scheme := range []sched.Scheme{sched.Original, sched.LoadBalance} {
			cfg := smallConfig(scheme)

			cfg.Workers = 1
			serialEng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := serialEng.Run(tr)
			if err != nil {
				t.Fatal(err)
			}

			cfg.Workers = 8
			parallelEng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := parallelEng.Run(tr)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("%s/%s: Workers=1 and Workers=8 results differ", tr.Class, scheme)
			}
		}
	}
}

// TestHighEntropyParallelEquivalence stresses the zero-allocation decision
// path where it is least cache-friendly: a hand-built trace in which every
// server/interval utilization is a distinct value (a deterministic LCG, so
// nearly every Choose is a miss), split into many small circulations and
// stepped by 16 workers. The parallel run must reproduce the serial run
// bit-for-bit; under -race (make check) this also proves the lock-free cache
// and sharded counters are data-race-free while shared across workers.
func TestHighEntropyParallelEquivalence(t *testing.T) {
	const servers, intervals = 96, 40
	tr, err := trace.New("high-entropy", trace.Drastic, servers, intervals, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(0x9E3779B97F4A7C15)
	for s := 0; s < servers; s++ {
		for i := 0; i < intervals; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			tr.U[s][i] = float64(state>>11) / float64(1<<53)
		}
	}
	for _, scheme := range []sched.Scheme{sched.Original, sched.LoadBalance} {
		cfg := smallConfig(scheme)
		cfg.ServersPerCirculation = 6 // 16 circulations: more than the worker pool

		cfg.Workers = 1
		se, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := se.Run(tr)
		if err != nil {
			t.Fatal(err)
		}

		cfg.Workers = 16
		pe, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := pe.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: Workers=1 and Workers=16 diverge on the high-entropy trace", scheme)
		}
	}
}

// TestQuantizedCacheKeepsEquivalence repeats the equivalence check with the
// decision cache quantized: quantization perturbs the results relative to
// the exact controller, but serial and parallel runs must still agree
// bit-for-bit with each other.
func TestQuantizedCacheKeepsEquivalence(t *testing.T) {
	tr, err := trace.Generate(trace.DrasticConfig(50), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(sched.LoadBalance)
	cfg.DecisionQuantum = 1.0 / 512

	cfg.Workers = 1
	se, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := se.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Workers = 8
	pe, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := pe.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("quantized cache broke serial/parallel equivalence")
	}
	hits, calls := pe.Controller().CacheStats()
	if calls == 0 || hits == 0 {
		t.Errorf("quantized cache never hit: %d hits of %d calls", hits, calls)
	}
}

// TestRunContextCancellation verifies RunContext aborts promptly once its
// context is cancelled, both when cancelled up front and mid-run.
func TestRunContextCancellation(t *testing.T) {
	// Large enough that the run cannot finish inside the millisecond timeout
	// below, even on the batched decide path.
	tr, err := trace.Generate(trace.CommonConfig(5000), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(smallConfig(sched.LoadBalance))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := eng.RunContext(ctx, tr); err != context.Canceled {
		t.Errorf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pre-cancelled run took %v, want prompt return", d)
	}

	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := eng.RunContext(ctx, tr); err == nil {
		t.Error("mid-run cancellation: expected an error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("mid-run cancellation took %v, want prompt return", d)
	}
}

// TestFleetCompareMatchesEngines pins the Fleet layer to the ground truth:
// concurrent scheme runs over a shared look-up space must reproduce two
// standalone serial engines bit-for-bit.
func TestFleetCompareMatchesEngines(t *testing.T) {
	tr, err := trace.Generate(trace.IrregularConfig(50), 13)
	if err != nil {
		t.Fatal(err)
	}
	base := smallConfig(sched.Original)
	orig, lb, err := NewFleet().CompareContext(context.Background(), tr, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, want := range []struct {
		scheme sched.Scheme
		got    *Result
	}{
		{sched.Original, orig},
		{sched.LoadBalance, lb},
	} {
		cfg := base
		cfg.Scheme = want.scheme
		cfg.Workers = 1
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := eng.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, want.got) {
			t.Errorf("%s: fleet result differs from standalone serial engine", want.scheme)
		}
	}
}

// TestFleetSharesSpaces verifies the space memoization: identical spec+axes
// yield the same *lookup.Space, different axes a fresh one.
func TestFleetSharesSpaces(t *testing.T) {
	f := NewFleet()
	cfg := DefaultConfig(sched.Original)
	a, err := f.Space(cfg.Spec, cfg.Axes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Space(cfg.Spec, cfg.Axes)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical spec+axes should share one space")
	}
	other := cfg.Axes
	other.Utilization = append([]float64(nil), other.Utilization...)
	other.Utilization[1] += 0.001
	c, err := f.Space(cfg.Spec, other)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different axes must not share a space")
	}
}

// TestFleetEvaluateContextOrder checks EvaluateContext returns results in
// trace order with matching metadata.
func TestFleetEvaluateContextOrder(t *testing.T) {
	traces, err := trace.GenerateAll(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	origs, lbs, err := NewFleet().EvaluateContext(context.Background(), traces, smallConfig(sched.Original))
	if err != nil {
		t.Fatal(err)
	}
	if len(origs) != len(traces) || len(lbs) != len(traces) {
		t.Fatalf("got %d/%d results for %d traces", len(origs), len(lbs), len(traces))
	}
	for i, tr := range traces {
		if origs[i].TraceName != tr.Name || lbs[i].TraceName != tr.Name {
			t.Errorf("trace %d: result order scrambled", i)
		}
		if origs[i].Scheme != sched.Original || lbs[i].Scheme != sched.LoadBalance {
			t.Errorf("trace %d: schemes scrambled", i)
		}
	}
}

// TestZeroServerTraceRejected is the degenerate-trace guard: a trace with
// no servers must surface a validation error, never NaN-poisoned results.
func TestZeroServerTraceRejected(t *testing.T) {
	eng, err := NewEngine(smallConfig(sched.Original))
	if err != nil {
		t.Fatal(err)
	}
	empty := &trace.Trace{Name: "empty", Class: trace.Common, Interval: 5 * time.Minute}
	res, err := eng.Run(empty)
	if err == nil {
		t.Fatalf("zero-server trace must error, got result %+v", res)
	}
}

// TestWorkersValidation rejects a negative worker count.
func TestWorkersValidation(t *testing.T) {
	cfg := DefaultConfig(sched.Original)
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Workers should fail validation")
	}
	cfg = DefaultConfig(sched.Original)
	cfg.DecisionQuantum = -0.1
	if err := cfg.Validate(); err == nil {
		t.Error("negative DecisionQuantum should fail validation")
	}
}

// cacheStatsObserver keeps the decision-cache reader the run loop attaches.
type cacheStatsObserver struct{ stats func() (hits, calls uint64) }

func (o *cacheStatsObserver) AttachCacheStats(stats func() (hits, calls uint64)) { o.stats = stats }
func (o *cacheStatsObserver) ObserveInterval(int, IntervalResult)                {}
func (o *cacheStatsObserver) ObserveCheckpoint(int)                              {}
func (o *cacheStatsObserver) ObserveResume(int)                                  {}
func (o *cacheStatsObserver) ObserveHalt(int)                                    {}

// TestParallelCacheCallsEqualDecisions pins the cache accounting of a
// parallel run: at Workers 4 the ranges share one controller, so its
// counters — read through the observer and, with telemetry, through the
// registry — report exactly one call per decision.
func TestParallelCacheCallsEqualDecisions(t *testing.T) {
	const servers, intervals = 100, 48
	g := trace.CommonConfig(servers)
	g.Horizon = intervals * g.Interval
	for _, withTelemetry := range []bool{false, true} {
		cfg := DefaultConfig(sched.LoadBalance)
		cfg.Workers = 4
		if withTelemetry {
			cfg.Telemetry = telemetry.New()
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewGeneratorSource(g, 5)
		if err != nil {
			t.Fatal(err)
		}
		obs := &cacheStatsObserver{}
		if _, err := eng.RunSource(src, &RunOptions{Observer: obs}); err != nil {
			t.Fatal(err)
		}
		decisions := uint64(cfg.Circulations(servers) * intervals)
		if _, calls := obs.stats(); calls != decisions {
			t.Errorf("telemetry=%v: observer reads %d cache calls for %d decisions", withTelemetry, calls, decisions)
		}
		if withTelemetry {
			if calls := cfg.Telemetry.Counter("h2p_decision_cache_calls_total", "").Value(); calls != decisions {
				t.Errorf("registry reads %d cache calls for %d decisions", calls, decisions)
			}
		}
	}
}
