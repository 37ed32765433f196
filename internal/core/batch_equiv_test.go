package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// degradePlan is the equivalence matrix's faulted plant: 10% of TEG modules
// degraded to half output, plus transient step errors exercising the batch
// path's retry handling.
func degradePlan() *fault.Plan {
	return &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.TEGDegrade, Rate: 0.10, Severity: 0.5},
		{Kind: fault.StepError, Rate: 0.02},
	}}
}

// perCirculationRun is the engine-level referee: it steps every circulation
// alone, in index order, through its own one-circulation ShardRunner — so
// each decision is a single-group batch call and a decide failure under a
// fault plan retries that circulation alone — then merges each interval
// with MergeInterval and folds it with NewAggregator, outside the pipelined
// run loop. A failing step surfaces with the run loop's message.
func perCirculationRun(cfg Config, src trace.Source, keepSeries bool) (*Result, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	meta := src.Meta()
	runners := make([]*ShardRunner, cfg.Circulations(meta.Servers))
	for ci := range runners {
		if runners[ci], err = eng.NewShardRunner(meta.Servers, ci, ci+1); err != nil {
			return nil, err
		}
	}
	agg := NewAggregator(meta, cfg, keepSeries)
	col := make([]float64, meta.Servers)
	parts := make([]CirculationInterval, len(runners))
	errs := make([]error, len(runners))
	for i := 0; i < meta.Intervals; i++ {
		if _, err := src.NextColumn(col); err != nil {
			return nil, err
		}
		for ci, r := range runners {
			r.Step(col, i, parts[ci:ci+1], errs[ci:ci+1])
			if errs[ci] != nil {
				return nil, fmt.Errorf("interval %d circulation %d: %w", i, ci, errs[ci])
			}
		}
		agg.Fold(MergeInterval(col, parts))
	}
	return agg.Finalize(), nil
}

// perCirculationTraceRun is perCirculationRun over a materialized trace with
// the series retained, the shape Engine.Run returns.
func perCirculationTraceRun(t *testing.T, cfg Config, tr *trace.Trace) *Result {
	t.Helper()
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := perCirculationRun(cfg, src, true)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBatchMatchesSerialEngine is the acceptance pin at the engine layer:
// for every trace class, scheme, worker count and fault plan, the run loop —
// whole ranges through one batched column call — must reproduce the
// per-circulation referee bit for bit: every summary metric and every
// IntervalResult. make kernel-check runs it under -race.
func TestBatchMatchesSerialEngine(t *testing.T) {
	const servers, seed = 60, 31
	plans := []*fault.Plan{nil, degradePlan()}
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		tr, err := trace.Generate(gcfg, genSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range streamEquivSchemes {
			for _, workers := range streamEquivWorkers {
				for p, plan := range plans {
					cfg := smallConfig(scheme)
					cfg.Workers = workers
					cfg.Faults = plan
					cfg.FaultSeed = 77

					want := perCirculationTraceRun(t, cfg, tr)
					batchEng, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := batchEng.Run(tr)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s/%s workers=%d plan=%d: batch result differs from the per-circulation referee",
							gcfg.Class, scheme, workers, p)
					}
				}
			}
		}
	}
}

// TestBatchMatchesSerialQuantized extends the engine pin to a quantized
// decision cache, where the batch key dedup actually collapses groups.
func TestBatchMatchesSerialQuantized(t *testing.T) {
	const servers, seed = 60, 13
	gcfg := trace.CommonConfig(servers)
	tr, err := trace.Generate(gcfg, trace.CanonicalSeed(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range streamEquivSchemes {
		cfg := smallConfig(scheme)
		cfg.Workers = 4
		cfg.DecisionQuantum = 1.0 / 512

		want := perCirculationTraceRun(t, cfg, tr)
		batchEng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batchEng.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s quantized: batch result differs from the per-circulation referee", scheme)
		}
	}
}

// poisonedSource wraps a valid generator source but overwrites one server's
// utilization in one interval with an out-of-range value — trace-level
// validation never sees it, so the failure reaches the decide path exactly
// where the equivalence matters.
type poisonedSource struct {
	trace.Source
	interval, server int
	value            float64
}

func (p *poisonedSource) NextColumn(dst []float64) (int, error) {
	got, err := p.Source.NextColumn(dst)
	if err == nil && got == p.interval {
		dst[p.server] = p.value
	}
	return got, err
}

// TestBatchDecideErrorMatchesSerial checks the no-injector decide-failure
// path: a poisoned column must surface the same lowest-circulation error,
// with the same message, from the run loop and from the per-circulation
// referee.
func TestBatchDecideErrorMatchesSerial(t *testing.T) {
	const servers = 60
	gcfg := trace.CommonConfig(servers)
	poisoned := func() trace.Source {
		src, err := trace.NewGeneratorSource(gcfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Utilization above 1 fails Choose's validation in circulation 1
		// (servers 20-39).
		return &poisonedSource{Source: src, interval: 5, server: 25, value: 1.75}
	}
	for _, workers := range streamEquivWorkers {
		cfg := smallConfig(sched.Original)
		cfg.Workers = workers

		_, refErr := perCirculationRun(cfg, poisoned(), false)
		if refErr == nil {
			t.Fatal("per-circulation referee accepted a poisoned column")
		}
		batchEng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, batchErr := batchEng.RunSource(poisoned(), nil)
		if batchErr == nil {
			t.Fatal("batch engine accepted a poisoned column")
		}
		if refErr.Error() != batchErr.Error() {
			t.Errorf("workers=%d: batch error %q != per-circulation %q", workers, batchErr, refErr)
		}
	}
}

// TestBatchDecideErrorDegradesUnderInjector checks the injector-active
// decide-failure fallback: when the batch decision fails for a block under
// an active fault plan, the block re-runs each circulation's own Step, so
// the poisoned circulation degrades (exactly as when it is stepped alone)
// instead of aborting the run.
func TestBatchDecideErrorDegradesUnderInjector(t *testing.T) {
	const servers = 60
	gcfg := trace.CommonConfig(servers)
	poisoned := func() trace.Source {
		src, err := trace.NewGeneratorSource(gcfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		return &poisonedSource{Source: src, interval: 3, server: 25, value: 1.75}
	}
	// At Workers 1 the poisoned circulation shares its block with two
	// healthy ones, which must re-step rather than degrade with it.
	for _, workers := range streamEquivWorkers {
		cfg := smallConfig(sched.Original)
		cfg.Workers = workers
		cfg.Faults = &fault.Plan{Specs: []fault.Spec{{Kind: fault.TEGDegrade, Rate: 0.05, Severity: 0.5}}}
		cfg.FaultSeed = 5

		want, err := perCirculationRun(cfg, poisoned(), false)
		if err != nil {
			t.Fatalf("workers=%d: per-circulation referee errored instead of degrading: %v", workers, err)
		}
		batchEng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batchEng.RunSource(poisoned(), nil)
		if err != nil {
			t.Fatalf("workers=%d: batch faulted engine errored instead of degrading: %v", workers, err)
		}
		if want.Faults.DegradedIntervals == 0 {
			t.Fatal("poisoned circulation did not degrade in the per-circulation referee")
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: batch faulted result differs from the per-circulation referee", workers)
		}
	}
}
