package shard

import (
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// The equivalence matrix: both schedulers, every power-of-two shard count the
// acceptance pin names, and a shard count past the circulation count (clamps).
var (
	equivSchemes = []sched.Scheme{sched.Original, sched.LoadBalance}
	equivShards  = []int{1, 2, 4, 8, 64}
)

// shardConfig is the test configuration: 5-server circulations so a 60-server
// trace forms 12 circulations — enough to give 8 shards distinct ranges.
func shardConfig(scheme sched.Scheme) core.Config {
	cfg := core.DefaultConfig(scheme)
	cfg.ServersPerCirculation = 5
	return cfg
}

// unshardedRun is the referee: the engine over the same generator source,
// stepping every circulation as one range.
func unshardedRun(t *testing.T, cfg core.Config, gcfg trace.GeneratorConfig, seed int64, opts *core.RunOptions) *core.Result {
	t.Helper()
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSource(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// shardedRun runs the same source through the sharded pipeline.
func shardedRun(t *testing.T, cfg core.Config, gcfg trace.GeneratorConfig, seed int64, opts *Options) *core.Result {
	t.Helper()
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSource(cfg, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedMatchesUnsharded is the tentpole acceptance pin: for every
// synthetic workload class, both schemes and every shard count, the sharded
// pipeline must reproduce the unsharded engine bit for bit — every summary
// metric and every IntervalResult. Under -race (make shard-check) it also
// proves the decoder/shards/merger pipeline shares no unsynchronized state.
func TestShardedMatchesUnsharded(t *testing.T) {
	const servers, seed = 60, 11
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		for _, scheme := range equivSchemes {
			cfg := shardConfig(scheme)
			want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
			for _, shards := range equivShards {
				got := shardedRun(t, cfg, gcfg, genSeed, &Options{Shards: shards, KeepSeries: true})
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s shards=%d: sharded result differs from unsharded",
						gcfg.Class, scheme, shards)
				}
			}

			// The bounded default (no retained series) must agree on every
			// summary aggregate.
			bounded := shardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 4})
			if len(bounded.Intervals) != 0 {
				t.Fatalf("%s/%s: bounded sharded run retained %d intervals",
					gcfg.Class, scheme, len(bounded.Intervals))
			}
			summary := *want
			summary.Intervals = nil
			if !reflect.DeepEqual(&summary, bounded) {
				t.Errorf("%s/%s: bounded sharded summary differs from unsharded", gcfg.Class, scheme)
			}
		}
	}
}

// TestShardedMatchesUnshardedWithFaults extends the pin to a faulted plant
// covering every fault kind. Fault activation is a pure function of
// (seed, stream, unit, interval) and shards keep global circulation and
// server indices, so the faulted sharded run — including the FaultSummary
// and the step-retry path — must match the unsharded one exactly.
func TestShardedMatchesUnshardedWithFaults(t *testing.T) {
	const servers, seed = 60, 7
	plan := &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.TEGDegrade, Rate: 0.10, Severity: 0.5},
		{Kind: fault.TEGOpen, Rate: 0.02},
		{Kind: fault.SensorStuck, Rate: 0.05},
		{Kind: fault.PumpDroop, Rate: 0.05, Severity: 0.3},
		{Kind: fault.StepError, Rate: 0.02},
	}}
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		for _, scheme := range equivSchemes {
			cfg := shardConfig(scheme)
			cfg.Faults = plan
			cfg.FaultSeed = 99
			want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
			for _, shards := range equivShards {
				got := shardedRun(t, cfg, gcfg, genSeed, &Options{Shards: shards, KeepSeries: true})
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s shards=%d faulted: sharded result differs from unsharded",
						gcfg.Class, scheme, shards)
				}
			}
		}
	}
}

// perCirculationRun is the referee of the decide path: every circulation
// stepped alone, in index order, through its own one-circulation
// core.ShardRunner (so each decision is a single-group batch call), merged
// with core.MergeInterval and folded with core.NewAggregator — no run loop,
// no range batching.
func perCirculationRun(t *testing.T, cfg core.Config, gcfg trace.GeneratorConfig, seed int64) *core.Result {
	t.Helper()
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := src.Meta()
	runners := make([]*core.ShardRunner, cfg.Circulations(meta.Servers))
	for ci := range runners {
		if runners[ci], err = eng.NewShardRunner(meta.Servers, ci, ci+1); err != nil {
			t.Fatal(err)
		}
	}
	agg := core.NewAggregator(meta, cfg, true)
	col := make([]float64, meta.Servers)
	parts := make([]core.CirculationInterval, len(runners))
	errs := make([]error, len(runners))
	for i := 0; i < meta.Intervals; i++ {
		if _, err := src.NextColumn(col); err != nil {
			t.Fatal(err)
		}
		for ci, r := range runners {
			r.Step(col, i, parts[ci:ci+1], errs[ci:ci+1])
			if errs[ci] != nil {
				t.Fatalf("interval %d circulation %d: %v", i, ci, errs[ci])
			}
		}
		agg.Fold(core.MergeInterval(col, parts))
	}
	return agg.Finalize()
}

// TestShardedMatchesSerialDecidePath pins the sharded pipeline against the
// per-circulation referee, closing the loop:
// sharded+batched == unsharded+batched == each circulation decided alone.
func TestShardedMatchesSerialDecidePath(t *testing.T) {
	const servers, seed = 40, 3
	gcfg := trace.DrasticConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	for _, scheme := range equivSchemes {
		cfg := shardConfig(scheme)
		want := perCirculationRun(t, cfg, gcfg, genSeed)
		got := shardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 3, KeepSeries: true})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: sharded result differs from the per-circulation referee", scheme)
		}
	}
}

// TestPrefetchDepthsAndOrdering pins that OnInterval observes intervals
// strictly in order at every shard count, even while the decoder runs ahead
// of the merger and ranges finish out of order — the merger's reorder buffer
// is what the test exercises — and that the Result stays bit-identical.
func TestPrefetchDepthsAndOrdering(t *testing.T) {
	const servers, seed = 60, 17
	gcfg := trace.IrregularConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.LoadBalance)
	want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	intervals := int(gcfg.Horizon / gcfg.Interval)
	for _, shards := range []int{1, 2, 3, 4, 8} {
		var seen []int
		got := shardedRun(t, cfg, gcfg, genSeed, &Options{
			Shards:     shards,
			KeepSeries: true,
			OnInterval: func(i int, ir core.IntervalResult) { seen = append(seen, i) },
		})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("shards=%d: sharded result differs from unsharded", shards)
		}
		if len(seen) != intervals {
			t.Fatalf("shards=%d: OnInterval saw %d intervals, want %d", shards, len(seen), intervals)
		}
		for i, got := range seen {
			if got != i {
				t.Fatalf("shards=%d: OnInterval out of order at position %d: got interval %d", shards, i, got)
			}
		}
	}
}

// FuzzShardEquivalence lets the fuzzer pick the workload class, seeds, shape
// and shard count, and requires the sharded summary to match the
// unsharded engine exactly. The seed corpus covers each class and the
// clamping edge.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), uint8(1), uint8(5), false)
	f.Add(int64(2), uint8(1), uint8(4), uint8(2), uint8(7), true)
	f.Add(int64(3), uint8(2), uint8(9), uint8(3), uint8(3), false)
	// The fourth argument once chose a prefetch depth; the depth is now fixed
	// and the argument is kept so the corpus stays valid.
	f.Fuzz(func(t *testing.T, seed int64, classIdx, shards, _, spc uint8, faulted bool) {
		const servers = 30
		configs := trace.CanonicalConfigs(servers)
		gcfg := configs[int(classIdx)%len(configs)]
		// Short horizon: equivalence holds per interval, so a few are enough.
		gcfg.Horizon = 10 * gcfg.Interval
		cfg := shardConfig(sched.LoadBalance)
		cfg.ServersPerCirculation = 1 + int(spc)%10
		if faulted {
			cfg.Faults = &fault.Plan{Specs: []fault.Spec{
				{Kind: fault.TEGDegrade, Rate: 0.2, Severity: 0.4},
				{Kind: fault.SensorStuck, Rate: 0.1},
			}}
			cfg.FaultSeed = seed
		}

		want := unshardedRun(t, cfg, gcfg, seed, &core.RunOptions{KeepSeries: true})
		got := shardedRun(t, cfg, gcfg, seed, &Options{
			Shards:     1 + int(shards)%16,
			KeepSeries: true,
		})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("sharded result differs from unsharded (class=%s spc=%d shards=%d faulted=%v)",
				gcfg.Class, cfg.ServersPerCirculation, 1+int(shards)%16, faulted)
		}
	})
}
