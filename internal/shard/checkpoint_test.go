package shard

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// haltShardedRun runs the sharded pipeline to HaltAfter with a checkpoint
// sink and returns the last checkpoint written.
func haltShardedRun(t *testing.T, cfg core.Config, gcfg trace.GeneratorConfig, seed int64, opts *Options) *Checkpoint {
	t.Helper()
	var cp *Checkpoint
	opts.Checkpoint = &CheckpointOptions{Every: 20, Write: func(c *Checkpoint) error {
		cp = c
		return nil
	}}
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSource(cfg, src, opts); !errors.Is(err, core.ErrHalted) {
		t.Fatalf("halted sharded run: err = %v, want ErrHalted", err)
	}
	if cp == nil || cp.Merged.NextInterval != opts.HaltAfter {
		t.Fatalf("halted sharded run: checkpoint = %+v", cp)
	}
	return cp
}

// TestShardedResumeBitIdentical is the sharded kill/resume drill: a sharded
// run halted at an interval boundary and resumed from its checkpoint —
// round-tripped through JSON, as cmd/h2psim persists it — must produce the
// same Result, bit for bit, as both the uninterrupted sharded run and the
// unsharded engine. Halt points cover on- and off-cadence boundaries.
func TestShardedResumeBitIdentical(t *testing.T) {
	const servers, seed, shards = 60, 23, 4
	gcfg := trace.DrasticConfig(servers) // 144 intervals
	genSeed := trace.CanonicalSeed(seed, 0)
	for _, scheme := range equivSchemes {
		for _, keepSeries := range []bool{true, false} {
			for _, haltAfter := range []int{1, 50, 143} {
				cfg := shardConfig(scheme)
				want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: keepSeries})
				full := shardedRun(t, cfg, gcfg, genSeed, &Options{Shards: shards, KeepSeries: keepSeries})
				if !reflect.DeepEqual(want, full) {
					t.Fatalf("%s halt=%d: uninterrupted sharded run differs from unsharded", scheme, haltAfter)
				}

				cp := haltShardedRun(t, cfg, gcfg, genSeed, &Options{
					Shards: shards, KeepSeries: keepSeries, HaltAfter: haltAfter,
				})
				blob, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				restored := new(Checkpoint)
				if err := json.Unmarshal(blob, restored); err != nil {
					t.Fatal(err)
				}

				resumed := shardedRun(t, cfg, gcfg, genSeed, &Options{
					Shards: shards, KeepSeries: keepSeries, Resume: restored,
				})
				if !reflect.DeepEqual(full, resumed) {
					t.Errorf("%s halt=%d keepSeries=%v: resumed sharded run differs from uninterrupted",
						scheme, haltAfter, keepSeries)
				}
			}
		}
	}
}

// TestMergedCheckpointResumesUnsharded pins the cross-compatibility contract:
// the Merged record inside a sharded checkpoint is a complete core.Checkpoint
// — sensors concatenated in global circulation order, cache keys unioned —
// so an UNSHARDED engine resumed from it reproduces the uninterrupted run
// bit for bit.
func TestMergedCheckpointResumesUnsharded(t *testing.T) {
	const servers, seed, haltAfter = 60, 5, 60
	gcfg := trace.DrasticConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.LoadBalance)

	want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	cp := haltShardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 4, KeepSeries: true, HaltAfter: haltAfter})

	resumed := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true, Resume: &cp.Merged})
	if !reflect.DeepEqual(want, resumed) {
		t.Error("unsharded engine resumed from sharded Merged record differs from uninterrupted run")
	}
}

// TestSingleShardResumesAlone pins that one shard's checkpoint state is
// self-standing: a 1-shard sharded run resumed from a checkpoint taken by a
// 1-shard run matches the uninterrupted engine exactly — the shard carries
// everything it needs (sensors, cache keys, merged aggregates) without its
// former siblings.
func TestSingleShardResumesAlone(t *testing.T) {
	const servers, seed, haltAfter = 40, 9, 30
	gcfg := trace.IrregularConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.Original)

	want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	cp := haltShardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 1, KeepSeries: true, HaltAfter: haltAfter})
	resumed := shardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 1, KeepSeries: true, Resume: cp})
	if !reflect.DeepEqual(want, resumed) {
		t.Error("single-shard resume differs from uninterrupted run")
	}
}

// TestCheckpointLayoutValidation pins that a checkpoint resumes under any
// layout: one taken at 4 shards resumes at 1, 2, 3, 4, 0 (all CPUs) and 64
// (clamped) shards with a Result bit-identical to the uninterrupted run, and
// so does an envelope in the pre-unification format, whose "shards",
// "ranges" and "per_shard" fields are ignored. Corruption of the engine
// checkpoint itself is still rejected.
func TestCheckpointLayoutValidation(t *testing.T) {
	const servers, seed, haltAfter = 60, 3, 40
	gcfg := trace.CommonConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.Original)
	want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	cp := haltShardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 4, KeepSeries: true, HaltAfter: haltAfter})

	resume := func(c *Checkpoint, shards int) (*core.Result, error) {
		src, err := trace.NewGeneratorSource(gcfg, genSeed)
		if err != nil {
			t.Fatal(err)
		}
		return RunSource(cfg, src, &Options{Shards: shards, KeepSeries: true, Resume: c})
	}

	for _, shards := range []int{1, 2, 3, 4, 0, 64} {
		got, err := resume(clone(t, cp), shards)
		if err != nil {
			t.Fatalf("resume at %d shards: %v", shards, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("resume at %d shards differs from the uninterrupted run", shards)
		}
	}

	// A legacy envelope: the same record plus the layout fields older
	// writers emitted.
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	fields["shards"] = json.RawMessage(`4`)
	fields["ranges"] = json.RawMessage(`[{"lo":0,"hi":3},{"lo":3,"hi":6},{"lo":6,"hi":9},{"lo":9,"hi":12}]`)
	fields["per_shard"] = json.RawMessage(`[{"range":{"lo":0,"hi":3},"sensors":[]}]`)
	if blob, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	legacy := new(Checkpoint)
	if err := json.Unmarshal(blob, legacy); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		got, err := resume(legacy, shards)
		if err != nil {
			t.Fatalf("legacy envelope at %d shards: %v", shards, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("legacy envelope resumed at %d shards differs from the uninterrupted run", shards)
		}
	}

	corrupt := []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"envelope version", func(c *Checkpoint) { c.Version++ }},
		{"merged version", func(c *Checkpoint) { c.Merged.Version++ }},
		{"trace identity", func(c *Checkpoint) { c.Merged.TraceName = "other" }},
		{"scheme", func(c *Checkpoint) { c.Merged.Scheme = sched.LoadBalance }},
		{"progress past end", func(c *Checkpoint) { c.Merged.NextInterval = c.Merged.Intervals }},
		{"merged sensor count", func(c *Checkpoint) { c.Merged.Sensors = c.Merged.Sensors[:5] }},
	}
	for _, tc := range corrupt {
		c := clone(t, cp)
		tc.mutate(c)
		if _, err := resume(c, 4); err == nil {
			t.Errorf("%s: corrupted checkpoint accepted", tc.name)
		}
	}
}

// clone deep-copies a checkpoint through its JSON round trip — the same path
// a persisted checkpoint travels.
func clone(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	out := new(Checkpoint)
	if err := json.Unmarshal(blob, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHaltSemantics pins the halt contract against the unsharded engine: a
// HaltAfter at or past the end never halts, and a halted run returns
// core.ErrHalted so fleet-level callers treat it as a clean, resumable stop.
func TestHaltSemantics(t *testing.T) {
	const servers, seed = 40, 13
	gcfg := trace.DrasticConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.Original)
	intervals := int(gcfg.Horizon / gcfg.Interval)

	want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	for _, haltAfter := range []int{intervals, intervals + 7} {
		got := shardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 3, KeepSeries: true, HaltAfter: haltAfter})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("haltAfter=%d (past end): result differs from unsharded", haltAfter)
		}
	}
}
