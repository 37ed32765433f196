// Package shard is the range-partitioned run API kept as an adapter over the
// engine's one run loop (core.Engine.RunSourceContext). That loop already
// splits every run into contiguous circulation ranges stepped in parallel,
// prefetches the next trace column and merges in interval order; this
// package only maps its Options onto core.RunOptions, with Shards as the
// run's parallelism (core.Config.Workers), and wraps checkpoints in the
// versioned envelope earlier releases persisted. Results are bit-identical
// to the engine's for every shard count, and a checkpoint written at one
// shard count resumes at any other.
package shard

import (
	"context"
	"fmt"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/trace"
)

// Options shapes one run. The zero value (and a nil *Options) runs with one
// range per CPU, no retained series and no checkpoints.
type Options struct {
	// Shards is the run's parallelism: it replaces core.Config.Workers, so 0
	// means all CPUs and counts above the circulation count clamp down.
	// Results are bit-identical for any value.
	Shards int
	// KeepSeries retains every IntervalResult in Result.Intervals, exactly
	// like core.RunOptions.KeepSeries.
	KeepSeries bool
	// OnInterval, when non-nil, observes each merged interval in interval
	// order.
	OnInterval func(interval int, ir core.IntervalResult)
	// Checkpoint enables periodic checkpoints.
	Checkpoint *CheckpointOptions
	// Resume continues a run from its checkpoint, whatever shard count
	// wrote it.
	Resume *Checkpoint
	// HaltAfter, when positive, stops the run at the boundary after
	// interval HaltAfter-1 is merged, writes a checkpoint (if configured)
	// and returns core.ErrHalted, like core.RunOptions.HaltAfter.
	HaltAfter int
	// Observer, when non-nil, receives the run-lifecycle callbacks of
	// core.RunOptions.Observer. An observer additionally implementing
	// StatsSink gets the pipeline's timing counters, and one implementing
	// core.CacheStatsSink gets the run's decision-cache stats.
	Observer core.RunObserver
}

// CheckpointOptions configures periodic checkpointing.
type CheckpointOptions struct {
	// Every is the checkpoint cadence in intervals, like
	// core.CheckpointOptions.Every.
	Every int
	// Write persists one checkpoint; a Write error aborts the run.
	Write func(*Checkpoint) error
}

// Stats is the run loop's pipeline timing read (core.ShardStats).
type Stats = core.ShardStats

// StatsSink is implemented by observers that want Stats
// (core.ShardStatsSink).
type StatsSink = core.ShardStatsSink

// CheckpointVersion is the checkpoint envelope's schema version; the
// embedded engine checkpoint carries (and validates) its own
// core.CheckpointVersion.
const CheckpointVersion = 1

// Checkpoint is a run frozen at an interval boundary: the engine's
// checkpoint in a versioned envelope. Merged is complete and independent of
// the shard count, so any layout resumes it, and core.Engine.RunSource can
// resume it directly. Envelopes written before the run loop was unified also
// carry "shards", "ranges" and "per_shard" fields; decoding ignores them and
// Merged alone resumes the run.
type Checkpoint struct {
	Version int             `json:"version"`
	Merged  core.Checkpoint `json:"merged"`
}

// RunSource evaluates a source under cfg. See Run.
func RunSource(cfg core.Config, src trace.Source, opts *Options) (*core.Result, error) {
	return Run(context.Background(), nil, cfg, src, opts)
}

// Run evaluates src under cfg with opts.Shards as the parallelism, on an
// engine from fleet (a nil fleet gets a private one).
func Run(ctx context.Context, fleet *core.Fleet, cfg core.Config, src trace.Source, opts *Options) (*core.Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if fleet == nil {
		fleet = core.NewFleet()
	}
	cfg.Workers = opts.Shards
	eng, err := fleet.Engine(cfg)
	if err != nil {
		return nil, err
	}
	ro := &core.RunOptions{
		KeepSeries: opts.KeepSeries,
		OnInterval: opts.OnInterval,
		HaltAfter:  opts.HaltAfter,
		Observer:   opts.Observer,
	}
	if cp := opts.Resume; cp != nil {
		if cp.Version != CheckpointVersion {
			return nil, fmt.Errorf("shard: checkpoint version %d, this layer speaks %d", cp.Version, CheckpointVersion)
		}
		ro.Resume = &cp.Merged
	}
	if c := opts.Checkpoint; c != nil && c.Write != nil {
		ro.Checkpoint = &core.CheckpointOptions{Every: c.Every, Write: func(cp *core.Checkpoint) error {
			return c.Write(&Checkpoint{Version: CheckpointVersion, Merged: *cp})
		}}
	}
	return eng.RunSourceContext(ctx, src, ro)
}
