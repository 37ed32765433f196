package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ShardRunner executes one contiguous range of an engine's circulations. The
// run loop (RunSourceContext) splits a run into Config.Workers such ranges
// on the same engine — one controller and one decision cache per run — and
// steps each range on its own goroutine through the batched column kernel
// with a private BatchScratch, so ranges never rendezvous inside an
// interval.
//
// Circulations keep their global indices and server spans, which pins the
// fault-activation schedule — a pure function of (seed, stream, unit,
// interval) — bit-identical for every range layout.
//
// A ShardRunner is single-goroutine state: exactly one worker steps it.
type ShardRunner struct {
	eng   *Engine
	circs []Circulation
	state workerState
}

// NewShardRunner wires the circulations [circLo, circHi) of a totalServers
// datacenter to the engine. The range bounds are in circulation units (see
// Config.Circulations); an empty or out-of-bounds range is rejected.
func (e *Engine) NewShardRunner(totalServers, circLo, circHi int) (*ShardRunner, error) {
	n := e.cfg.Circulations(totalServers)
	if circLo < 0 || circHi > n || circLo >= circHi {
		return nil, fmt.Errorf("core: shard circulation range [%d,%d) outside [0,%d)", circLo, circHi, n)
	}
	return &ShardRunner{eng: e, circs: e.circulationsRange(totalServers, circLo, circHi)}, nil
}

// Step runs one control interval for the range: the whole range goes through
// one batched column call (maximal cache-probe dedup within the range), then
// each circulation's finish. col is the full datacenter column — circulations
// read their own global server spans from it. parts and errs must have the
// range's length; each circulation's contribution (or error) lands in its
// range-local slot. Results are bit-identical for every range layout: the
// decision kernel is grouping-invariant and every circulation keeps its
// global fault identity.
func (r *ShardRunner) Step(col []float64, interval int, parts []CirculationInterval, errs []error) {
	stepBlock(r.circs, col, interval, &r.state, parts, errs)
}

// ShardStats is a point-in-time read of the run loop's pipeline timing
// counters, handed to a run observer that implements ShardStatsSink. It
// quantifies the pipeline's health independent of the telemetry registry:
// cumulative decode time, merger stalls (the pipeline's bubbles) and
// per-range step time.
type ShardStats struct {
	// Shards is the run's range count; StepSeconds has one entry per range.
	Shards int `json:"shards"`
	// DecodeSeconds is the cumulative wall time the decoder spent producing
	// columns.
	DecodeSeconds float64 `json:"decode_seconds"`
	// MergeWaits counts intervals the merger had to block for; the
	// difference to intervals merged is how often the pipeline was ahead.
	MergeWaits int64 `json:"merge_waits"`
	// MergeWaitSeconds is the cumulative wall time the merger spent blocked
	// waiting for its next in-order interval.
	MergeWaitSeconds float64 `json:"merge_wait_seconds"`
	// StepSeconds is each range's cumulative stepping wall time — the skew
	// between entries is the load imbalance across the partition.
	StepSeconds []float64 `json:"step_seconds"`
}

// ShardStatsSink is optionally implemented by a RunObserver: the run loop
// hands it a ShardStats reader before the first interval, and the observer
// may call it whenever it records progress.
type ShardStatsSink interface {
	AttachShardStats(stats func() ShardStats)
}

// pipelineStats accumulates pipeline timings with one atomic per event.
// Writers are the decoder, the range workers (each owning its own slot) and
// the merger; the snapshot reader is the observer's goroutine. A nil
// *pipelineStats ignores every observation.
type pipelineStats struct {
	decodeNanos    atomic.Int64
	mergeWaits     atomic.Int64
	mergeWaitNanos atomic.Int64
	stepNanos      []atomic.Int64
}

func newPipelineStats(ranges int) *pipelineStats {
	return &pipelineStats{stepNanos: make([]atomic.Int64, ranges)}
}

func (c *pipelineStats) observeDecode(start time.Time) {
	if c == nil {
		return
	}
	c.decodeNanos.Add(int64(time.Since(start)))
}

func (c *pipelineStats) observeStep(rng int, start time.Time) {
	if c == nil {
		return
	}
	c.stepNanos[rng].Add(int64(time.Since(start)))
}

func (c *pipelineStats) observeMergeWait(start time.Time) {
	if c == nil {
		return
	}
	c.mergeWaits.Add(1)
	c.mergeWaitNanos.Add(int64(time.Since(start)))
}

// snapshot folds the counters into a ShardStats value.
func (c *pipelineStats) snapshot() ShardStats {
	st := ShardStats{
		Shards:           len(c.stepNanos),
		DecodeSeconds:    time.Duration(c.decodeNanos.Load()).Seconds(),
		MergeWaits:       c.mergeWaits.Load(),
		MergeWaitSeconds: time.Duration(c.mergeWaitNanos.Load()).Seconds(),
		StepSeconds:      make([]float64, len(c.stepNanos)),
	}
	for s := range c.stepNanos {
		st.StepSeconds[s] = time.Duration(c.stepNanos[s].Load()).Seconds()
	}
	return st
}
