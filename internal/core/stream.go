package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2p-sim/h2p/internal/trace"
)

// ErrHalted reports a run that stopped at the RunOptions.HaltAfter interval
// boundary after writing its checkpoint. It is a clean, resumable stop, not
// a failure.
var ErrHalted = errors.New("core: run halted at checkpoint boundary")

// RunOptions shapes one streaming run. The zero value (and a nil *RunOptions)
// is the bounded-memory default: no retained series, no checkpoints.
type RunOptions struct {
	// KeepSeries retains every IntervalResult in Result.Intervals, like the
	// in-memory Run API always did. Off, the run's working set is O(servers)
	// regardless of trace length; the summary aggregates are bit-identical
	// either way.
	KeepSeries bool
	// OnInterval, when non-nil, observes each merged interval as it
	// completes — the streaming alternative to reading Result.Intervals.
	OnInterval func(interval int, ir IntervalResult)
	// Checkpoint enables periodic checkpoints.
	Checkpoint *CheckpointOptions
	// Resume continues a checkpointed run instead of starting at interval 0.
	// The resumed run's Result (and, with KeepSeries, its series) is
	// bit-identical to the uninterrupted run's.
	Resume *Checkpoint
	// HaltAfter, when positive, stops the run at the boundary after interval
	// HaltAfter-1 is merged, writes a checkpoint (if configured) and returns
	// ErrHalted. It exists to exercise kill/resume deterministically; a run
	// whose HaltAfter is at or past the end never halts.
	HaltAfter int
	// Observer, when non-nil, receives run-lifecycle callbacks (merged
	// intervals, checkpoints, resume, halt) — the hook the run journal
	// (internal/obs) attaches through. nil costs one pointer test per
	// interval; results are bit-identical either way.
	Observer RunObserver
}

// CheckpointOptions configures periodic checkpointing.
type CheckpointOptions struct {
	// Every is the checkpoint cadence in intervals (a checkpoint lands at
	// every boundary where the completed-interval count is a multiple of
	// Every). Non-positive disables the cadence; a HaltAfter boundary still
	// checkpoints.
	Every int
	// Write persists one checkpoint. It is called at interval boundaries
	// with every range drained to the boundary (the decoder holds back the
	// boundary interval until Write returns), so the snapshot is quiescent;
	// a Write error aborts the run.
	Write func(*Checkpoint) error
}

// prefetchDepth is the column pipeline depth in slots: double buffering, so
// the decoder produces interval t+1 while the ranges compute interval t.
const prefetchDepth = 2

// RunSource evaluates a source under the engine's configuration. See
// RunSourceContext.
func (e *Engine) RunSource(src trace.Source, opts *RunOptions) (*Result, error) {
	return e.RunSourceContext(context.Background(), src, opts)
}

// slot is one pipeline stage: a decoded column and the per-circulation
// contribution array every range writes its part of. pending counts ranges
// still stepping the slot; the range that zeroes it hands the slot to the
// merger.
type slot struct {
	interval  int
	decodeErr error
	start     time.Time // decode start, read for telemetry only
	col       []float64
	parts     []CirculationInterval
	errs      []error
	pending   atomic.Int32
}

// RunSourceContext is the engine's run loop. It partitions the source's
// circulations into ResolveParallelism(Config.Workers) contiguous ranges
// (clamped to the circulation count), each a ShardRunner on this engine —
// one controller and one decision cache, whatever the parallelism — and
// pipelines the run through three stages:
//
//	decoder: pulls column t+1 from src while the ranges compute t
//	         (prefetchDepth slots of headroom, backpressured by the merger
//	         returning slots)
//	ranges:  each steps its circulations through the batched column kernel
//	         on its own goroutine — no barrier between ranges, so an
//	         interval's tail range never stalls the next interval's head
//	merger:  on the caller's goroutine, folds contributions in circulation
//	         order within an interval and interval order across the run
//	         (MergeInterval, Aggregator), and delivers OnInterval and
//	         Observer callbacks in that order
//
// Its working set is O(servers) — independent of the trace length — unless
// opts retains the series.
//
// Bit-identity: the per-interval arithmetic and the aggregation order do not
// depend on the range layout, so for any source, scheme, parallelism and
// fault plan the Result matches Materialize(src) run through the in-memory
// adapter (RunContext) bit for bit.
//
// Checkpoint/resume: with opts.Checkpoint set, the run snapshots itself at
// interval boundaries — the decoder will not dispatch the boundary interval
// until the merger has written the checkpoint, so the sensor state is
// quiescent. A later run given the snapshot as opts.Resume, at any
// parallelism, skips the completed prefix and continues, producing a
// bit-identical Result. On sources with random access (those implementing
// SeekInterval, like TraceSource) the skip is O(1); otherwise the source
// replays and discards the prefix columns, still with O(servers) memory.
func (e *Engine) RunSourceContext(ctx context.Context, src trace.Source, opts *RunOptions) (*Result, error) {
	if opts == nil {
		opts = &RunOptions{}
	}
	meta := src.Meta()
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	circs := e.circulations(meta.Servers)
	if len(circs) == 0 {
		// Guarded independently of the source's validation so a degenerate
		// shape can never NaN-poison the per-circulation means.
		return nil, errors.New("core: trace has no servers to form a circulation")
	}
	spans := partition(len(circs), e.cfg.Workers)
	runners := make([]ShardRunner, len(spans))
	for s, sp := range spans {
		runners[s] = ShardRunner{eng: e, circs: circs[sp.lo:sp.hi]}
	}
	met := e.met
	met.observeLayout(len(spans), len(circs))
	stepNames := met.rangeSpanNames(len(spans))

	obs := opts.Observer
	var stats *pipelineStats
	if obs != nil {
		if sink, ok := obs.(CacheStatsSink); ok {
			sink.AttachCacheStats(e.controller.CacheStats)
		}
		if sink, ok := obs.(ShardStatsSink); ok {
			stats = newPipelineStats(len(spans))
			sink.AttachShardStats(stats.snapshot)
		}
	}
	// timed gates the pipeline's clock reads: they exist for the telemetry
	// registry and/or the observer's stats, and are skipped entirely when
	// neither is attached.
	timed := met != nil || stats != nil

	// The running aggregates fold in interval order — the same order the
	// in-memory path summed its retained series in — so no floating-point
	// sum is ever reassociated.
	agg := NewAggregator(meta, e.cfg, opts.KeepSeries)
	start := 0
	if cp := opts.Resume; cp != nil {
		if err := cp.ValidateFor(meta, e.cfg, len(circs), opts.KeepSeries); err != nil {
			return nil, err
		}
		start = cp.NextInterval
		agg.Restore(cp)
		for ci := range circs {
			circs[ci].sensor.SetState(cp.Sensors[ci])
		}
		e.warmCache(cp.CacheKeys, start)
		if err := trace.Skip(src, start); err != nil {
			return nil, err
		}
		met.observeResume(start)
		if obs != nil {
			obs.ObserveResume(start)
		}
	}

	// The halt boundary: the first boundary at or past HaltAfter that is not
	// the end of the trace. It doubles as the decoder's end bound — intervals
	// past it are never decoded.
	end := meta.Intervals
	haltDone := 0
	if opts.HaltAfter > 0 {
		haltDone = max(opts.HaltAfter, start+1)
		if haltDone >= meta.Intervals {
			haltDone = 0
		} else {
			end = haltDone
		}
	}
	cpOpts := opts.Checkpoint
	boundary := func(done int) bool {
		if cpOpts == nil || cpOpts.Write == nil {
			return false
		}
		if done == haltDone {
			return true
		}
		return cpOpts.Every > 0 && done%cpOpts.Every == 0 && done < meta.Intervals
	}

	// Every slot channel holds prefetchDepth, the number of slots, so a send
	// never waits on a full buffer; gate holds the one token the merger
	// grants per checkpoint boundary, which the decoder takes before it can
	// reach the next boundary.
	free := make(chan *slot, prefetchDepth)
	for k := 0; k < prefetchDepth; k++ {
		free <- &slot{
			col:   make([]float64, meta.Servers),
			parts: make([]CirculationInterval, len(circs)),
			errs:  make([]error, len(circs)),
		}
	}
	work := make([]chan *slot, len(spans))
	for s := range work {
		work[s] = make(chan *slot, prefetchDepth)
	}
	mergeCh := make(chan *slot, prefetchDepth)
	gate := make(chan struct{}, 1)

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait() // after cancel below: stop the pipeline, then join it
	defer cancel()

	// Decoder: the only goroutine touching src (sources are single-stream
	// state). It parks at checkpoint boundaries until the merger's snapshot
	// is durable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			for _, ch := range work {
				close(ch)
			}
		}()
		for i := start; i < end; i++ {
			if i > start && boundary(i) {
				select {
				case <-gate:
				case <-ctx.Done():
					return
				}
			}
			var sl *slot
			select {
			case sl = <-free:
			case <-ctx.Done():
				return
			}
			if timed {
				sl.start = time.Now()
			}
			got, err := src.NextColumn(sl.col)
			if err != nil {
				err = fmt.Errorf("core: source at interval %d: %w", i, err)
			} else if got != i {
				err = fmt.Errorf("core: source delivered interval %d, want %d", got, i)
			}
			sl.interval = i
			sl.decodeErr = err
			if err != nil {
				select {
				case mergeCh <- sl:
				case <-ctx.Done():
				}
				return
			}
			met.observeDecode(i, sl.start)
			stats.observeDecode(sl.start)
			sl.pending.Store(int32(len(spans)))
			for _, ch := range work {
				select {
				case ch <- sl:
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	// Range workers: one goroutine per range, each the sole owner of its
	// runner. The last range to finish a slot hands it to the merger, so
	// slots can arrive out of interval order; the merger reorders them.
	for s := range spans {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sp, r := spans[s], &runners[s]
			for sl := range work[s] {
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				r.Step(sl.col, sl.interval, sl.parts[sp.lo:sp.hi], sl.errs[sp.lo:sp.hi])
				if met != nil {
					met.observeRangeStep(stepNames[s], s, sl.interval, t0)
				}
				stats.observeStep(s, t0)
				if sl.pending.Add(-1) == 0 {
					select {
					case mergeCh <- sl:
					case <-ctx.Done():
						return
					}
				}
			}
		}(s)
	}

	// Merger: fold intervals strictly in order, buffering early arrivals, and
	// surface errors at the interval and lowest circulation they occur in.
	early := make(map[int]*slot, prefetchDepth)
	for i := start; i < end; i++ {
		if err := parent.Err(); err != nil {
			return nil, err
		}
		sl, ok := early[i]
		if ok {
			delete(early, i)
		} else {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			for sl == nil {
				select {
				case got := <-mergeCh:
					if got.interval == i {
						sl = got
					} else {
						early[got.interval] = got
					}
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			met.observeMergeWait(i, t0)
			stats.observeMergeWait(t0)
		}
		if sl.decodeErr != nil {
			return nil, sl.decodeErr
		}
		for ci, serr := range sl.errs {
			if serr != nil {
				return nil, fmt.Errorf("interval %d circulation %d: %w", i, ci, serr)
			}
		}
		ir := mergeInterval(sl.col, sl.parts)
		met.observeInterval(i, sl.start, ir)
		agg.Fold(ir)
		if opts.OnInterval != nil {
			opts.OnInterval(i, ir)
		}
		if obs != nil {
			obs.ObserveInterval(i, ir)
		}
		free <- sl

		done := i + 1
		if boundary(done) {
			// Quiescent by construction: every interval < done has been
			// merged, and the decoder is parked on the gate (or, at the halt
			// boundary, past its end bound), so no range has seen interval
			// done.
			var t0 time.Time
			if met != nil {
				t0 = time.Now()
			}
			if err := cpOpts.Write(e.snapshot(agg, circs)); err != nil {
				return nil, fmt.Errorf("core: checkpoint at interval %d: %w", done, err)
			}
			met.observeCheckpoint(done, t0)
			if obs != nil {
				obs.ObserveCheckpoint(done)
			}
			if done != haltDone {
				gate <- struct{}{}
			}
		}
		if done == haltDone {
			if obs != nil {
				obs.ObserveHalt(done)
			}
			return nil, ErrHalted
		}
	}
	return agg.Finalize(), nil
}
