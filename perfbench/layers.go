package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/serve"
	"github.com/h2p-sim/h2p/internal/shard"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
)

// digester fingerprints a run's simulated output: every merged interval in
// order, then the canonical result JSON. Two runs agree bit for bit exactly
// when their digests match. A halted leg and its resumed leg share one
// digester, so their intervals concatenate into the uninterrupted sequence.
type digester struct {
	series hash.Hash64
	enc    *json.Encoder
	err    error
}

func newDigester() *digester {
	h := fnv.New64a()
	return &digester{series: h, enc: json.NewEncoder(h)}
}

// interval folds one merged interval; it has the core.RunOptions.OnInterval
// signature.
func (d *digester) interval(i int, ir core.IntervalResult) {
	if d.err == nil {
		d.err = d.enc.Encode(struct {
			I  int
			IR core.IntervalResult
		}{i, ir})
	}
}

// sum finishes the digest with the canonical result bytes (after tamper, the
// tests' corruption seam) and returns it.
func (d *digester) sum(res *core.Result, tamper func([]byte) []byte) (string, error) {
	if d.err != nil {
		return "", d.err
	}
	b, err := serve.MarshalResult(res)
	if err != nil {
		return "", err
	}
	if tamper != nil {
		b = tamper(b)
	}
	return fmt.Sprintf("%s.%016x", serve.HashBytes(b), d.series.Sum64()), nil
}

// timedSource wraps a trace.Source and times every NextColumn call.
// Only the goroutine that pulls columns touches it until the run returns.
type timedSource struct {
	src     trace.Source
	spans   *spanLog
	parent  int64
	run     int64
	columns int
	decode  time.Duration
}

func newTimedSource(src trace.Source, spans *spanLog, parent, run int64) *timedSource {
	return &timedSource{src: src, spans: spans, parent: parent, run: run}
}

func (s *timedSource) Meta() trace.Meta { return s.src.Meta() }

func (s *timedSource) NextColumn(dst []float64) (int, error) {
	t0 := time.Now()
	i, err := s.src.NextColumn(dst)
	t1 := time.Now()
	s.columns++
	s.decode += t1.Sub(t0)
	s.spans.add("trace.decode", s.parent, s.run, i, t0, t1)
	return i, err
}

func (s *timedSource) Close() error {
	if c, ok := s.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// runObserver watches a real run through the simulator's public observer
// seams: merged-interval timestamps, checkpoints and resume (core.RunObserver),
// decision-cache counts (core.CacheStatsSink) and shard pipeline timings
// (shard.StatsSink). It forwards every callback to a run-journal recorder so
// the journal cost is part of the traced run. A fresh observer is used per
// run leg; callbacks arrive from one goroutine.
type runObserver struct {
	journal   *obs.RunRecorder
	spans     *spanLog
	parent    int64
	run       int64
	intervals int // the run's total, to find the last interval

	last        time.Time
	periods     []float64 // seconds between merged intervals
	firstMerged time.Time
	cacheStats  func() (hits, calls uint64)
	shardStats  func() shard.Stats
	heapLive    float64 // MB after a forced GC at the last interval
}

func newRunObserver(journal *obs.RunRecorder, spans *spanLog, parent, run int64, intervals int) *runObserver {
	return &runObserver{journal: journal, spans: spans, parent: parent, run: run, intervals: intervals, last: time.Now()}
}

func (o *runObserver) ObserveInterval(i int, ir core.IntervalResult) {
	now := time.Now()
	if o.firstMerged.IsZero() {
		// The first period would include the run's start-up (and, on a
		// resumed leg, the prefix replay); only later ones are intervals.
		o.firstMerged = now
	} else {
		o.periods = append(o.periods, now.Sub(o.last).Seconds())
	}
	o.spans.add("core.interval", o.parent, o.run, i, o.last, now)
	o.journal.ObserveInterval(i, ir)
	if i == o.intervals-1 {
		// The run's engines and caches are still referenced here.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		o.heapLive = float64(ms.HeapAlloc) / (1 << 20)
	}
	o.last = time.Now()
}

func (o *runObserver) ObserveCheckpoint(done int) { o.journal.ObserveCheckpoint(done) }
func (o *runObserver) ObserveResume(start int)    { o.journal.ObserveResume(start) }
func (o *runObserver) ObserveHalt(done int)       { o.journal.ObserveHalt(done) }

func (o *runObserver) AttachCacheStats(stats func() (hits, calls uint64)) {
	o.cacheStats = stats
	o.journal.AttachCacheStats(stats)
}

func (o *runObserver) AttachShardStats(stats func() shard.Stats) {
	o.shardStats = stats
	o.journal.AttachShardStats(stats)
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// replayStats are the per-layer host times of one layer replay.
type replayStats struct {
	intervals, servers          int
	decode, decide, step, merge time.Duration
	entries                     int
	scanCells, uniquePlanes     float64
}

func (a *replayStats) add(b replayStats) {
	a.intervals += b.intervals
	a.decode += b.decode
	a.decide += b.decide
	a.step += b.step
	a.merge += b.merge
	a.entries += b.entries
	a.scanCells += b.scanCells
	a.uniquePlanes += b.uniquePlanes
}

// replayLayers re-runs a source through the engine's public per-layer entry
// points in the order the engine calls them, and times each call from
// outside: decode (trace.Source.NextColumn), decide (Controller.DecideBatch
// on a second controller, over the same columns and circulation ranges),
// step (ShardRunner.Step over the full range, which decides again on its own
// controller and runs the circulation physics) and merge (MergeInterval plus
// Aggregator.Fold). The decide controller sits on a private look-up space
// with a telemetry registry attached, so its scan counters are the run's
// alone. The replayed Result must be bit-identical to the real run's; the
// caller checks the digest.
func replayLayers(ctx context.Context, fleet *core.Fleet, cfg core.Config, open opener, spans *spanLog, run int64) (*core.Result, *digester, replayStats, error) {
	var st replayStats
	src, err := open()
	if err != nil {
		return nil, nil, st, err
	}
	defer closeSource(src)
	meta := src.Meta()
	st.servers = meta.Servers

	reg := telemetry.New()
	dcfg := cfg
	dcfg.Telemetry = reg
	decider, err := core.NewFleet().Engine(dcfg)
	if err != nil {
		return nil, nil, st, err
	}
	ctl := decider.Controller()
	stepper, err := fleet.Engine(cfg)
	if err != nil {
		return nil, nil, st, err
	}
	nc := cfg.Circulations(meta.Servers)
	runner, err := stepper.NewShardRunner(meta.Servers, 0, nc)
	if err != nil {
		return nil, nil, st, err
	}
	ranges := make([]sched.Range, nc)
	scratches := make([]*sched.Scratch, nc)
	for ci := range ranges {
		lo, hi := cfg.CirculationSpan(meta.Servers, ci)
		ranges[ci] = sched.Range{Lo: lo, Hi: hi}
		scratches[ci] = new(sched.Scratch)
	}
	decisions := make([]sched.Decision, nc)
	var bs sched.BatchScratch
	parts := make([]core.CirculationInterval, nc)
	errs := make([]error, nc)
	agg := core.NewAggregator(meta, cfg, false)
	dg := newDigester()
	col := make([]float64, meta.Servers)

	runStart := time.Now()
	runSpan := spans.reserve()
	for i := 0; i < meta.Intervals; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, st, err
		}
		iv := spans.reserve()
		t0 := time.Now()
		got, err := src.NextColumn(col)
		t1 := time.Now()
		if err != nil {
			return nil, nil, st, fmt.Errorf("replay: source at interval %d: %w", i, err)
		}
		if got != i {
			return nil, nil, st, fmt.Errorf("replay: source delivered interval %d, want %d", got, i)
		}
		// Decide and step read the same column; alternating which goes
		// first keeps the warm-cache advantage from landing on one side.
		decide := func() error {
			t := time.Now()
			err := ctl.DecideBatch(col, ranges, cfg.Scheme, &bs, scratches, decisions)
			st.decide += time.Since(t)
			spans.add("sched.decide", iv, run, i, t, time.Now())
			return err
		}
		step := func() {
			t2 := time.Now()
			runner.Step(col, i, parts, errs)
			t3 := time.Now()
			st.step += t3.Sub(t2)
			spans.add("core.step", iv, run, i, t2, t3)
		}
		var derr error
		if i%2 == 0 {
			derr = decide()
			step()
		} else {
			step()
			derr = decide()
		}
		if derr != nil {
			return nil, nil, st, fmt.Errorf("replay: decide interval %d: %w", i, derr)
		}
		for ci, e := range errs {
			if e != nil {
				return nil, nil, st, fmt.Errorf("replay: interval %d circulation %d: %w", i, ci, e)
			}
		}
		t4 := time.Now()
		ir := core.MergeInterval(col, parts)
		agg.Fold(ir)
		t5 := time.Now()
		dg.interval(i, ir)
		st.decode += t1.Sub(t0)
		st.merge += t5.Sub(t4)
		spans.add("trace.decode", iv, run, i, t0, t1)
		spans.add("core.merge", iv, run, i, t4, t5)
		spans.finish(iv, "replay.interval", runSpan, run, i, t0, t5)
	}
	spans.finish(runSpan, "replay.run", 0, run, -1, runStart, time.Now())
	st.intervals = meta.Intervals
	st.entries = len(ctl.CacheKeys())
	if snap := reg.Snapshot(); snap != nil {
		for _, h := range snap.Histograms {
			switch h.Name {
			case "h2p_lookup_batch_scan_cells":
				st.scanCells = h.Sum
			case "h2p_decision_batch_unique_planes":
				st.uniquePlanes = h.Sum
			}
		}
	}
	return agg.Finalize(), dg, st, nil
}

// layerInputs collects what the traced run measured, across every real run
// and replay of the workload, before it is reduced to per-layer metrics.
type layerInputs struct {
	openS, spaceS      []float64 // per setup repetition
	columns, useful    int       // columns decoded / needed by the real runs
	cells              int64     // cells decoded by the real runs
	decode             time.Duration
	hits, calls        uint64
	periods            [][]float64 // merged-interval periods per real run
	realWall           time.Duration
	realIntervals      int
	servers            int // of the largest real run, for the 100k scaling
	shard              shard.Stats
	heapLive           float64
	gcCycles           uint32
	replay             replayStats
	parseUS, marshalUS []float64
	resultBytes        []float64
	journalBytes       int64
	journalRuns        int
}

// addShard folds one run's shard pipeline stats in.
func (li *layerInputs) addShard(s shard.Stats) {
	li.shard.DecodeSeconds += s.DecodeSeconds
	li.shard.MergeWaits += s.MergeWaits
	li.shard.MergeWaitSeconds += s.MergeWaitSeconds
	if len(li.shard.StepSeconds) < len(s.StepSeconds) {
		li.shard.StepSeconds = append(li.shard.StepSeconds, make([]float64, len(s.StepSeconds)-len(li.shard.StepSeconds))...)
	}
	for i, v := range s.StepSeconds {
		li.shard.StepSeconds[i] += v
	}
}

// addSource folds one real-run leg's source wrapper in.
func (li *layerInputs) addSource(s *timedSource) {
	li.columns += s.columns
	li.decode += s.decode
	li.cells += int64(s.columns) * int64(s.Meta().Servers)
}

// addObserver folds one real-run leg's observer in.
func (li *layerInputs) addObserver(o *runObserver) {
	if o.cacheStats != nil {
		h, c := o.cacheStats()
		li.hits += h
		li.calls += c
	}
	if o.shardStats != nil {
		li.addShard(o.shardStats())
	}
	li.periods = append(li.periods, o.periods)
	if o.heapLive > li.heapLive {
		li.heapLive = o.heapLive
	}
}

// measureServe times the serve layer's request and result codecs on the
// workload's own request body and result: median of reps calls each.
func (li *layerInputs) measureServe(body []byte, res *core.Result, reps int) error {
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		if _, err := serve.ParseRunRequest(bytes.NewReader(body), 0); err != nil {
			return err
		}
		t1 := time.Now()
		b, err := serve.MarshalResult(res)
		if err != nil {
			return err
		}
		serve.HashBytes(b)
		t2 := time.Now()
		li.parseUS = append(li.parseUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		li.marshalUS = append(li.marshalUS, float64(t2.Sub(t1).Nanoseconds())/1e3)
		if k == 0 {
			li.resultBytes = append(li.resultBytes, float64(len(b)))
		}
	}
	return nil
}

// intervalMinutes is the paper's control interval.
const intervalMinutes = 5

// fleetCPUs is the paper's fleet size for the budget line.
const fleetCPUs = 100000

// metrics reduces the inputs to the per-layer metrics of perLayer.
func (li *layerInputs) metrics() map[string]float64 {
	m := make(map[string]float64)
	m["trace.open_s"] = median(li.openS)
	m["trace.columns"] = float64(li.columns)
	m["trace.decode_s"] = li.decode.Seconds()
	m["trace.decode_ns_per_cell"] = float64(li.decode.Nanoseconds()) / math.Max(1, float64(li.cells))
	m["trace.replayed_columns"] = float64(li.columns - li.useful)
	m["trace.useful_column_ratio"] = float64(li.useful) / math.Max(1, float64(li.columns))
	m["lookup.space_build_s"] = median(li.spaceS)
	m["lookup.scan_cells"] = li.replay.scanCells
	m["sched.decide_s"] = li.replay.decide.Seconds()
	m["sched.decisions"] = float64(li.calls)
	m["sched.cache_hits"] = float64(li.hits)
	m["sched.cache_hit_ratio"] = float64(li.hits) / math.Max(1, float64(li.calls))
	m["sched.cache_entries"] = float64(li.replay.entries)
	m["sched.unique_planes"] = li.replay.uniquePlanes
	m["core.step_s"] = li.replay.step.Seconds()
	m["core.physics_s"] = (li.replay.step - li.replay.decide).Seconds()
	m["core.merge_s"] = li.replay.merge.Seconds()
	var all, growth []float64
	for _, p := range li.periods {
		all = append(all, p...)
		if g, ok := tenthGrowth(p); ok {
			growth = append(growth, g)
		}
	}
	m["core.interval_p50_ms"] = quantile(all, 0.5) * 1e3
	m["core.interval_p99_ms"] = quantile(all, 0.99) * 1e3
	m["core.interval_growth"] = median(growth)
	m["core.ms_per_interval_100k"] = li.realWall.Seconds() * 1e3 / math.Max(1, float64(li.realIntervals)) * fleetCPUs / math.Max(1, float64(li.servers))
	m["shard.decode_s"] = li.shard.DecodeSeconds
	m["shard.merge_wait_s"] = li.shard.MergeWaitSeconds
	m["shard.merge_waits"] = float64(li.shard.MergeWaits)
	var stepSum, stepMax float64
	for _, v := range li.shard.StepSeconds {
		stepSum += v
		stepMax = math.Max(stepMax, v)
	}
	m["shard.step_s"] = stepSum
	m["shard.step_imbalance"] = stepMax / math.Max(1e-12, stepSum/math.Max(1, float64(len(li.shard.StepSeconds))))
	m["runtime.heap_live_end_mb"] = li.heapLive
	m["runtime.gc_cycles"] = float64(li.gcCycles)
	m["serve.parse_us"] = median(li.parseUS)
	m["serve.marshal_result_us"] = median(li.marshalUS)
	m["serve.result_bytes"] = mean(li.resultBytes)
	m["obs.journal_bytes_per_run"] = float64(li.journalBytes) / math.Max(1, float64(li.journalRuns))
	return m
}

// tenthGrowth is the mean of the last tenth of xs over the mean of its
// first tenth; runs shorter than 20 intervals have no such ratio.
func tenthGrowth(xs []float64) (float64, bool) {
	k := len(xs) / 10
	if k < 2 {
		return 0, false
	}
	first, last := mean(xs[:k]), mean(xs[len(xs)-k:])
	if first <= 0 {
		return 0, false
	}
	return last / first, true
}

// budgetLine renders the replay's per-layer self time per control interval,
// scaled linearly to the paper's 100k-CPU fleet, against the 5-minute
// decision budget.
func budgetLine(st replayStats) string {
	if st.intervals == 0 || st.servers == 0 {
		return "budget: no replay"
	}
	scale := float64(fleetCPUs) / float64(st.servers) / float64(st.intervals) * 1e3
	decode := st.decode.Seconds() * scale
	decide := st.decide.Seconds() * scale
	physics := (st.step - st.decide).Seconds() * scale
	merge := st.merge.Seconds() * scale
	total := decode + decide + physics + merge
	budget := float64(intervalMinutes * 60 * 1000)
	var b strings.Builder
	fmt.Fprintf(&b, "budget: %d-CPU fleet, one decision per %d-minute interval (%.0f ms), linear scaling from %d servers:\n",
		fleetCPUs, intervalMinutes, budget, st.servers)
	fmt.Fprintf(&b, "  decode %.2f ms | decide %.2f ms | physics %.2f ms | merge %.3f ms | total %.2f ms = %.4f%% of the budget",
		decode, decide, physics, merge, total, 100*total/budget)
	return b.String()
}
