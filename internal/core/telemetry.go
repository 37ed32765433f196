package core

import (
	"fmt"
	"time"

	"github.com/h2p-sim/h2p/internal/telemetry"
)

// Exported engine metric names.
const (
	metricIntervals      = "h2p_engine_intervals_total"
	metricSteps          = "h2p_engine_circulation_steps_total"
	metricIntervalSec    = "h2p_engine_interval_seconds"
	metricStepSec        = "h2p_engine_circulation_step_seconds"
	metricWorkers        = "h2p_engine_workers"
	metricCirculations   = "h2p_engine_circulations"
	metricHarvestedPower = "h2p_interval_teg_power_watts_per_server"
	metricOutletTemp     = "h2p_circulation_outlet_celsius"
	metricMaxCPUTemp     = "h2p_interval_max_cpu_celsius"

	// Streaming-path instruments (stream.go).
	metricCheckpoints   = "h2p_engine_checkpoints_total"
	metricResumes       = "h2p_engine_resumes_total"
	metricResumeSkipped = "h2p_engine_resume_skipped_intervals_total"

	// Pipeline instruments (stream.go): per-range step latency, the merger's
	// wait for its next in-order interval, and column decode latency.
	metricRangeStepSec = "h2p_shard_step_seconds"
	metricMergeWaitSec = "h2p_shard_merge_wait_seconds"
	metricDecodeSec    = "h2p_shard_decode_seconds"
)

// Exported fault-layer metric names. The report's Telemetry section groups
// everything under the "h2p_fault_" prefix into its own fault subsection.
const (
	metricFaultOpenTEG        = "h2p_fault_teg_open_total"
	metricFaultDegradedTEG    = "h2p_fault_teg_degraded_total"
	metricFaultPumpDroop      = "h2p_fault_pump_droop_total"
	metricFaultSensorStale    = "h2p_fault_sensor_stale_total"
	metricFaultSensorDegraded = "h2p_fault_sensor_degraded_total"
	metricFaultStepRetries    = "h2p_fault_step_retries_total"
	metricFaultDegraded       = "h2p_fault_degraded_intervals_total"
)

// Span names recorded by the engine's tracer. Together with the per-range
// step names (rangeSpanName) they make the pipeline visible as a timeline:
// the Perfetto exporter (internal/obs) maps each name to its own track.
const (
	spanInterval    = "interval"
	spanCirculation = "circulation"
	spanDecode      = "decode"
	spanMergeWait   = "merge.wait"
	spanCheckpoint  = "checkpoint"
)

// rangeSpanName returns range s's step span name ("shard03.step").
func rangeSpanName(s int) string { return fmt.Sprintf("shard%02d.step", s) }

// engineMetrics instruments the run loop: wall-clock latency of whole
// intervals, individual circulation steps and the pipeline stages (column
// decode, per-range step, merge wait), and the physical per-interval series the paper's evaluation
// is built on (harvested TEG power, outlet temperature, hottest die). nil —
// the default when Config.Telemetry is nil — disables everything: the run
// loop pays one pointer test per interval and never reads the clock.
type engineMetrics struct {
	intervals      *telemetry.Counter
	steps          *telemetry.Counter
	intervalSec    *telemetry.Histogram
	stepSec        *telemetry.Histogram
	workers        *telemetry.Gauge
	circulations   *telemetry.Gauge
	harvestedPower *telemetry.Histogram
	outletTemp     *telemetry.Histogram
	maxCPUTemp     *telemetry.Histogram
	tracer         *telemetry.Tracer

	// Streaming-path counters: checkpoints written, runs resumed, and
	// intervals skipped (not re-simulated) by resumes.
	checkpoints   *telemetry.Counter
	resumes       *telemetry.Counter
	resumeSkipped *telemetry.Counter

	// Pipeline histograms: per-range step latency (hinted by range index so
	// ranges never contend on a cell), merge wait and column decode.
	rangeStepSec *telemetry.Histogram
	mergeWaitSec *telemetry.Histogram
	decodeSec    *telemetry.Histogram

	// Fault-layer counters, sharded by circulation index like the step
	// metrics. They only ever move when an Injector is active.
	faultOpenTEG        *telemetry.Counter
	faultDegradedTEG    *telemetry.Counter
	faultPumpDroop      *telemetry.Counter
	faultSensorStale    *telemetry.Counter
	faultSensorDegraded *telemetry.Counter
	faultStepRetries    *telemetry.Counter
	faultDegraded       *telemetry.Counter
}

// newEngineMetrics registers the engine's instruments with reg; a nil
// registry yields nil (telemetry disabled). Several engines sharing one
// registry (a Fleet comparison run) share the same instruments by name and
// aggregate into one set of series.
func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		intervals: reg.Counter(metricIntervals, "control intervals evaluated"),
		steps:     reg.Counter(metricSteps, "circulation steps evaluated"),
		intervalSec: reg.Histogram(metricIntervalSec, "wall-clock seconds per control interval",
			telemetry.ExponentialBuckets(1e-5, 4, 10)),
		stepSec: reg.Histogram(metricStepSec, "wall-clock seconds per circulation step",
			telemetry.ExponentialBuckets(1e-6, 4, 10)),
		workers:      reg.Gauge(metricWorkers, "circulation ranges the run steps in parallel"),
		circulations: reg.Gauge(metricCirculations, "circulations per interval"),
		harvestedPower: reg.Histogram(metricHarvestedPower, "datacenter-mean harvested TEG power per server, one observation per interval",
			telemetry.LinearBuckets(0, 1, 16)),
		outletTemp: reg.Histogram(metricOutletTemp, "circulation mean coolant outlet temperature, one observation per step",
			telemetry.LinearBuckets(30, 2, 15)),
		maxCPUTemp: reg.Histogram(metricMaxCPUTemp, "hottest die across the datacenter, one observation per interval",
			telemetry.LinearBuckets(40, 2, 15)),
		tracer: reg.Tracer(telemetry.DefaultTraceCapacity),

		checkpoints:   reg.Counter(metricCheckpoints, "engine checkpoints written at interval boundaries"),
		resumes:       reg.Counter(metricResumes, "runs resumed from a checkpoint"),
		resumeSkipped: reg.Counter(metricResumeSkipped, "intervals skipped (not re-simulated) by checkpoint resumes"),

		rangeStepSec: reg.Histogram(metricRangeStepSec, "wall-clock seconds one circulation range spent stepping one interval",
			telemetry.ExponentialBuckets(1e-5, 4, 10)),
		mergeWaitSec: reg.Histogram(metricMergeWaitSec, "seconds the merger waited for its next in-order interval",
			telemetry.ExponentialBuckets(1e-7, 4, 10)),
		decodeSec: reg.Histogram(metricDecodeSec, "seconds the decoder spent producing one column",
			telemetry.ExponentialBuckets(1e-6, 4, 10)),

		faultOpenTEG:        reg.Counter(metricFaultOpenTEG, "open-circuit TEG module-intervals excluded from the harvest sum"),
		faultDegradedTEG:    reg.Counter(metricFaultDegradedTEG, "degradation-scaled TEG module-intervals"),
		faultPumpDroop:      reg.Counter(metricFaultPumpDroop, "circulation-intervals served below commanded flow"),
		faultSensorStale:    reg.Counter(metricFaultSensorStale, "outlet-sensor readings served from the last-good fallback"),
		faultSensorDegraded: reg.Counter(metricFaultSensorDegraded, "outlet-sensor fallbacks past the staleness bound"),
		faultStepRetries:    reg.Counter(metricFaultStepRetries, "circulation step retry attempts"),
		faultDegraded:       reg.Counter(metricFaultDegraded, "circulation-intervals degraded after exhausting retries"),
	}
}

// faultObs is one circulation's fault accounting for a step (or retry)
// observation.
type faultObs struct {
	openTEG        int
	degradedTEG    int
	pumpDroop      bool
	sensorStale    bool
	sensorDegraded bool
	retries        int
	degraded       bool
}

// observeFault folds one fault observation into the counters, sharded by
// circulation index so parallel workers do not contend.
func (m *engineMetrics) observeFault(index int, o faultObs) {
	if m == nil {
		return
	}
	hint := uint64(index)
	if o.openTEG > 0 {
		m.faultOpenTEG.AddHint(hint, uint64(o.openTEG))
	}
	if o.degradedTEG > 0 {
		m.faultDegradedTEG.AddHint(hint, uint64(o.degradedTEG))
	}
	if o.pumpDroop {
		m.faultPumpDroop.AddHint(hint, 1)
	}
	if o.sensorStale {
		m.faultSensorStale.AddHint(hint, 1)
	}
	if o.sensorDegraded {
		m.faultSensorDegraded.AddHint(hint, 1)
	}
	if o.retries > 0 {
		m.faultStepRetries.AddHint(hint, uint64(o.retries))
	}
	if o.degraded {
		m.faultDegraded.AddHint(hint, 1)
	}
}

// observeInterval records one merged control interval: its wall-clock
// latency, the harvested-power and hottest-die series, and an "interval"
// span.
func (m *engineMetrics) observeInterval(i int, start time.Time, ir IntervalResult) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.intervals.Inc()
	m.intervalSec.Observe(d.Seconds())
	m.harvestedPower.Observe(float64(ir.TEGPowerPerServer))
	m.maxCPUTemp.Observe(float64(ir.MaxCPUTemp))
	m.tracer.Record(spanInterval, int64(i), start, d)
}

// observeLayout records the run's range and circulation counts.
func (m *engineMetrics) observeLayout(ranges, circulations int) {
	if m == nil {
		return
	}
	m.workers.Set(float64(ranges))
	m.circulations.Set(float64(circulations))
}

// rangeSpanNames precomputes the run's per-range step span names, so
// recording a span never allocates; nil when telemetry is off.
func (m *engineMetrics) rangeSpanNames(ranges int) []string {
	if m == nil {
		return nil
	}
	names := make([]string, ranges)
	for s := range names {
		names[s] = rangeSpanName(s)
	}
	return names
}

// observeDecode records one column decode.
func (m *engineMetrics) observeDecode(interval int, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.decodeSec.Observe(d.Seconds())
	m.tracer.Record(spanDecode, int64(interval), start, d)
}

// observeRangeStep records range s stepping one interval under span name.
func (m *engineMetrics) observeRangeStep(name string, s, interval int, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.rangeStepSec.ObserveHint(uint64(s), d.Seconds())
	m.tracer.Record(name, int64(interval), start, d)
}

// observeMergeWait records how long the merger blocked for its next slot.
func (m *engineMetrics) observeMergeWait(interval int, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.mergeWaitSec.Observe(d.Seconds())
	m.tracer.Record(spanMergeWait, int64(interval), start, d)
}

// observeCheckpoint records one checkpoint written at the boundary after
// done intervals: the counter plus a "checkpoint" span covering the
// drain-and-write window.
func (m *engineMetrics) observeCheckpoint(done int, start time.Time) {
	if m == nil {
		return
	}
	m.checkpoints.Inc()
	m.tracer.Record(spanCheckpoint, int64(done), start, time.Since(start))
}

// observeResume records one resume and the intervals it skipped.
func (m *engineMetrics) observeResume(skipped int) {
	if m == nil {
		return
	}
	m.resumes.Inc()
	m.resumeSkipped.Add(uint64(skipped))
}

// observeStep records one circulation step, sharded by circulation index so
// parallel workers do not contend.
func (m *engineMetrics) observeStep(index int, start time.Time, outlet float64) {
	if m == nil {
		return
	}
	d := time.Since(start)
	hint := uint64(index)
	m.steps.AddHint(hint, 1)
	m.stepSec.ObserveHint(hint, d.Seconds())
	m.outletTemp.ObserveHint(hint, outlet)
	m.tracer.Record(spanCirculation, int64(index), start, d)
}
