package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported figure and its unit.
type metricDef struct {
	name, unit, meaning string
}

// endToEnd are the figures a user of the simulator sees, reported by every
// workload with tracing off. BENCHMARK.json lists exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s", "median host time before the first interval: look-up space build, engine or server construction, source open"},
	{"server_intervals_per_s", "1/s", "simulated server x interval cells of verified runs per host second of measured work"},
	{"peak_rss_mb", "MB", "peak resident set (VmHWM) of the process that ran only this workload"},
	{"runs_per_s", "1/s", "verified runs completed per host second of measured work"},
	{"run_latency_p50_ms", "ms", "median time from starting a run until its verified result is in hand"},
}

// printedOnly are end-to-end figures printed beside endToEnd but not
// bounded. error_rate is zero on a correct program; the result line carries
// the same fact as attempted and failed. The p99 latency moves with
// neighbours on a shared host by more than any useful bound (its run-to-run
// spread reached 0.30 of its median on a 2-CPU container), and on the
// simulation workloads it rests on a handful of runs.
var printedOnly = []metricDef{
	{"run_latency_p99_ms", "ms", "99th percentile of the same run latency"},
	errorRate,
}

var errorRate = metricDef{"error_rate", "ratio", "failed, refused or reference-mismatched operations over operations attempted"}

// perLayer are the traced run's figures that every workload reports.
// BENCHMARK.json lists exactly these; layerOnly lists the ones only some
// workloads exercise, which the traced run prints but does not report.
var perLayer = []metricDef{
	{"trace.open_s", "s", "median time to open the workload's trace source"},
	{"trace.columns", "count", "columns the real run pulled through trace.Source.NextColumn"},
	{"trace.decode_s", "s", "host time inside NextColumn during the real run"},
	{"trace.decode_ns_per_cell", "ns", "decode time per server x interval cell pulled"},
	{"trace.replayed_columns", "count", "columns decoded and then discarded to reposition a resumed source"},
	{"trace.useful_column_ratio", "ratio", "columns the run needed over columns decoded"},
	{"lookup.space_build_s", "s", "median time of core.Fleet.Space (the look-up space build)"},
	{"lookup.scan_cells", "count", "candidate cells walked by the batched plane scans (telemetry counter)"},
	{"sched.decide_s", "s", "host time in Controller.DecideBatch replayed over the run's columns"},
	{"sched.decisions", "count", "circulation decisions (cache probes) of the real run"},
	{"sched.cache_hits", "count", "decision-cache hits of the real run"},
	{"sched.cache_hit_ratio", "ratio", "cache hits over decisions"},
	{"sched.cache_entries", "count", "decision-cache keys held after the last interval"},
	{"sched.unique_planes", "count", "distinct planes per DecideBatch call, summed over the run"},
	{"core.step_s", "s", "host time in ShardRunner.Step over the full circulation range"},
	{"core.physics_s", "s", "derived: step time minus decide time"},
	{"core.merge_s", "s", "host time in core.MergeInterval plus Aggregator.Fold"},
	{"core.interval_p50_ms", "ms", "median merged-interval period of the real run"},
	{"core.interval_p99_ms", "ms", "99th percentile merged-interval period of the real run"},
	{"core.interval_growth", "ratio", "mean interval period of the last tenth over the first tenth"},
	{"core.ms_per_interval_100k", "ms", "host ms per 5-minute interval, scaled linearly to a 100k-CPU fleet"},
	{"shard.decode_s", "s", "shard pipeline decoder time (shard.StatsSink)"},
	{"shard.merge_wait_s", "s", "time the shard merger waited for its next interval"},
	{"shard.merge_waits", "count", "intervals the shard merger had to wait for"},
	{"shard.step_s", "s", "summed shard stepping time"},
	{"shard.step_imbalance", "ratio", "slowest shard's step time over the mean"},
	{"runtime.heap_live_end_mb", "MB", "live heap after a forced GC at the real run's last interval"},
	{"runtime.gc_cycles", "count", "GC cycles during the real run"},
	{"serve.parse_us", "us", "median serve.ParseRunRequest (decode and Validate) of the workload's request"},
	{"serve.marshal_result_us", "us", "median serve.MarshalResult plus HashBytes of the workload's result"},
	{"serve.result_bytes", "bytes", "size of the canonical result JSON"},
	{"obs.journal_bytes_per_run", "bytes", "run-journal bytes written per run"},
}

// layerOnly are per-layer figures of layers that only one workload
// exercises. The traced run of that workload prints them.
var layerOnly = []metricDef{
	{"core.checkpoints", "count", "checkpoints written per halted-and-resumed run"},
	{"core.checkpoint_bytes", "bytes", "mean checkpoint file size"},
	{"core.checkpoint_write_s", "s", "time marshalling and writing checkpoints"},
	{"core.resume_s", "s", "checkpoint read to first merged interval of the resumed leg"},
	{"serve.submit_p50_ms", "ms", "median POST /api/v1/runs round trip"},
	{"serve.queue_wait_p50_ms", "ms", "median queue wait from the RunStatus timestamps (ms resolution)"},
	{"serve.execute_p50_ms", "ms", "median execution time from the RunStatus timestamps (ms resolution)"},
	{"serve.polls_per_run", "count", "mean long-poll requests per run"},
	{"serve.result_fetch_p50_ms", "ms", "median GET /result round trip"},
	{"serve.rejected", "count", "submissions the server refused"},
}

// metricValue is one reported figure as it appears in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick builds the result metrics for defs from values; a missing value is
// an error, so a workload cannot silently omit a listed metric.
func pick(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printTable writes the defs present in values as an aligned name/value/unit
// table, with any note for the metric after it.
func printTable(w *strings.Builder, defs []metricDef, values map[string]float64, notes map[string]string) {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-28s %16s %-6s", d.name, strconv.FormatFloat(v, 'g', 7, 64), d.unit)
		if n := notes[d.name]; n != "" {
			fmt.Fprintf(w, "  %s", n)
		}
		w.WriteByte('\n')
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the convention of numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
