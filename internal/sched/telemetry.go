package sched

import (
	"github.com/h2p-sim/h2p/internal/telemetry"
)

// Exported decision-path metric names. The cache counters exist on every
// controller (CacheStats is built on them); the rest only when a registry is
// attached.
const (
	metricCacheHits    = "h2p_decision_cache_hits_total"
	metricCacheCalls   = "h2p_decision_cache_calls_total"
	metricCacheInserts = "h2p_decision_cache_inserts_total"
	metricCacheEntries = "h2p_decision_cache_entries"
	metricChosenInlet  = "h2p_decision_chosen_inlet_celsius"
	metricChosenFlow   = "h2p_decision_chosen_flow_lph"
	metricCurveEvals   = "h2p_decision_powercurve_evals_total"
	metricBatchGroups  = "h2p_decision_batch_groups"
	metricBatchUnique  = "h2p_decision_batch_unique_planes"
)

// schedMetrics holds the optional (registry-attached) decision metrics.
type schedMetrics struct {
	// hits/calls/inserts mirror the controller's own cache counters into
	// the registry, and entries sums the attached caches' sizes. Every
	// controller attached to one registry (one per shard of a sharded run)
	// adds into the same series, so the registry holds run-wide totals while
	// CacheStats keeps reading the controller's own counts.
	hits, calls, inserts *telemetry.Counter
	entries              *telemetry.Gauge
	// chosenInlet/chosenFlow histogram every Choose outcome — the
	// chosen-setting distribution across the run, one observation per
	// control decision (hits included: the distribution weights settings by
	// how often they were commanded, not by how often they were computed).
	chosenInlet *telemetry.Histogram
	chosenFlow  *telemetry.Histogram
	// curveEvals counts candidate power-curve evaluations: the Step 2-3
	// scan work performed on cache misses.
	curveEvals *telemetry.Counter
	// batchGroups/batchUnique histogram each DecideBatch call's width: how
	// many groups it decided and how many distinct (quantized) planes
	// survived the key dedup — the batch path's cache-probe compression.
	batchGroups *telemetry.Histogram
	batchUnique *telemetry.Histogram
}

// AttachTelemetry registers the controller's decision metrics with reg, so
// the run's exporters see the cache's hits/calls/inserts and entry count
// under their metric names. Attaching nil — the no-op registry — leaves the
// controller exactly as built: standalone cache counters for CacheStats and
// no extra instrumentation on the hot path.
//
// Call before the controller is shared across goroutines (the engine does so
// at construction). The registry counters count from the call on; the
// entries gauge also takes in the entries already cached.
func (c *Controller) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.met = &schedMetrics{
		hits:    reg.Counter(metricCacheHits, "decision cache hits"),
		calls:   reg.Counter(metricCacheCalls, "Choose calls (cache hits + misses)"),
		inserts: reg.Counter(metricCacheInserts, "decision cache inserts (misses that published an entry)"),
		entries: reg.Gauge(metricCacheEntries, "decision cache entries held"),
		chosenInlet: reg.Histogram(metricChosenInlet, "chosen inlet water temperature per decision",
			telemetry.LinearBuckets(30, 2, 15)),
		chosenFlow: reg.Histogram(metricChosenFlow, "chosen coolant flow per decision",
			telemetry.LinearBuckets(20, 20, 12)),
		curveEvals: reg.Counter(metricCurveEvals, "candidate TEG power-curve evaluations (cache-miss scan work)"),
		batchGroups: reg.Histogram(metricBatchGroups, "decision groups per DecideBatch call",
			telemetry.LinearBuckets(0, 8, 9)),
		batchUnique: reg.Histogram(metricBatchUnique, "distinct quantized planes per DecideBatch call",
			telemetry.LinearBuckets(0, 4, 9)),
	}
	c.met.entries.Add(float64(c.CacheLen()))
}

// observeBatch records one DecideBatch call's group and unique-plane counts
// when decision metrics are attached. One branch when they are not.
func (c *Controller) observeBatch(groups, unique int) {
	if m := c.met; m != nil {
		m.batchGroups.Observe(float64(groups))
		m.batchUnique.Observe(float64(unique))
	}
}

// countCall records one Choose call on the call counter and, when decision
// metrics are attached, on its registry mirror.
func (c *Controller) countCall(hint uint64) {
	c.calls.AddHint(hint, 1)
	if m := c.met; m != nil {
		m.calls.AddHint(hint, 1)
	}
}

// account records the outcome of a counted call — a cache hit, or a miss
// that did or did not publish an entry — and, when decision metrics are
// attached, mirrors it into the registry along with the chosen setting's
// distribution. One branch beyond the counters when metrics are not
// attached.
func (c *Controller) account(hint uint64, hit, inserted bool, s Setting) {
	if hit {
		c.hits.AddHint(hint, 1)
	} else if inserted {
		c.inserts.AddHint(hint, 1)
	}
	m := c.met
	if m == nil {
		return
	}
	if hit {
		m.hits.AddHint(hint, 1)
	} else if inserted {
		m.inserts.AddHint(hint, 1)
		m.entries.Add(1)
	}
	m.chosenInlet.ObserveHint(hint, float64(s.Inlet))
	m.chosenFlow.ObserveHint(hint, float64(s.Flow))
}
