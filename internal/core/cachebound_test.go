package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// decisionCacheCap mirrors the controller's unexported entry cap
// (sched.cacheCap): four entries per bucket over 4,096 buckets.
const decisionCacheCap = 4 * 4096

// fillDecisionCache decides fresh planes on ctl until its cache stops
// growing, i.e. until it is full.
func fillDecisionCache(t *testing.T, ctl *sched.Controller) {
	t.Helper()
	keys := make([]uint64, 4096)
	next := 0
	for {
		before := ctl.CacheLen()
		for i := range keys {
			keys[i] = math.Float64bits(float64(next) / (1 << 20))
			next++
		}
		ctl.WarmCache(keys, ctl.ColdSource)
		if ctl.CacheLen() == before {
			return
		}
	}
}

// TestExactCacheBoundedLongTrace pins the default configuration's memory
// bound: with the exact quantum nearly every decision is a fresh plane, yet
// over 1 and 16 days of the same generator trace the decision cache, every
// checkpoint's cache keys and the live heap all stay flat at the cap.
func TestExactCacheBoundedLongTrace(t *testing.T) {
	cfg := smallConfig(sched.Original)
	cfg.ServersPerCirculation = 4 // 100 circulations: 28,800 decisions a day
	cfg.Workers = 1
	type outcome struct {
		cacheLen int
		heap     uint64
	}
	run := func(days int) outcome {
		g := trace.CommonConfig(400)
		g.Horizon = time.Duration(days) * 24 * time.Hour
		src, err := trace.NewGeneratorSource(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkpoints := 0
		write := func(cp *Checkpoint) error {
			checkpoints++
			if n := len(cp.CacheKeys); n > decisionCacheCap {
				t.Errorf("%d days: checkpoint at %d lists %d cache keys, past the cap %d",
					days, cp.NextInterval, n, decisionCacheCap)
			}
			return nil
		}
		if _, err := eng.RunSource(src, &RunOptions{
			Checkpoint: &CheckpointOptions{Every: 96, Write: write},
		}); err != nil {
			t.Fatal(err)
		}
		if checkpoints == 0 {
			t.Fatalf("%d days: no checkpoint written", days)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		out := outcome{cacheLen: eng.Controller().CacheLen(), heap: ms.HeapAlloc}
		runtime.KeepAlive(eng)
		return out
	}
	day, long := run(1), run(16)
	for _, o := range []outcome{day, long} {
		if o.cacheLen > decisionCacheCap {
			t.Errorf("CacheLen = %d, past the cap %d", o.cacheLen, decisionCacheCap)
		}
	}
	if day.cacheLen != decisionCacheCap {
		t.Errorf("1 day filled %d cache entries; the test needs a full cache (%d)", day.cacheLen, decisionCacheCap)
	}
	const slack = 2 << 20
	if long.heap > day.heap*3/2+slack {
		t.Errorf("live heap grew from %d B at 1 day to %d B at 16 days", day.heap, long.heap)
	}
}

// seasonalResumeObserver records the decision-cache counters when the run
// resumes and after its first interval.
type seasonalResumeObserver struct {
	stats                func() (hits, calls uint64)
	resumeHits, resumeCs uint64
	firstHits, firstCs   uint64
	seen                 int
}

func (o *seasonalResumeObserver) AttachCacheStats(stats func() (hits, calls uint64)) {
	o.stats = stats
}
func (o *seasonalResumeObserver) ObserveResume(int) {
	o.resumeHits, o.resumeCs = o.stats()
}
func (o *seasonalResumeObserver) ObserveInterval(int, IntervalResult) {
	if o.seen++; o.seen == 1 {
		o.firstHits, o.firstCs = o.stats()
	}
}
func (o *seasonalResumeObserver) ObserveCheckpoint(int) {}
func (o *seasonalResumeObserver) ObserveHalt(int)       {}

// flatTrace holds every server at its own constant utilization, so each
// interval decides exactly the planes of the one before.
func flatTrace(t *testing.T, servers, intervals int) *trace.Trace {
	t.Helper()
	tr, err := trace.New("flat", trace.Common, servers, intervals, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for s := range tr.U {
		for i := range tr.U[s] {
			tr.U[s][i] = float64(s%17+1) / 18
		}
	}
	return tr
}

// TestSeasonalResumeWarmsResumeColdSide pins the resume warm-up against the
// environment: a quantized seasonal run resumed on a trace whose planes
// repeat every interval must serve its whole first interval from the warmed
// cache, which only happens when the checkpoint's keys are warmed at the
// resumed interval's cold side rather than the default one.
//
// The ranges step ahead of the merger, so the trace ends right after the
// resume interval to keep later intervals out of the count.
func TestSeasonalResumeWarmsResumeColdSide(t *testing.T) {
	const servers, haltAfter = 60, 40
	const intervals = haltAfter + 1
	tr := flatTrace(t, servers, intervals)
	cfg := seasonalConfig(sched.Original)
	cfg.DecisionQuantum = 1.0 / 512
	if cold := cfg.EnvSource().At(haltAfter).ColdSide; cold == cfg.ColdSource {
		t.Fatalf("cold side at the resume interval equals the default %v; the test would prove nothing", cold)
	}
	source := func() trace.Source {
		src, err := trace.NewTraceSource(tr)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	if _, err := eng.RunSource(source(), &RunOptions{
		HaltAfter:  haltAfter,
		Checkpoint: &CheckpointOptions{Write: func(c *Checkpoint) error { cp = c; return nil }},
	}); err != ErrHalted {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	resumed, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := &seasonalResumeObserver{}
	if _, err := resumed.RunSource(source(), &RunOptions{Resume: cp, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	calls, hits := obs.firstCs-obs.resumeCs, obs.firstHits-obs.resumeHits
	if calls == 0 || hits != calls {
		t.Errorf("first resumed interval: %d hits of %d decisions, want every decision a hit", hits, calls)
	}
}
