package shard

import (
	"errors"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
)

// TestShardCacheStatsCountEachDecisionOnce pins the shard-summed cache
// stats to one call per decision whether or not a telemetry registry is
// attached: every shard's controller mirrors into the same registry
// counters, and the sum must not count them once per shard.
func TestShardCacheStatsCountEachDecisionOnce(t *testing.T) {
	const servers, shards = 100, 2
	gcfg := trace.CommonConfig(servers)
	gcfg.Horizon = 4 * time.Hour // 48 intervals
	for _, withTelemetry := range []bool{false, true} {
		cfg := core.DefaultConfig(sched.LoadBalance)
		if withTelemetry {
			cfg.Telemetry = telemetry.New()
		}
		decisions := uint64(cfg.Circulations(servers) * 48)
		obs := &shardObserver{}
		shardedRun(t, cfg, gcfg, 5, &Options{Shards: shards, Observer: obs})
		if _, calls := obs.cacheStats(); calls != decisions {
			t.Errorf("telemetry=%v: cache stats report %d calls for %d decisions", withTelemetry, calls, decisions)
		}
		if !withTelemetry {
			continue
		}
		reg := cfg.Telemetry
		if calls := reg.Counter("h2p_decision_cache_calls_total", "").Value(); calls != decisions {
			t.Errorf("registry reports %d calls for %d decisions", calls, decisions)
		}
		inserts := reg.Counter("h2p_decision_cache_inserts_total", "").Value()
		if entries := reg.Gauge("h2p_decision_cache_entries", "").Value(); inserts == 0 || entries != float64(inserts) {
			t.Errorf("entries gauge = %v across shards, want the %d inserts", entries, inserts)
		}
	}
}

// resumeStatsObserver records the shard-summed cache counters when the run
// resumes.
type resumeStatsObserver struct {
	shardObserver
	resumeHits, resumeCalls uint64
}

func (o *resumeStatsObserver) ObserveResume(int) {
	o.resumeHits, o.resumeCalls = o.cacheStats()
}

// TestShardedSeasonalResumeWarmsResumeColdSide is the sharded resume
// warm-up pin: on a trace whose planes repeat every interval, a quantized
// seasonal run resumed from a sharded checkpoint must serve its whole first
// interval from the caches warmed at the resumed interval's cold side. The
// shards step ahead of the merger, so the trace ends right after the resume
// interval to keep later intervals out of the count.
func TestShardedSeasonalResumeWarmsResumeColdSide(t *testing.T) {
	const servers, haltAfter, shards = 60, 40, 3
	const intervals = haltAfter + 1
	tr, err := trace.New("flat", trace.Common, servers, intervals, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for s := range tr.U {
		for i := range tr.U[s] {
			tr.U[s][i] = float64(s%17+1) / 18
		}
	}
	cfg := shardConfig(sched.Original)
	cfg.DecisionQuantum = 1.0 / 512
	seasonal := env.DefaultSeasonal(42)
	seasonal.IntervalsPerDay = 48
	cfg.Env = seasonal
	if cold := cfg.EnvSource().At(haltAfter).ColdSide; cold == cfg.ColdSource {
		t.Fatalf("cold side at the resume interval equals the default %v; the test would prove nothing", cold)
	}
	run := func(opts *Options) error {
		src, err := trace.NewTraceSource(tr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunSource(cfg, src, opts)
		return err
	}
	var cp *Checkpoint
	if err := run(&Options{Shards: shards, HaltAfter: haltAfter,
		Checkpoint: &CheckpointOptions{Write: func(c *Checkpoint) error { cp = c; return nil }},
	}); !errors.Is(err, core.ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	obs := &resumeStatsObserver{}
	if err := run(&Options{Shards: shards, Resume: cp, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	endHits, endCalls := obs.cacheStats()
	calls, hits := endCalls-obs.resumeCalls, endHits-obs.resumeHits
	if calls == 0 || hits != calls {
		t.Errorf("first resumed interval: %d hits of %d decisions, want every decision a hit", hits, calls)
	}
}

// TestCheckpointCacheKeysBoundedAtCap pins the checkpoint size in the default
// exact quantum: a 4-shard run decides 28,800 mostly fresh planes a day,
// filling the run's one decision cache to its cap, and no checkpoint may list
// more keys than that cap — a per-shard cache union would list up to four
// times as many.
func TestCheckpointCacheKeysBoundedAtCap(t *testing.T) {
	const cacheCap = 4 * 4096 // sched's decision-cache entry cap
	cfg := core.DefaultConfig(sched.Original)
	cfg.ServersPerCirculation = 4 // 100 circulations
	g := trace.CommonConfig(400)
	g.Horizon = 24 * time.Hour
	most := 0
	write := func(cp *Checkpoint) error {
		if n := len(cp.Merged.CacheKeys); n > cacheCap {
			t.Errorf("checkpoint at %d lists %d cache keys, past the cap %d", cp.Merged.NextInterval, n, cacheCap)
		} else if n > most {
			most = n
		}
		return nil
	}
	shardedRun(t, cfg, g, 3, &Options{Shards: 4, Checkpoint: &CheckpointOptions{Every: 48, Write: write}})
	if most != cacheCap {
		t.Errorf("checkpoints list at most %d cache keys; the test needs a full cache (%d)", most, cacheCap)
	}
}
