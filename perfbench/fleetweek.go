package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/serve"
	"github.com/h2p-sim/h2p/internal/shard"
	"github.com/h2p-sim/h2p/internal/trace"
)

// fleetWeekRequest is the fleet-week-exact input: one LoadBalance run of an
// irregular (Google-like) generator trace, in the default configuration.
func fleetWeekRequest(seed int64, sz sizes) ([]byte, error) {
	return json.Marshal(&serve.RunRequest{
		Trace:  serve.TraceSpec{Class: "irregular", Servers: sz.fleetServers, Seed: seed, Intervals: sz.fleetIntervals},
		Scheme: "loadbalance",
	})
}

// fleetWeek runs the default configuration users get — exact decision
// quantum, Workers 0, unsharded — through the streaming engine path h2psim
// -stream takes per trace x scheme (core.Fleet.RunSourcesContext). The
// referee is the same source run through the sharded pipeline, a different
// layout that must agree bit for bit.
func fleetWeek(ctx context.Context, p params) (*outcome, error) {
	body, err := fleetWeekRequest(p.seed, p.size)
	if err != nil {
		return nil, err
	}
	req, err := serve.ParseRunRequest(bytes.NewReader(body), 0)
	if err != nil {
		return nil, err
	}
	cfg := req.EngineConfig()
	open := func() (trace.Source, error) { return req.Trace.Open("") }
	o := &outcome{}
	li := &layerInputs{}
	fleet, err := setupSim(p, cfg, open, o, li)
	if err != nil {
		return nil, err
	}
	servers, intervals := p.size.fleetServers, p.size.fleetIntervals
	if p.traced {
		o.spans = newSpanLog()
	}

	// Reference: the same source through the shard pipeline.
	var refObs *runObserver
	refOpts := &shard.Options{Shards: p.size.fleetRefShards}
	if p.traced {
		refObs = newRunObserver(nil, nil, 0, 0, intervals)
		refOpts.Observer = refObs
	}
	ref := newDigester()
	refOpts.OnInterval = ref.interval
	src, err := open()
	if err != nil {
		return nil, err
	}
	res, err := shard.Run(ctx, fleet, cfg, src, refOpts)
	closeSource(src)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if o.reference, err = ref.sum(res, nil); err != nil {
		return nil, err
	}
	o.referenceLayout = fmt.Sprintf("same source through shard.Run with %d shards", p.size.fleetRefShards)

	op := func() (string, time.Duration, error) {
		dg := newDigester()
		t0 := time.Now()
		rs, err := fleet.RunSourcesContext(ctx, cfg, []core.SourceRun{{
			Open: open, Scheme: cfg.Scheme, Opts: &core.RunOptions{OnInterval: dg.interval},
		}})
		d := time.Since(t0)
		if err != nil {
			return "", d, err
		}
		got, err := dg.sum(rs[0], p.tamper)
		return got, d, err
	}
	cells := int64(servers) * int64(intervals)
	if !p.traced {
		between := func() error {
			_, err := setupOnce(cfg, open, o, li)
			return err
		}
		return o, o.repeat(p, cells, "run", between, op)
	}

	// Traced: a traced real run between two untraced ones (the overhead
	// baseline is their mean, so neither side is the process's first run),
	// then the layer replay.
	p.seconds = 0
	if err := o.repeat(p, cells, "untraced run", nil, op); err != nil {
		return nil, err
	}
	li.addShard(refObs.shardStats())

	const realRun = 1
	runSpan := o.spans.reserve()
	raw, err := open()
	if err != nil {
		return nil, err
	}
	tsrc := newTimedSource(raw, o.spans, runSpan, realRun)
	journal, rec, jw := newJournal(req, tsrc.Meta(), "traced")
	ob := newRunObserver(journal, o.spans, runSpan, realRun, intervals)
	eng, err := fleet.Engine(cfg)
	if err != nil {
		return nil, err
	}
	dg := newDigester()
	runtime.GC() // as before each untraced operation
	gc0 := runtimeGC()
	t0 := time.Now()
	ob.last = t0
	res, err = eng.RunSourceContext(ctx, tsrc, &core.RunOptions{OnInterval: dg.interval, Observer: ob})
	t1 := time.Now()
	li.gcCycles = runtimeGC() - gc0
	closeSource(tsrc)
	o.spans.finish(runSpan, "run", 0, realRun, -1, t0, t1)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	journal.Done(res)
	if err := rec.Flush(); err != nil {
		return nil, err
	}
	got, err := dg.sum(res, p.tamper)
	if err != nil {
		return nil, err
	}
	o.check("traced run", got, o.reference)
	if err := o.repeat(p, cells, "untraced run", nil, op); err != nil {
		return nil, err
	}
	o.notes = append(o.notes, overheadNote(o.busy()/2, t1.Sub(t0), "real run"))
	li.addSource(tsrc)
	li.useful += intervals
	li.addObserver(ob)
	li.realWall += t1.Sub(t0)
	li.realIntervals += intervals
	li.servers = servers
	li.journalBytes, li.journalRuns = jw.n, 1
	if err := li.measureServe(body, res, p.size.codecReps); err != nil {
		return nil, err
	}
	if err := replayCheck(ctx, fleet, cfg, open, p, o, li, realRun+1, o.reference); err != nil {
		return nil, err
	}
	o.layers = li.metrics()
	o.notes = append(o.notes, budgetLine(li.replay))
	return o, nil
}
