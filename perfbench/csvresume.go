package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/serve"
	"github.com/h2p-sim/h2p/internal/shard"
	"github.com/h2p-sim/h2p/internal/trace"
)

// csvQuantum is the decision-cache quantum of csv-resume-quantized.
const csvQuantum = 1.0 / 512

// csvFixture is the generator trace csv-resume-quantized writes as CSV.
func csvFixture(sz sizes) trace.GeneratorConfig {
	gc := trace.CommonConfig(sz.csvServers)
	gc.Horizon = time.Duration(sz.csvIntervals) * gc.Interval
	return gc
}

// writeFixture writes the seeded common trace as a canonical CSV file.
func writeFixture(path string, gc trace.GeneratorConfig, seed int64, tmp string) error {
	src, err := trace.NewGeneratorSource(gc, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.ConvertToCSV(src, f, tmp); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csvTrace instruments one halted-and-resumed run for the traced run. A nil
// *csvTrace leaves the run untouched.
type csvTrace struct {
	spans       *spanLog
	parent, run int64
	journal     *obs.RunRecorder
	intervals   int
	sources     []*timedSource
	observers   []*runObserver
	checkpoints int
	bytes       int64
	write       time.Duration
	resumeAt    time.Time
}

func (c *csvTrace) wrap(src trace.Source) trace.Source {
	if c == nil {
		return src
	}
	ts := newTimedSource(src, c.spans, c.parent, c.run)
	c.sources = append(c.sources, ts)
	return ts
}

func (c *csvTrace) observe(opts *shard.Options) {
	if c == nil {
		return
	}
	ob := newRunObserver(c.journal, c.spans, c.parent, c.run, c.intervals)
	c.observers = append(c.observers, ob)
	opts.Observer = ob
}

func (c *csvTrace) wrote(n int, next int, t0, t1 time.Time) {
	if c == nil {
		return
	}
	c.checkpoints++
	c.bytes += int64(n)
	c.write += t1.Sub(t0)
	c.spans.add("core.checkpoint_write", c.parent, c.run, next, t0, t1)
}

// haltResume is one csv-resume-quantized operation: stream the CSV through
// the shard pipeline with checkpoints every csvCheckpointEvery intervals to a
// JSON file, halt at the middle, read the checkpoint back and resume on a
// freshly opened source (which replays the prefix: CSVSource cannot seek).
// It returns the digest of the two legs together and the operation's time.
func haltResume(ctx context.Context, fleet *core.Fleet, cfg core.Config, open opener, p params, ins *csvTrace) (string, time.Duration, error) {
	cpPath := filepath.Join(p.dir, "checkpoint.json")
	dg := newDigester()
	write := func(cp *shard.Checkpoint) error {
		t0 := time.Now()
		b, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		if err := os.WriteFile(cpPath, b, 0o644); err != nil {
			return err
		}
		ins.wrote(len(b), cp.Merged.NextInterval, t0, time.Now())
		return nil
	}
	leg := func(resume *shard.Checkpoint, halt int) (*core.Result, error) {
		src, err := open()
		if err != nil {
			return nil, err
		}
		src = ins.wrap(src)
		defer closeSource(src)
		opts := &shard.Options{
			OnInterval: dg.interval,
			Checkpoint: &shard.CheckpointOptions{Every: p.size.csvCheckpointEvery, Write: write},
			Resume:     resume,
			HaltAfter:  halt,
		}
		ins.observe(opts)
		return shard.Run(ctx, fleet, cfg, src, opts)
	}

	t0 := time.Now()
	if _, err := leg(nil, p.size.csvIntervals/2); !errors.Is(err, core.ErrHalted) {
		return "", time.Since(t0), fmt.Errorf("first leg did not halt: %v", err)
	}
	tr := time.Now()
	b, err := os.ReadFile(cpPath)
	if err != nil {
		return "", time.Since(t0), err
	}
	var cp shard.Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return "", time.Since(t0), fmt.Errorf("checkpoint: %w", err)
	}
	if ins != nil {
		ins.resumeAt = tr
	}
	res, err := leg(&cp, 0)
	d := time.Since(t0)
	if err != nil {
		return "", d, fmt.Errorf("resumed leg: %w", err)
	}
	got, err := dg.sum(res, p.tamper)
	return got, d, err
}

// csvResume streams an Original-scheme common trace, written as CSV at
// set-up, through trace.OpenCSVFile and shard.Run (Shards 0: one shard per
// CPU) at quantum 1/512, halting mid-run and resuming from the checkpoint
// file. The referee is the uninterrupted run of the same file.
func csvResume(ctx context.Context, p params) (*outcome, error) {
	sz := p.size
	fixture := filepath.Join(p.dir, "common.csv")
	if err := writeFixture(fixture, csvFixture(sz), p.seed, p.dir); err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	cfg := core.DefaultConfig(sched.Original)
	cfg.DecisionQuantum = csvQuantum
	open := func() (trace.Source, error) { return trace.OpenCSVFile(fixture) }
	o := &outcome{}
	li := &layerInputs{}
	fleet, err := setupSim(p, cfg, open, o, li)
	if err != nil {
		return nil, err
	}
	if p.traced {
		o.spans = newSpanLog()
	}

	ref := newDigester()
	src, err := open()
	if err != nil {
		return nil, err
	}
	meta := src.Meta()
	res, err := shard.Run(ctx, fleet, cfg, src, &shard.Options{OnInterval: ref.interval})
	closeSource(src)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if o.reference, err = ref.sum(res, nil); err != nil {
		return nil, err
	}
	o.referenceLayout = "the uninterrupted run of the same file"

	op := func() (string, time.Duration, error) { return haltResume(ctx, fleet, cfg, open, p, nil) }
	cells := int64(sz.csvServers) * int64(sz.csvIntervals)
	if !p.traced {
		between := func() error {
			_, err := setupOnce(cfg, open, o, li)
			return err
		}
		return o, o.repeat(p, cells, "halt+resume", between, op)
	}

	p.seconds = 0
	if err := o.repeat(p, cells, "untraced halt+resume", nil, op); err != nil {
		return nil, err
	}

	const realRun = 1
	runSpan := o.spans.reserve()
	body, err := json.Marshal(&serve.RunRequest{
		Trace: serve.TraceSpec{File: filepath.Base(fixture)}, Scheme: "original",
		Quantum: csvQuantum, Shards: core.ResolveParallelism(0),
	})
	if err != nil {
		return nil, err
	}
	req, err := serve.ParseRunRequest(bytes.NewReader(body), 0)
	if err != nil {
		return nil, err
	}
	journal, rec, jw := newJournal(req, meta, "traced")
	ins := &csvTrace{spans: o.spans, parent: runSpan, run: realRun, journal: journal, intervals: sz.csvIntervals}
	runtime.GC() // as before each untraced operation
	gc0 := runtimeGC()
	t0 := time.Now()
	got, d, err := haltResume(ctx, fleet, cfg, open, p, ins)
	li.gcCycles = runtimeGC() - gc0
	o.spans.finish(runSpan, "run", 0, realRun, -1, t0, t0.Add(d))
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	o.check("traced halt+resume", got, o.reference)
	if err := o.repeat(p, cells, "untraced halt+resume", nil, op); err != nil {
		return nil, err
	}
	o.notes = append(o.notes, overheadNote(o.busy()/2, d, "halt+resume"))
	if err := rec.Flush(); err != nil {
		return nil, err
	}
	for _, s := range ins.sources {
		li.addSource(s)
	}
	for _, ob := range ins.observers {
		li.addObserver(ob)
	}
	li.useful += sz.csvIntervals
	li.realWall += d
	li.realIntervals += sz.csvIntervals
	li.servers = sz.csvServers
	li.journalBytes, li.journalRuns = jw.n, 1
	if err := li.measureServe(body, res, sz.codecReps); err != nil {
		return nil, err
	}
	resumed := ins.observers[len(ins.observers)-1]
	o.layerOnly = map[string]float64{
		"core.checkpoints":        float64(ins.checkpoints),
		"core.checkpoint_bytes":   float64(ins.bytes) / float64(max(1, ins.checkpoints)),
		"core.checkpoint_write_s": ins.write.Seconds(),
		"core.resume_s":           resumed.firstMerged.Sub(ins.resumeAt).Seconds(),
	}
	if err := replayCheck(ctx, fleet, cfg, open, p, o, li, realRun+1, o.reference); err != nil {
		return nil, err
	}
	o.layers = li.metrics()
	o.notes = append(o.notes, budgetLine(li.replay))
	return o, nil
}
