package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/serve"
	"github.com/h2p-sim/h2p/internal/trace"
)

// opener opens a fresh trace source for one run.
type opener func() (trace.Source, error)

// closeSource releases a file-backed source; the read side is finished or
// abandoned, so a close error changes nothing.
func closeSource(src trace.Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close() //nolint:errcheck // read-only source
	}
}

// setupOnce measures what a user pays before a simulation's first interval,
// on fresh state: a new fleet and its look-up space, an engine on it, and
// opening the source. It returns the fleet.
func setupOnce(cfg core.Config, open opener, o *outcome, li *layerInputs) (*core.Fleet, error) {
	t0 := time.Now()
	fleet := core.NewFleet()
	if _, err := fleet.Space(cfg.Spec, cfg.Axes); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if _, err := fleet.Engine(cfg); err != nil {
		return nil, err
	}
	t2 := time.Now()
	src, err := open()
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	closeSource(src)
	o.setup = append(o.setup, t3.Sub(t0).Seconds())
	li.spaceS = append(li.spaceS, t1.Sub(t0).Seconds())
	li.openS = append(li.openS, t3.Sub(t2).Seconds())
	return fleet, nil
}

// setupSim runs setupOnce setupReps times and returns the last fleet, whose
// look-up space the measured runs share (engines, and so decision caches,
// stay per run).
func setupSim(p params, cfg core.Config, open opener, o *outcome, li *layerInputs) (*core.Fleet, error) {
	var fleet *core.Fleet
	var err error
	for k := 0; k < p.size.setupReps; k++ {
		if fleet, err = setupOnce(cfg, open, o, li); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// repeat runs op until p.seconds of measured time are spent, at least once.
// Each run counts as attempted; a verified one adds its latency and cells.
// A run that errors ends the loop, since the next would fail the same way.
// Before each run, between (when set) measures one more set-up, so the
// set-up samples spread over the whole window rather than its start.
func (o *outcome) repeat(p params, cells int64, what string, between func() error, op func() (string, time.Duration, error)) error {
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < p.seconds; k++ {
		if between != nil {
			if err := between(); err != nil {
				return err
			}
		}
		// Each operation starts from a collected heap, so neither its time
		// nor the peak it reaches depends on the previous one's garbage.
		runtime.GC()
		got, d, err := op()
		w := window{busy: d}
		if err != nil {
			o.attempted++
			o.fail("%s %d: %v", what, k, err)
			o.windows = append(o.windows, w)
			return nil
		}
		if o.check(fmt.Sprintf("%s %d", what, k), got, o.reference) {
			o.latencies = append(o.latencies, d.Seconds())
			w.runs, w.cells = 1, cells
		}
		o.windows = append(o.windows, w)
	}
	return nil
}

// newJournal returns a run recorder over a byte-counting writer, the cost of
// journaling a run without a file.
func newJournal(req *serve.RunRequest, meta trace.Meta, run string) (*obs.RunRecorder, *obs.Recorder, *countingWriter) {
	w := &countingWriter{}
	rec := obs.NewRecorder(w)
	return obs.NewRunRecorder(rec, req.Manifest(run, meta, obs.CaptureEnvironment()), 0), rec, w
}

// overheadNote compares the traced real run with the mean untraced one.
func overheadNote(untraced, traced time.Duration, what string) string {
	return fmt.Sprintf("tracing overhead: %s %.1f ms traced vs %.1f ms untraced (%+.1f ms, %+.1f%%)",
		what, traced.Seconds()*1e3, untraced.Seconds()*1e3, (traced-untraced).Seconds()*1e3,
		100*(traced.Seconds()/untraced.Seconds()-1))
}

// replayCheck runs the layer replay and checks its digest against the
// reference, recording the outcome in o.
func replayCheck(ctx context.Context, fleet *core.Fleet, cfg core.Config, open opener, p params, o *outcome, li *layerInputs, run int64, want string) error {
	res, dg, st, err := replayLayers(ctx, fleet, cfg, open, o.spans, run)
	if err != nil {
		return err
	}
	got, err := dg.sum(res, p.tamper)
	if err != nil {
		return err
	}
	ok := o.check("layer replay", got, want)
	o.notes = append(o.notes, fmt.Sprintf("replay digest: %s, equal to the untraced run's: %v", got, ok))
	li.replay.add(st)
	li.replay.servers = st.servers
	return nil
}
