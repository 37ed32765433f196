package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/serve"
	"github.com/h2p-sim/h2p/internal/shard"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
)

// The serve-small-runs request cycle: 3 classes x 2 schemes x 5 seeds, every
// other request sharded, as in h2pload's mix.
var (
	serveClasses = []string{"drastic", "irregular", "common"}
	serveSchemes = []string{"original", "loadbalance"}
)

const serveSeeds = 5

// serveShards is the shard count of the sharded half of the mix.
const serveShards = 2

// serveMix returns the request bodies of the cycle, in submission order.
func serveMix(seed int64, sz sizes) ([][]byte, error) {
	bodies := make([][]byte, len(serveClasses)*len(serveSchemes)*serveSeeds)
	for i := range bodies {
		req := serve.RunRequest{
			Trace: serve.TraceSpec{
				Class:     serveClasses[i%len(serveClasses)],
				Servers:   sz.serveServers,
				Seed:      seed*1000 + int64(1+i%serveSeeds),
				Intervals: sz.serveIntervals,
			},
			Scheme: serveSchemes[i%len(serveSchemes)],
			Shards: serveShards * (i % 2),
		}
		var err error
		if bodies[i], err = json.Marshal(&req); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// serveReferences computes every request's expected result hash locally,
// through the library path the server runs (serve.Execute on a private
// fleet), as h2pload does.
func serveReferences(ctx context.Context, bodies [][]byte) ([]string, []*core.Result, error) {
	fleet := core.NewFleet()
	hashes := make([]string, len(bodies))
	results := make([]*core.Result, len(bodies))
	for i, body := range bodies {
		req, err := serve.ParseRunRequest(bytes.NewReader(body), 0)
		if err != nil {
			return nil, nil, err
		}
		res, err := serve.Execute(ctx, fleet, req, "", nil)
		if err != nil {
			return nil, nil, fmt.Errorf("reference %d: %w", i, err)
		}
		b, err := serve.MarshalResult(res)
		if err != nil {
			return nil, nil, err
		}
		hashes[i], results[i] = serve.HashBytes(b), res
	}
	return hashes, results, nil
}

// serverInstance is one run server behind a loopback listener, journaling to
// a file in the scratch directory.
type serverInstance struct {
	srv       *serve.Server
	ln        *telemetry.Server
	rec       *obs.Recorder
	journal   string
	base      string
	transport *http.Transport
	client    *http.Client
}

// startServer builds a server the way a user would before the first run:
// the shared fleet's look-up space, the journal, the server and its
// listener. It returns the instance and that set-up time.
func startServer(dir string, k int) (*serverInstance, time.Duration, error) {
	t0 := time.Now()
	fleet := core.NewFleet()
	cfg := core.DefaultConfig(sched.Original) // every request shares its spec and axes
	if _, err := fleet.Space(cfg.Spec, cfg.Axes); err != nil {
		return nil, 0, err
	}
	si := &serverInstance{journal: filepath.Join(dir, fmt.Sprintf("journal-%03d.jsonl", k))}
	var err error
	if si.rec, err = obs.Create(si.journal, false); err != nil {
		return nil, 0, err
	}
	si.srv = serve.NewServer(serve.Config{Fleet: fleet, Recorder: si.rec, Queue: 1024})
	if si.ln, err = telemetry.ServeHandler("127.0.0.1:0", si.srv.Handler()); err != nil {
		si.srv.Close() //nolint:errcheck // already failing
		si.rec.Close() //nolint:errcheck // already failing
		return nil, 0, err
	}
	d := time.Since(t0)
	si.base = "http://" + si.ln.Addr()
	si.transport = &http.Transport{MaxIdleConnsPerHost: 8}
	si.client = &http.Client{Transport: si.transport, Timeout: time.Minute}
	return si, d, nil
}

// stop drains the server, closes the listener and the journal, and returns
// the journal's size before removing it.
func (si *serverInstance) stop() (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := si.srv.Drain(ctx)
	si.transport.CloseIdleConnections()
	if serr := si.ln.Shutdown(ctx); err == nil {
		err = serr
	}
	if cerr := si.rec.Close(); err == nil {
		err = cerr
	}
	st, serr := os.Stat(si.journal)
	if err == nil {
		err = serr
	}
	os.Remove(si.journal) //nolint:errcheck // scratch directory is removed at exit
	if st == nil {
		return 0, err
	}
	return st.Size(), err
}

// requestRecord is one submitted run as its tenant saw it.
type requestRecord struct {
	latency, submit, fetch time.Duration
	polls                  int
	queueMS, execMS        int64
	rejected               bool
	err                    error
}

// do sends one request and decodes a JSON reply into v (when non-nil),
// returning the status code.
func (si *serverInstance) do(ctx context.Context, method, path, tenant string, body []byte, v any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, si.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := si.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if v != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, b, err
		}
	}
	return resp.StatusCode, b, nil
}

// request submits one run, long-polls it to a terminal state, fetches the
// result and checks its hash against want. The latency runs from the submit
// until the verified result bytes are in hand.
func (si *serverInstance) request(ctx context.Context, tenant string, body []byte, want string, p params, spans *spanLog, run int64) (r requestRecord) {
	root := spans.reserve()
	t0 := time.Now()
	defer func() { spans.finish(root, "serve.request", 0, run, -1, t0, time.Now()) }()

	var st serve.RunStatus
	code, raw, err := si.do(ctx, http.MethodPost, "/api/v1/runs", tenant, body, &st)
	t1 := time.Now()
	r.submit = t1.Sub(t0)
	spans.add("serve.submit", root, run, -1, t0, t1)
	switch {
	case err != nil:
		r.err = fmt.Errorf("submit: %w", err)
		return r
	case code != http.StatusAccepted:
		r.rejected = true
		r.err = fmt.Errorf("submit refused: %d %s", code, bytes.TrimSpace(raw))
		return r
	}
	for st.State != serve.StateDone && st.State != serve.StateFailed && st.State != serve.StateCancelled {
		tp := time.Now()
		code, raw, err = si.do(ctx, http.MethodGet, "/api/v1/runs/"+st.ID+"?wait=30s", tenant, nil, &st)
		r.polls++
		spans.add("serve.poll", root, run, -1, tp, time.Now())
		if err != nil || code != http.StatusOK {
			r.err = fmt.Errorf("poll %s: %d %v %s", st.ID, code, err, bytes.TrimSpace(raw))
			return r
		}
	}
	if st.State != serve.StateDone {
		r.err = fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
		return r
	}
	r.queueMS = st.StartedMS - st.SubmittedMS
	r.execMS = st.FinishedMS - st.StartedMS
	t2 := time.Now()
	code, raw, err = si.do(ctx, http.MethodGet, "/api/v1/runs/"+st.ID+"/result", tenant, nil, nil)
	t3 := time.Now()
	r.fetch = t3.Sub(t2)
	spans.add("serve.result_fetch", root, run, -1, t2, t3)
	if err != nil || code != http.StatusOK {
		r.err = fmt.Errorf("result %s: %d %v", st.ID, code, err)
		return r
	}
	if p.tamper != nil {
		raw = p.tamper(raw)
	}
	got := serve.HashBytes(raw)
	t4 := time.Now()
	spans.add("serve.verify", root, run, -1, t3, t4)
	if got != want {
		r.err = fmt.Errorf("run %s: result hash %s, reference %s", st.ID, got, want)
		return r
	}
	r.latency = t4.Sub(t0)
	return r
}

// batch drives the instance with closed-loop tenants, each submitting up to
// serveBatch requests in sequence (or until the deadline, after its first).
// It returns every record and the traffic's wall time.
func (si *serverInstance) batch(ctx context.Context, p params, bodies [][]byte, refs []string, deadline time.Time, spans *spanLog, runs *atomic.Int64) ([]requestRecord, time.Duration) {
	per := make([][]requestRecord, p.size.serveTenants)
	var wg sync.WaitGroup
	start := time.Now()
	for t := range per {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant%02d", t)
			for k := 0; k < p.size.serveBatch; k++ {
				if k > 0 && time.Now().After(deadline) {
					return
				}
				i := (t*7 + k) % len(bodies)
				per[t] = append(per[t], si.request(ctx, name, bodies[i], refs[i], p, spans, runs.Add(1)))
			}
		}(t)
	}
	wg.Wait()
	busy := time.Since(start)
	var all []requestRecord
	for _, recs := range per {
		all = append(all, recs...)
	}
	return all, busy
}

// fold counts a batch's records into the outcome.
func (o *outcome) fold(recs []requestRecord, busy time.Duration, cells int64) {
	w := window{busy: busy}
	for i, r := range recs {
		o.attempted++
		if r.err != nil {
			o.fail("request %d: %v", i, r.err)
			continue
		}
		o.latencies = append(o.latencies, r.latency.Seconds())
		w.runs++
		w.cells += cells
	}
	o.windows = append(o.windows, w)
}

// serveRuns drives an in-process serve.Server behind a loopback listener
// with two closed-loop tenants. Each server instance takes one batch of
// requests and is then drained and replaced, so the measured memory is that
// of a server holding one batch, not of one whose run table grows with the
// benchmark's length. The referee is the local library reference hash of
// every result.
func serveRuns(ctx context.Context, p params) (*outcome, error) {
	bodies, err := serveMix(p.seed, p.size)
	if err != nil {
		return nil, err
	}
	refs, results, err := serveReferences(ctx, bodies)
	if err != nil {
		return nil, err
	}
	o := &outcome{
		reference:       serve.HashBytes([]byte(strings.Join(refs, "\n"))),
		referenceLayout: fmt.Sprintf("hash of the %d per-request hashes computed through serve.Execute", len(refs)),
	}
	cells := int64(p.size.serveServers) * int64(p.size.serveIntervals)
	var runs atomic.Int64

	// oneBatch sets up an instance, drives one batch and stops it.
	oneBatch := func(k int, deadline time.Time, spans *spanLog) ([]requestRecord, time.Duration, int64, error) {
		runtime.GC() // as between simulation operations
		si, setup, err := startServer(p.dir, k)
		if err != nil {
			return nil, 0, 0, err
		}
		o.setup = append(o.setup, setup.Seconds())
		recs, busy := si.batch(ctx, p, bodies, refs, deadline, spans, &runs)
		jb, err := si.stop()
		return recs, busy, jb, err
	}

	if !p.traced {
		deadline := time.Now().Add(p.seconds)
		for k := 0; k == 0 || time.Now().Before(deadline); k++ {
			recs, busy, _, err := oneBatch(k, deadline, nil)
			if err != nil {
				return nil, err
			}
			o.fold(recs, busy, cells)
		}
		return o, nil
	}

	// Traced: an untraced batch on each side of the traced one (the
	// overhead baseline is their mean), then every distinct request through
	// the library with its layers timed.
	far := time.Now().Add(time.Hour)
	var traced []requestRecord
	var tracedBusy time.Duration
	var tracedJournal int64
	var untraced []time.Duration
	var untracedRuns int
	for k := 0; k < 3; k++ {
		var spans *spanLog
		if k == 1 {
			o.spans = newSpanLog()
			spans = o.spans
		}
		recs, busy, journalBytes, err := oneBatch(k, far, spans)
		if err != nil {
			return nil, err
		}
		if k != 1 {
			o.fold(recs, busy, cells)
			untraced = append(untraced, busy)
			untracedRuns += len(recs)
			continue
		}
		traced, tracedBusy, tracedJournal = recs, busy, journalBytes
	}
	var tr outcome
	tr.fold(traced, tracedBusy, cells)
	o.attempted += tr.attempted
	o.failed += tr.failed
	o.failures = append(o.failures, tr.failures...)
	perRun := (untraced[0] + untraced[1]).Seconds() / float64(untracedRuns)
	o.notes = append(o.notes, fmt.Sprintf("tracing overhead: %.3f ms per run traced vs %.3f ms untraced (%+.1f%%)",
		tracedBusy.Seconds()*1e3/float64(len(traced)), perRun*1e3,
		100*(tracedBusy.Seconds()/float64(len(traced))/perRun-1)))

	var submit, queue, exec, fetch []float64
	var polls, rejected int
	for _, r := range traced {
		if r.rejected {
			rejected++
		}
		if r.err != nil {
			continue
		}
		submit = append(submit, r.submit.Seconds()*1e3)
		queue = append(queue, float64(r.queueMS))
		exec = append(exec, float64(r.execMS))
		fetch = append(fetch, r.fetch.Seconds()*1e3)
		polls += r.polls
	}
	o.layerOnly = map[string]float64{
		"serve.submit_p50_ms":       median(submit),
		"serve.queue_wait_p50_ms":   median(queue),
		"serve.execute_p50_ms":      median(exec),
		"serve.polls_per_run":       float64(polls) / float64(max(1, len(submit))),
		"serve.result_fetch_p50_ms": median(fetch),
		"serve.rejected":            float64(rejected),
	}
	o.notes = append(o.notes, fmt.Sprintf("serve: mean queue wait %.3f ms, mean execute %.3f ms (RunStatus timestamps, ms resolution)", mean(queue), mean(exec)))

	li := &layerInputs{journalBytes: tracedJournal, journalRuns: len(traced)}
	if err := serveLayers(ctx, p, bodies, refs, results, o, li); err != nil {
		return nil, err
	}
	o.layers = li.metrics()
	o.notes = append(o.notes, budgetLine(li.replay))
	return o, nil
}

// serveLayers runs every distinct request of the mix through the same
// library calls serve.Execute makes, with the source, observer and layer
// replay instrumentation of the simulation workloads.
func serveLayers(ctx context.Context, p params, bodies [][]byte, refs []string, results []*core.Result, o *outcome, li *layerInputs) error {
	fleet := core.NewFleet()
	for i, body := range bodies {
		req, err := serve.ParseRunRequest(bytes.NewReader(body), 0)
		if err != nil {
			return err
		}
		cfg := req.EngineConfig()
		open := func() (trace.Source, error) { return req.Trace.Open("") }
		t0 := time.Now()
		if _, err := fleet.Space(cfg.Spec, cfg.Axes); err != nil {
			return err
		}
		t1 := time.Now()
		raw, err := open()
		if err != nil {
			return err
		}
		t2 := time.Now()
		if i == 0 {
			li.spaceS = append(li.spaceS, t1.Sub(t0).Seconds())
		}
		li.openS = append(li.openS, t2.Sub(t1).Seconds())

		run := int64(1_000_000 + 2*i)
		runSpan := o.spans.reserve()
		src := newTimedSource(raw, o.spans, runSpan, run)
		ob := newRunObserver(nil, o.spans, runSpan, run, src.Meta().Intervals)
		gc0 := runtimeGC()
		t3 := time.Now()
		ob.last = t3
		var res *core.Result
		if req.Shards > 0 {
			res, err = shard.Run(ctx, fleet, cfg, src, &shard.Options{Shards: req.Shards, Observer: ob})
		} else {
			var eng *core.Engine
			if eng, err = fleet.Engine(cfg); err == nil {
				res, err = eng.RunSourceContext(ctx, src, &core.RunOptions{Observer: ob})
			}
		}
		t4 := time.Now()
		li.gcCycles += runtimeGC() - gc0
		closeSource(src)
		o.spans.finish(runSpan, "run", 0, run, -1, t3, t4)
		if err != nil {
			return fmt.Errorf("library run %d: %w", i, err)
		}
		b, err := serve.MarshalResult(res)
		if err != nil {
			return err
		}
		if p.tamper != nil {
			b = p.tamper(b)
		}
		o.check(fmt.Sprintf("library run %d", i), serve.HashBytes(b), refs[i])
		li.addSource(src)
		li.useful += src.Meta().Intervals
		li.addObserver(ob)
		li.realWall += t4.Sub(t3)
		li.realIntervals += src.Meta().Intervals
		li.servers = src.Meta().Servers
		if err := li.measureServe(body, results[i], p.size.codecReps); err != nil {
			return err
		}

		rres, _, st, err := replayLayers(ctx, fleet, cfg, open, o.spans, run+1)
		if err != nil {
			return err
		}
		if b, err = serve.MarshalResult(rres); err != nil {
			return err
		}
		if p.tamper != nil {
			b = p.tamper(b)
		}
		o.check(fmt.Sprintf("layer replay %d", i), serve.HashBytes(b), refs[i])
		li.replay.add(st)
		li.replay.servers = st.servers
	}
	return nil
}
