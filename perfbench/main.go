// Command perfbench is the repository benchmark: it runs one named workload
// through the simulator's public entry points, checks every result against an
// independent reference, and prints end-to-end metrics (or, with -trace 1,
// per-layer metrics) with a one-line JSON summary last.
//
// Run it through the launcher, which builds it from the checkout:
//
//	python3 perfbench/run.py --workload fleet-week-exact --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/h2p-sim/h2p/internal/obs"
)

// sizes are the workload shapes. Tests shrink them; the benchmark uses
// defaultSizes.
type sizes struct {
	fleetServers, fleetIntervals int
	fleetRefShards               int
	csvServers, csvIntervals     int
	csvCheckpointEvery           int
	serveServers, serveIntervals int
	serveTenants, serveBatch     int
	setupReps                    int
	codecReps                    int
}

// intervalsPerDay is the number of 5-minute control intervals in a day.
const intervalsPerDay = 24 * 60 / intervalMinutes

var defaultSizes = sizes{
	fleetServers:       10000,
	fleetIntervals:     7 * intervalsPerDay,
	fleetRefShards:     2,
	csvServers:         1000,
	csvIntervals:       14 * intervalsPerDay,
	csvCheckpointEvery: 256,
	serveServers:       200,
	serveIntervals:     48,
	serveTenants:       2,
	serveBatch:         250,
	setupReps:          3,
	codecReps:          21,
}

// params is one benchmark invocation.
type params struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string // scratch directory inside the checkout
	size    sizes
	// tamper, when set, rewrites every result's canonical bytes before they
	// are fingerprinted: the seam the tests use to prove that a corrupted
	// result is counted as failed.
	tamper func([]byte) []byte
}

// outcome is what one workload measured.
type outcome struct {
	attempted, failed int
	failures          []string
	setup             []float64 // seconds per setup repetition
	latencies         []float64 // seconds per verified operation
	windows           []window
	// reference is the simulated-result digest every operation must
	// reproduce; referenceLayout says how it was computed.
	reference, referenceLayout string

	// Traced run only.
	layers    map[string]float64
	layerOnly map[string]float64
	notes     []string
	spans     *spanLog
}

// window is one measured stretch of work: a simulation operation, or one
// server instance's batch of requests.
type window struct {
	runs  int   // verified operations
	cells int64 // their server x interval cells
	busy  time.Duration
}

// busy is the measured time of every window.
func (o *outcome) busy() time.Duration {
	var d time.Duration
	for _, w := range o.windows {
		d += w.busy
	}
	return d
}

// fail records a failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation whose digest must equal want, and
// reports whether it did.
func (o *outcome) check(what, got, want string) bool {
	o.attempted++
	if got != want {
		o.fail("%s: digest %s, reference %s", what, got, want)
		return false
	}
	return true
}

// endToEnd reduces the outcome to the end-to-end metrics.
func (o *outcome) endToEnd() (map[string]float64, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// Rates are medians over the measured windows, so one window slowed
	// by a neighbour on a shared host does not move them.
	var cellRate, runRate []float64
	for _, w := range o.windows {
		cellRate = append(cellRate, float64(w.cells)/w.busy.Seconds())
		runRate = append(runRate, float64(w.runs)/w.busy.Seconds())
	}
	m := map[string]float64{
		"setup_s":                median(o.setup),
		"server_intervals_per_s": median(cellRate),
		"peak_rss_mb":            rss,
		"runs_per_s":             median(runRate),
		"run_latency_p50_ms":     quantile(o.latencies, 0.5) * 1e3,
		"run_latency_p99_ms":     quantile(o.latencies, 0.99) * 1e3,
		"error_rate":             float64(o.failed) / math.Max(1, float64(o.attempted)),
	}
	if len(o.latencies) == 0 {
		// Nothing verified: there is no latency to report, and the result
		// line says so with "correct": false.
		m["run_latency_p50_ms"], m["run_latency_p99_ms"] = 0, 0
	}
	return m, nil
}

// workload is one named benchmark workload.
type workload struct {
	name, why string
	run       func(ctx context.Context, p params) (*outcome, error)
}

var workloads = []workload{
	{"fleet-week-exact", "default config (exact quantum, unsharded): one LoadBalance week of a 10k-server irregular trace; sched does most of the work", fleetWeek},
	{"csv-resume-quantized", "CSV decode, shard pipeline and checkpoint halt/resume of a 2-week common trace at quantum 1/512, where decide is nearly all cache hits", csvResume},
	{"serve-small-runs", "two closed-loop tenants posting small runs to an in-process run server; serve and obs dominate", serveRuns},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds (the untraced run repeats operations until they are spent)")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	root := fs.String("root", ".", "repository root, for the commit stamp")
	out := fs.String("out", ".bench_build", "directory for fixtures and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(*out, "perfbench-"+w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p := params{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1, dir: dir, size: defaultSizes}

	env := environment(*root)
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench: workload %s, seed %d, %g s, trace %d\n", w.name, *seed, *seconds, *traced)
	fmt.Fprintf(&b, "  why: %s\n", w.why)
	fmt.Fprintf(&b, "env: %s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n",
		env.GoVersion, env.GOOS, env.GOARCH, env.GOMAXPROCS, env.NumCPU, env.CPUModel, env.Commit)
	io.WriteString(stdout, b.String())

	res, code := measure(context.Background(), w, p, *out, env)
	io.WriteString(stdout, res.report)
	line, err := json.Marshal(res.line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.err != nil {
		fmt.Fprintln(stderr, "perfbench:", res.err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

// measured is a finished invocation: the human report, the result line, and
// an error when no result could be produced.
type measured struct {
	report string
	line   resultLine
	err    error
}

// measure runs the workload and assembles its report. The exit code is 0
// only when every operation matched its reference.
func measure(ctx context.Context, w workload, p params, out string, env obs.Environment) (measured, int) {
	o, err := w.run(ctx, p)
	if err != nil {
		return measured{err: fmt.Errorf("%s: %w", w.name, err)}, 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digest: %s (reference: %s); %d of %d operations matched\n",
		o.reference, o.referenceLayout, o.attempted-o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	e2e, err := o.endToEnd()
	if err != nil {
		return measured{err: err}, 1
	}
	notes := map[string]string{
		"setup_s":            fmt.Sprintf("median of %d", len(o.setup)),
		"run_latency_p50_ms": fmt.Sprintf("n=%d", len(o.latencies)),
		"run_latency_p99_ms": fmt.Sprintf("n=%d", len(o.latencies)),
		"error_rate":         fmt.Sprintf("%d failed of %d attempted", o.failed, o.attempted),
	}
	if n := len(o.windows); n > 0 && n <= 50 {
		b.WriteString("runs/s per measured window:")
		for _, w := range o.windows {
			fmt.Fprintf(&b, " %.4g", float64(w.runs)/w.busy.Seconds())
		}
		b.WriteByte('\n')
	}
	b.WriteString("end-to-end (host time):\n")
	printTable(&b, append(append([]metricDef(nil), endToEnd...), printedOnly...), e2e, notes)

	defs, values := endToEnd, e2e
	if p.traced {
		b.WriteString("per-layer (traced run):\n")
		printTable(&b, perLayer, o.layers, nil)
		printTable(&b, layerOnly, o.layerOnly, nil)
		for _, n := range o.notes {
			b.WriteString(n + "\n")
		}
		path := filepath.Join(out, fmt.Sprintf("perfbench-%s-seed%d.trace.json", w.name, p.seed))
		meta := map[string]any{"workload": w.name, "seed": p.seed, "env": env}
		if err := o.spans.write(path, meta); err != nil {
			return measured{err: err}, 1
		}
		fmt.Fprintf(&b, "spans: %d written to %s\n", o.spans.len(), path)
		defs, values = perLayer, o.layers
	}
	ms, err := pick(defs, values)
	if err != nil {
		return measured{err: err}, 1
	}
	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: ms}
	code := 0
	if o.failed > 0 || o.attempted == 0 {
		line.Correct = false
		code = 1
	}
	return measured{report: b.String(), line: line}, code
}

// environment stamps the run: obs.CaptureEnvironment, with the commit read
// from git when the build carries no VCS information.
func environment(root string) obs.Environment {
	env := obs.CaptureEnvironment()
	if env.Commit == "" {
		env.Commit = gitCommit(root)
	}
	return env
}

// gitCommit returns HEAD of the repository at root (with "-dirty" when the
// tracked files differ), or "unknown" outside a git checkout.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	rev, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(rev))
	if err := exec.Command("git", "-C", root, "diff", "--quiet", "HEAD", "--").Run(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			commit += "-dirty"
		}
	}
	return commit
}

// runtimeGC returns the cumulative GC cycle count.
func runtimeGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
