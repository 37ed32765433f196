package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/serve"
)

// tinySizes shrink every workload to a fraction of a second.
var tinySizes = sizes{
	fleetServers:       100,
	fleetIntervals:     48,
	fleetRefShards:     2,
	csvServers:         60,
	csvIntervals:       96,
	csvCheckpointEvery: 16,
	serveServers:       50,
	serveIntervals:     24,
	serveTenants:       2,
	serveBatch:         4,
	setupReps:          2,
	codecReps:          2,
}

func tinyParams(t *testing.T, traced bool) params {
	return params{seed: 7, seconds: time.Millisecond, traced: traced, dir: t.TempDir(), size: tinySizes}
}

func TestWorkloadInputsAreDeterministicPerSeed(t *testing.T) {
	fw1, err := fleetWeekRequest(3, defaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	fw2, _ := fleetWeekRequest(3, defaultSizes)
	fw3, _ := fleetWeekRequest(4, defaultSizes)
	if !bytes.Equal(fw1, fw2) || bytes.Equal(fw1, fw3) {
		t.Errorf("fleet-week request: same seed equal %v, other seed differs %v", bytes.Equal(fw1, fw2), !bytes.Equal(fw1, fw3))
	}
	req, err := serve.ParseRunRequest(bytes.NewReader(fw1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if req.Trace.Servers != 10000 || req.Trace.Intervals != 7*intervalsPerDay {
		t.Errorf("fleet-week shape %d x %d, want 10000 x %d", req.Trace.Servers, req.Trace.Intervals, 7*intervalsPerDay)
	}

	m1, err := serveMix(3, defaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := serveMix(3, defaultSizes)
	m3, _ := serveMix(4, defaultSizes)
	if len(m1) != 30 {
		t.Fatalf("serve mix has %d requests, want 3 classes x 2 schemes x 5 seeds = 30", len(m1))
	}
	distinct := make(map[string]bool)
	for i := range m1 {
		if !bytes.Equal(m1[i], m2[i]) {
			t.Errorf("serve request %d differs between runs of one seed", i)
		}
		if bytes.Equal(m1[i], m3[i]) {
			t.Errorf("serve request %d is the same under another seed", i)
		}
		distinct[string(m1[i])] = true
	}
	if len(distinct) != len(m1) {
		t.Errorf("serve mix has %d distinct requests, want %d", len(distinct), len(m1))
	}

	dir := t.TempDir()
	fixture := func(name string, seed int64) []byte {
		path := filepath.Join(dir, name)
		if err := writeFixture(path, csvFixture(tinySizes), seed, dir); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := fixture("a.csv", 3), fixture("b.csv", 3), fixture("c.csv", 4)
	if !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Errorf("csv fixture: same seed equal %v, other seed differs %v", bytes.Equal(a, b), !bytes.Equal(a, c))
	}
}

// benchmarkJSON reads the metric lists of ../BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]string, names []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	return e2e, layers, names
}

func metricUnits(ms map[string]metricValue) map[string]string {
	out := make(map[string]string, len(ms))
	for k, v := range ms {
		out[k] = v.Unit
	}
	return out
}

func sameUnits(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var diff []string
	for k, u := range want {
		if got[k] != u {
			diff = append(diff, "want "+k+" ["+u+"], got ["+got[k]+"]")
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diff = append(diff, "unlisted "+k)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Errorf("%s: metric names differ from BENCHMARK.json: %v", what, diff)
	}
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers, names := benchmarkJSON(t)
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	env := obs.CaptureEnvironment()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			p := tinyParams(t, traced)
			res, code := measure(context.Background(), w, p, p.dir, env)
			if res.err != nil || code != 0 {
				t.Fatalf("%s traced=%v: code %d, err %v\n%s", w.name, traced, code, res.err, res.report)
			}
			want := e2e
			if traced {
				want = layers
				if _, err := os.Stat(filepath.Join(p.dir, "perfbench-"+w.name+"-seed7.trace.json")); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
			sameUnits(t, w.name, metricUnits(res.line.Metrics), want)
			if !res.line.Correct || res.line.Failed != 0 || res.line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d failed of %d", w.name, traced, res.line.Correct, res.line.Failed, res.line.Attempted)
			}
		}
	}
}

// reportValue returns the printed value of the named metric.
func reportValue(report, name string) string {
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == name {
			return f[1]
		}
	}
	return ""
}

func TestCorruptedResultIsCountedInErrorRate(t *testing.T) {
	env := obs.CaptureEnvironment()
	for _, w := range workloads {
		p := tinyParams(t, false)
		p.tamper = func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 1
			return c
		}
		res, code := measure(context.Background(), w, p, p.dir, env)
		if res.err != nil {
			t.Fatalf("%s: %v", w.name, res.err)
		}
		if code == 0 || res.line.Correct {
			t.Errorf("%s: corrupted results passed (code %d, correct %v)", w.name, code, res.line.Correct)
		}
		if res.line.Failed != res.line.Attempted || res.line.Attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted, want every operation failed", w.name, res.line.Failed, res.line.Attempted)
		}
		if got := reportValue(res.report, errorRate.name); got != "1" {
			t.Errorf("%s: report shows error_rate %q, want 1:\n%s", w.name, got, res.report)
		}
	}
}

func TestSpanFileIsValidTraceEventJSON(t *testing.T) {
	p := tinyParams(t, true)
	w, _ := findWorkload("csv-resume-quantized")
	if res, code := measure(context.Background(), w, p, p.dir, obs.CaptureEnvironment()); res.err != nil || code != 0 {
		t.Fatalf("code %d, err %v", code, res.err)
	}
	f, err := os.Open(filepath.Join(p.dir, "perfbench-csv-resume-quantized-seed7.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tf, err := obs.ValidateTraceEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		seen[e.Name] = true
		for _, k := range []string{"id", "parent", "run", "interval"} {
			if _, ok := e.Args[k]; !ok {
				t.Fatalf("span %s lacks %q", e.Name, k)
			}
		}
	}
	for _, name := range []string{"run", "trace.decode", "core.interval", "core.checkpoint_write",
		"replay.interval", "sched.decide", "core.step", "core.merge"} {
		if !seen[name] {
			t.Errorf("no %s span", name)
		}
	}
}
