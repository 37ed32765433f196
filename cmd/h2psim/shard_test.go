package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestShardedOutputMatchesInMemory is the CLI-level parallelism ladder:
// every -workers value — below, at and above the circulation count — must
// print byte-identical tables (including the full -series dump) to the
// in-memory library path.
func TestShardedOutputMatchesInMemory(t *testing.T) {
	base := runOptions{servers: 60, circ: 20, seed: 42, series: true}

	mem := inMemoryReport(t, base)
	for _, workers := range []int{1, 2, 3, 16} {
		opt := base
		opt.workers = workers
		var out bytes.Buffer
		if err := run(context.Background(), &out, opt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mem, out.Bytes()) {
			t.Errorf("-workers %d output differs from in-memory output:\n--- in-memory ---\n%s\n--- run ---\n%s",
				workers, mem, out.String())
		}
	}
}

// TestShardedHaltResumeByteIdentical automates the kill/resume flow at
// -workers 3: a run halted at a checkpoint boundary prints nothing, and the
// resumed run's stdout is byte-identical to an uninterrupted run.
func TestShardedHaltResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	base := runOptions{servers: 60, circ: 20, seed: 42, series: true, workers: 3}

	var fullOut bytes.Buffer
	if err := run(context.Background(), &fullOut, base); err != nil {
		t.Fatal(err)
	}

	cp := filepath.Join(dir, "cp.json")
	halted := base
	halted.checkpoint = cp
	halted.checkpointEvery = 20
	halted.haltAfter = 50
	var haltOut bytes.Buffer
	if err := run(context.Background(), &haltOut, halted); !errors.Is(err, errHalted) {
		t.Fatalf("halted run: err = %v, want errHalted", err)
	}
	if haltOut.Len() != 0 {
		t.Fatalf("halted run wrote %d bytes to stdout; a partial report must never print", haltOut.Len())
	}

	resumed := base
	resumed.checkpoint = cp
	resumed.resume = true
	var resumeOut bytes.Buffer
	if err := run(context.Background(), &resumeOut, resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullOut.Bytes(), resumeOut.Bytes()) {
		t.Errorf("resumed stdout differs from uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s",
			fullOut.String(), resumeOut.String())
	}
}

// TestShardedCheckpointCrossResume pins resume across layouts: a run halted
// at -workers 3 resumes at 1, 2 and 0 (all CPUs), and one halted at 1
// resumes at 3, each with stdout and -series-out byte-identical to the
// uninterrupted run's. A checkpoint file holds only "checkpoint" entries,
// and a "sharded" entry written by older builds still resumes through its
// merged record.
func TestShardedCheckpointCrossResume(t *testing.T) {
	dir := t.TempDir()
	base := runOptions{servers: 60, circ: 20, seed: 42, series: true}

	full := base
	full.seriesOut = filepath.Join(dir, "full.csv")
	var fullOut bytes.Buffer
	if err := run(context.Background(), &fullOut, full); err != nil {
		t.Fatal(err)
	}
	fullCSV, err := os.ReadFile(full.seriesOut)
	if err != nil {
		t.Fatal(err)
	}

	halt := func(name string, workers int) string {
		t.Helper()
		o := base
		o.workers = workers
		o.checkpoint = filepath.Join(dir, name)
		o.checkpointEvery = 20
		o.haltAfter = 60
		if err := run(context.Background(), io.Discard, o); !errors.Is(err, errHalted) {
			t.Fatalf("halted run (workers=%d): err = %v, want errHalted", workers, err)
		}
		return o.checkpoint
	}
	resume := func(cp string, workers int) {
		t.Helper()
		o := base
		o.workers = workers
		o.checkpoint = cp
		o.resume = true
		o.seriesOut = cp + ".series.csv"
		var out bytes.Buffer
		if err := run(context.Background(), &out, o); err != nil {
			t.Fatalf("resume of %s at workers=%d: %v", filepath.Base(cp), workers, err)
		}
		if !bytes.Equal(fullOut.Bytes(), out.Bytes()) {
			t.Errorf("resume of %s at workers=%d: stdout differs from uninterrupted run", filepath.Base(cp), workers)
		}
		csv, err := os.ReadFile(o.seriesOut)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fullCSV, csv) {
			t.Errorf("resume of %s at workers=%d: -series-out differs from uninterrupted run", filepath.Base(cp), workers)
		}
	}

	for _, workers := range []int{1, 2, 0} {
		resume(halt("w3.json", 3), workers)
	}
	resume(halt("w1.json", 1), 3)

	// Checkpoint files carry engine entries only.
	blob, err := os.ReadFile(halt("entries.json", 3))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Entries map[string]map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	for key, entry := range file.Entries {
		if _, ok := entry["sharded"]; ok {
			t.Errorf("entry %s: written as a sharded entry", key)
		}
		if _, ok := entry["checkpoint"]; !ok {
			t.Errorf("entry %s: no checkpoint record", key)
		}
	}

	// The legacy shape: each in-progress entry as {"sharded": {"version": 1,
	// "shards": 3, "merged": <engine checkpoint>}}.
	for key, entry := range file.Entries {
		legacy, err := json.Marshal(map[string]any{"version": 1, "shards": 3, "merged": entry["checkpoint"]})
		if err != nil {
			t.Fatal(err)
		}
		file.Entries[key] = map[string]json.RawMessage{"done": json.RawMessage("false"), "sharded": legacy}
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["entries"], err = json.Marshal(file.Entries); err != nil {
		t.Fatal(err)
	}
	if blob, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	legacyPath := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacyPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	resume(legacyPath, 2)
}
