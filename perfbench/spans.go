package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/h2p-sim/h2p/internal/obs"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Run groups the spans of one run or request; Interval is the
// control interval the call worked on (-1 when it has none).
type span struct {
	name       string
	id, parent int64
	run        int64
	interval   int
	start, end time.Time
}

// spanLog keeps every span of the traced run in memory until the benchmark
// writes it out. A nil *spanLog records nothing, so untraced code paths pay
// one pointer test per call.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil log).
func (l *spanLog) add(name string, parent, run int64, interval int, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, run: run, interval: interval, start: start, end: end})
	l.mu.Unlock()
	return id
}

// reserve hands out an id for a span whose end is not known yet, so its
// children can name it as parent; finish records it under that id.
func (l *spanLog) reserve() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) finish(id int64, name string, parent, run int64, interval int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, run: run, interval: interval, start: start, end: end})
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// traceFile is the Chrome trace-event JSON object format (the layout of
// obs.TraceFile) with the benchmark's environment stamp as metadata.
type traceFile struct {
	TraceEvents     []obs.TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	Metadata        map[string]any   `json:"metadata"`
}

// events renders the spans as complete ("X") events, one track per span
// name, with id, parent, run and interval in each event's args.
func (l *spanLog) events() []obs.TraceEvent {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	tids := make(map[string]int)
	var names []string
	for _, s := range spans {
		if _, ok := tids[s.name]; !ok {
			tids[s.name] = 0
			names = append(names, s.name)
		}
	}
	sort.Strings(names)
	events := make([]obs.TraceEvent, 0, len(spans)+len(names))
	for i, n := range names {
		tids[n] = i + 1
		events = append(events, obs.TraceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": n}})
	}
	for _, s := range spans {
		events = append(events, obs.TraceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: tids[s.name],
			Ts:   float64(s.start.Sub(l.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "run": s.run, "interval": s.interval},
		})
	}
	return events
}

// write stores the spans at path as trace-event JSON stamped with meta.
func (l *spanLog) write(path string, meta map[string]any) error {
	b, err := json.Marshal(traceFile{TraceEvents: l.events(), DisplayTimeUnit: "ms", Metadata: meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
