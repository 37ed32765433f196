package sched

import (
	"math/rand"
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/teg"
)

// The decision-path benchmarks: the per-interval Step 1-3 selection is the
// inner loop of every trace-driven experiment, so its cost and allocation
// profile are tracked across PRs (make bench writes them to
// BENCH_decision.json).

func benchController(tb testing.TB) *Controller {
	tb.Helper()
	space, err := lookup.Build(cpu.XeonE52650V3(), lookup.DefaultAxes())
	if err != nil {
		tb.Fatal(err)
	}
	mod, err := teg.NewModule(teg.SP1848(), 12)
	if err != nil {
		tb.Fatal(err)
	}
	mod.FlowDerating = teg.DefaultFlowDerating()
	c, err := NewController(space, mod, 20)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// exactChurn is the default (exact-quantum) regime after a run's first few
// thousand decisions: a controller whose cache is already full of earlier
// planes, and a ring of fresh 10k-server columns in 25-server groups whose
// planes it has never seen, so every group misses and nothing is cached.
type exactChurn struct {
	c         *Controller
	cols      [][]float64
	ranges    []Range
	bs        BatchScratch
	scratches []*Scratch
	out       []Decision
}

func newExactChurn(tb testing.TB) *exactChurn {
	tb.Helper()
	const servers, width, ring = 10000, 25, 8
	ch := &exactChurn{c: benchController(tb)}
	for lo := 0; lo < servers; lo += width {
		ch.ranges = append(ch.ranges, Range{Lo: lo, Hi: lo + width})
		ch.scratches = append(ch.scratches, &Scratch{})
	}
	ch.out = make([]Decision, len(ch.ranges))
	rng := rand.New(rand.NewSource(1))
	column := func() []float64 {
		col := make([]float64, servers)
		for i := range col {
			col[i] = rng.Float64()
		}
		return col
	}
	// Decide more planes than the cap holds before the ring is drawn.
	for n := 0; n <= cacheCap; n += len(ch.ranges) {
		ch.decide(tb, column())
	}
	if got := ch.c.CacheLen(); got != cacheCap {
		tb.Fatalf("warm-up left %d cache entries, want the cap %d", got, cacheCap)
	}
	for i := 0; i < ring; i++ {
		ch.cols = append(ch.cols, column())
	}
	return ch
}

func (ch *exactChurn) decide(tb testing.TB, col []float64) {
	if err := ch.c.DecideBatch(col, ch.ranges, Original, &ch.bs, ch.scratches, ch.out); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkDecideBatchExactChurn measures one 10k-server interval of the
// default configuration once the decision cache is full: every plane is new,
// so each group pays the slab scan, and the full cache must add neither
// allocations nor longer probes (make bench writes it to
// BENCH_interval.json).
func BenchmarkDecideBatchExactChurn(b *testing.B) {
	ch := newExactChurn(b)
	ch.decide(b, ch.cols[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.decide(b, ch.cols[i%len(ch.cols)])
	}
	b.ReportMetric(float64(len(ch.cols[0])), "servers/op")
}

// BenchmarkDecisionChooseMiss measures the uncached Steps 1-3: every
// iteration queries a fresh plane so the slab intersection and the candidate
// power scan run in full.
func BenchmarkDecisionChooseMiss(b *testing.B) {
	c := benchController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := float64(i%1000003) / 1000003
		if _, _, err := c.Choose(u, c.ColdSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecisionChooseHit measures a warm cache: the same plane is chosen
// repeatedly, so Choose must be a pure cache read.
func BenchmarkDecisionChooseHit(b *testing.B) {
	c := benchController(b)
	if _, _, err := c.Choose(0.25, c.ColdSource); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Choose(0.25, c.ColdSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecisionChooseHitParallel hammers the warm cache from all CPUs:
// the contention profile of the parallel engine's workers, which all consult
// one shared controller.
func BenchmarkDecisionChooseHitParallel(b *testing.B) {
	c := benchController(b)
	for i := 0; i <= 64; i++ {
		if _, _, err := c.Choose(float64(i)/64, c.ColdSource); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			u := float64(i%65) / 64
			i++
			if _, _, err := c.Choose(u, c.ColdSource); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecisionDecide measures one full control interval for a 25-server
// circulation with a warm decision cache, into a fresh Scratch each call (a
// caller that keeps the per-server slices).
func BenchmarkDecisionDecide(b *testing.B) {
	c := benchController(b)
	us := make([]float64, 25)
	for i := range us {
		us[i] = float64(i) / 25
	}
	if _, err := c.Decide(us, LoadBalance, c.ColdSource, &Scratch{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decide(us, LoadBalance, c.ColdSource, &Scratch{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecisionDecideScratch is the engine's steady state: the same
// interval as BenchmarkDecisionDecide into the one reused Scratch each
// Circulation holds — expected allocation-free.
func BenchmarkDecisionDecideScratch(b *testing.B) {
	c := benchController(b)
	us := make([]float64, 25)
	for i := range us {
		us[i] = float64(i) / 25
	}
	var sc Scratch
	if _, err := c.Decide(us, LoadBalance, c.ColdSource, &sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decide(us, LoadBalance, c.ColdSource, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
