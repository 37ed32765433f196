package sched

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/units"
)

// batchColumn builds a deterministic utilization column partitioned into
// groups of varying width, mixing smooth, spiky and boundary values so the
// plane reductions cover distinct and repeated cache keys.
func batchColumn(groups, maxWidth int, seed int64) ([]float64, []Range) {
	rng := rand.New(rand.NewSource(seed))
	var col []float64
	ranges := make([]Range, groups)
	for g := range ranges {
		n := 1 + rng.Intn(maxWidth)
		lo := len(col)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				col = append(col, rng.Float64())
			case 1:
				col = append(col, float64(rng.Intn(21))*0.05)
			case 2:
				col = append(col, 0)
			default:
				col = append(col, 1)
			}
		}
		ranges[g] = Range{Lo: lo, Hi: len(col)}
	}
	return col, ranges
}

// decisionsEqual compares two decisions bit-for-bit, including the aliased
// per-server slices.
func decisionsEqual(a, b Decision) bool {
	if a.Scheme != b.Scheme || a.PlaneU != b.PlaneU || a.Setting != b.Setting || a.MaxCPUTemp != b.MaxCPUTemp {
		return false
	}
	return reflect.DeepEqual(a.PerServerPower, b.PerServerPower) &&
		reflect.DeepEqual(a.PerServerCPUPower, b.PerServerCPUPower)
}

// cloneDecision deep-copies a decision out of its scratch aliases.
func cloneDecision(d Decision) Decision {
	d.PerServerPower = append([]units.Watts(nil), d.PerServerPower...)
	d.PerServerCPUPower = append([]units.Watts(nil), d.PerServerCPUPower...)
	return d
}

// TestDecideBatchMatchesSerial is the sched-layer bit-identity pin: for
// every scheme and cache-quantum setting, DecideBatch over a multi-group
// column must reproduce the scalar oracle's per-group outcomes exactly — cold
// cache and warm cache alike.
func TestDecideBatchMatchesSerial(t *testing.T) {
	for _, quantum := range []float64{0, 1.0 / 512} {
		for _, scheme := range []Scheme{Original, LoadBalance} {
			c := newController(t)
			c.CacheQuantum = quantum
			ref := newController(t)
			ref.CacheQuantum = quantum
			col, ranges := batchColumn(37, 24, 7)
			var bs BatchScratch
			scratches := make([]*Scratch, len(ranges))
			for g := range scratches {
				scratches[g] = &Scratch{}
			}
			out := make([]Decision, len(ranges))
			for round := 0; round < 2; round++ { // cold then warm cache
				if err := c.DecideBatch(col, ranges, scheme, &bs, scratches, out); err != nil {
					t.Fatalf("q=%v %s round %d: DecideBatch: %v", quantum, scheme, round, err)
				}
				for g, r := range ranges {
					want, err := ref.decideSerial(col[r.Lo:r.Hi], scheme, ref.ColdSource, &Scratch{})
					if err != nil {
						t.Fatalf("q=%v %s group %d: decideSerial: %v", quantum, scheme, g, err)
					}
					if !decisionsEqual(out[g], want) {
						t.Fatalf("q=%v %s round %d group %d: batch %+v != serial %+v",
							quantum, scheme, round, g, out[g], want)
					}
				}
			}
		}
	}
}

// TestDecideBatchCountersMatchSerial pins the cache accounting: a batch over
// G valid groups must report exactly G Choose calls, with hits + inserts
// partitioned as if each group had called Choose in order.
func TestDecideBatchCountersMatchSerial(t *testing.T) {
	c := newController(t)
	ref := newController(t)
	col, ranges := batchColumn(29, 16, 11)
	var bs BatchScratch
	scratches := make([]*Scratch, len(ranges))
	for g := range scratches {
		scratches[g] = &Scratch{}
	}
	out := make([]Decision, len(ranges))
	if err := c.DecideBatch(col, ranges, Original, &bs, scratches, out); err != nil {
		t.Fatal(err)
	}
	for _, r := range ranges {
		if _, err := ref.decideSerial(col[r.Lo:r.Hi], Original, ref.ColdSource, &Scratch{}); err != nil {
			t.Fatal(err)
		}
	}
	bh, bc := c.CacheStats()
	sh, sc := ref.CacheStats()
	if bh != sh || bc != sc {
		t.Errorf("batch cache stats (hits=%d calls=%d) != serial (hits=%d calls=%d)", bh, bc, sh, sc)
	}
	if got, want := c.inserts.Value(), ref.inserts.Value(); got != want {
		t.Errorf("batch inserts = %d, serial = %d", got, want)
	}
}

// TestDecideBatchSharesCacheWithSerial checks the two paths read and write
// one cache: entries published by serial Choose calls are batch hits, and
// batch inserts satisfy later serial calls.
func TestDecideBatchSharesCacheWithSerial(t *testing.T) {
	c := newController(t)
	col, ranges := batchColumn(9, 8, 3)
	for _, r := range ranges {
		if _, err := c.decideSerial(col[r.Lo:r.Hi], Original, c.ColdSource, &Scratch{}); err != nil {
			t.Fatal(err)
		}
	}
	inserts := c.inserts.Value()
	var bs BatchScratch
	scratches := make([]*Scratch, len(ranges))
	for g := range scratches {
		scratches[g] = &Scratch{}
	}
	out := make([]Decision, len(ranges))
	if err := c.DecideBatch(col, ranges, Original, &bs, scratches, out); err != nil {
		t.Fatal(err)
	}
	if got := c.inserts.Value(); got != inserts {
		t.Errorf("batch over a serially warmed column inserted %d new entries", got-inserts)
	}
}

// TestDecideBatchEmptyGroup pins the typed empty-utilization error and its
// group attribution.
func TestDecideBatchEmptyGroup(t *testing.T) {
	c := newController(t)
	col := []float64{0.5, 0.25}
	ranges := []Range{{0, 2}, {2, 2}}
	var bs BatchScratch
	err := c.DecideBatch(col, ranges, Original, &bs, []*Scratch{{}, {}}, make([]Decision, 2))
	if !errors.Is(err, ErrEmptyUtilizations) {
		t.Fatalf("empty group error = %v, want ErrEmptyUtilizations", err)
	}
	var ge GroupError
	if !errors.As(err, &ge) || ge.Group != 1 {
		t.Fatalf("error %v does not attribute group 1", err)
	}
}

// TestDecideIntoEmptyTyped pins the adapter unwrap: Decide on an empty slice
// returns the bare sentinel, exactly as the scalar oracle does.
func TestDecideIntoEmptyTyped(t *testing.T) {
	c := newController(t)
	if _, err := c.Decide(nil, Original, c.ColdSource, &Scratch{}); !errors.Is(err, ErrEmptyUtilizations) {
		t.Errorf("Decide(nil) = %v, want ErrEmptyUtilizations", err)
	}
	if _, err := c.decideSerial(nil, Original, c.ColdSource, &Scratch{}); !errors.Is(err, ErrEmptyUtilizations) {
		t.Errorf("decideSerial(nil) = %v, want ErrEmptyUtilizations", err)
	}
	if _, err := EffectiveUtilizations(nil, Original); !errors.Is(err, ErrEmptyUtilizations) {
		t.Errorf("EffectiveUtilizations(nil) = %v, want ErrEmptyUtilizations", err)
	}
}

// TestDecideBatchErrorsMatchSerial checks that per-group failures carry the
// exact serial error text and the lowest failing group index.
func TestDecideBatchErrorsMatchSerial(t *testing.T) {
	c := newController(t)
	ref := newController(t)
	cases := [][]float64{
		{0.5, 1.5},  // plane above 1 under Original
		{-0.5, 0.2}, // negative utilization drags the mean under 0
	}
	for _, us := range cases {
		scheme := Original
		if us[0] < 0 {
			scheme = LoadBalance
		}
		_, wantErr := ref.decideSerial(us, scheme, ref.ColdSource, &Scratch{})
		if wantErr == nil {
			t.Fatalf("case %v: serial unexpectedly succeeded", us)
		}
		var bs BatchScratch
		err := c.DecideBatch(us, []Range{{0, len(us)}}, scheme, &bs, []*Scratch{{}}, make([]Decision, 1))
		var ge GroupError
		if !errors.As(err, &ge) {
			t.Fatalf("case %v: batch error %v is not a GroupError", us, err)
		}
		if ge.Group != 0 || ge.Err.Error() != wantErr.Error() {
			t.Errorf("case %v: batch error %q != serial %q", us, ge.Err, wantErr)
		}
	}
}

// TestDecideBatchValidatesArguments covers the batch-only argument checks.
func TestDecideBatchValidatesArguments(t *testing.T) {
	c := newController(t)
	col := []float64{0.5}
	var bs BatchScratch
	if err := c.DecideBatch(col, []Range{{0, 1}}, Original, &bs, nil, make([]Decision, 1)); err == nil {
		t.Error("mismatched scratches accepted")
	}
	if err := c.DecideBatch(col, []Range{{0, 2}}, Original, &bs, []*Scratch{{}}, make([]Decision, 1)); err == nil {
		t.Error("out-of-bounds range accepted")
	}
	if err := c.DecideBatch(col, []Range{{0, 1}}, Original, &bs, []*Scratch{nil}, make([]Decision, 1)); err == nil {
		t.Error("nil scratch accepted")
	}
}

// TestDecideBatchWithoutCurve checks that a controller assembled without
// NewController (no precomputed power curve) fails every decision with the
// typed ErrUnbuiltController instead of deciding or panicking.
func TestDecideBatchWithoutCurve(t *testing.T) {
	full := newController(t)
	bare := &Controller{
		Space:      full.Space,
		Module:     full.Module,
		ColdSource: full.ColdSource,
		TSafe:      full.TSafe,
		Band:       full.Band,
		hits:       telemetry.NewCounter(metricCacheHits),
		calls:      telemetry.NewCounter(metricCacheCalls),
		inserts:    telemetry.NewCounter(metricCacheInserts),
	}
	col, ranges := batchColumn(5, 6, 21)
	var bs BatchScratch
	scratches := make([]*Scratch, len(ranges))
	for g := range scratches {
		scratches[g] = &Scratch{}
	}
	out := make([]Decision, len(ranges))
	if err := bare.DecideBatchCold(col, ranges, Original, bare.ColdSource, &bs, scratches, out); !errors.Is(err, ErrUnbuiltController) {
		t.Errorf("DecideBatchCold on a bare controller = %v, want ErrUnbuiltController", err)
	}
	if _, err := bare.Decide(col[:3], LoadBalance, bare.ColdSource, &Scratch{}); !errors.Is(err, ErrUnbuiltController) {
		t.Errorf("Decide on a bare controller = %v, want ErrUnbuiltController", err)
	}
	if _, _, err := bare.Choose(0.5, bare.ColdSource); !errors.Is(err, ErrUnbuiltController) {
		t.Errorf("Choose on a bare controller = %v, want ErrUnbuiltController", err)
	}
}

// TestDecideBatchAllocationFree pins the steady state of the engine's batch
// path: with a warm cache and grown scratches, a whole-column DecideBatch
// performs zero allocations.
func TestDecideBatchAllocationFree(t *testing.T) {
	c := newController(t)
	col, ranges := batchColumn(17, 12, 13)
	var bs BatchScratch
	scratches := make([]*Scratch, len(ranges))
	for g := range scratches {
		scratches[g] = &Scratch{}
	}
	out := make([]Decision, len(ranges))
	if err := c.DecideBatch(col, ranges, Original, &bs, scratches, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.DecideBatch(col, ranges, Original, &bs, scratches, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm DecideBatch = %v allocs/op, want 0", allocs)
	}
}

// TestDecideBatchOverlappingRanges checks groups may share column windows
// (Decide reuses the whole column as its one group).
func TestDecideBatchOverlappingRanges(t *testing.T) {
	c := newController(t)
	col := []float64{0.2, 0.6, 0.9, 0.4}
	ranges := []Range{{0, 4}, {1, 3}, {0, 4}}
	var bs BatchScratch
	scratches := []*Scratch{{}, {}, {}}
	out := make([]Decision, 3)
	if err := c.DecideBatch(col, ranges, LoadBalance, &bs, scratches, out); err != nil {
		t.Fatal(err)
	}
	if !decisionsEqual(out[0], out[2]) {
		t.Errorf("identical windows decided differently: %+v vs %+v", out[0], out[2])
	}
}

// BenchmarkDecisionDecideBatch measures the batched column path on a 10k
// column split into 64 groups, warm cache — the engine's steady interval.
func BenchmarkDecisionDecideBatch(b *testing.B) {
	c := benchController(b)
	col, ranges := batchColumn(64, 320, 5)
	var bs BatchScratch
	scratches := make([]*Scratch, len(ranges))
	for g := range scratches {
		scratches[g] = &Scratch{}
	}
	out := make([]Decision, len(ranges))
	if err := c.DecideBatch(col, ranges, Original, &bs, scratches, out); err != nil {
		b.Fatal(err)
	}
	servers := 0
	for _, r := range ranges {
		servers += r.Hi - r.Lo
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.DecideBatch(col, ranges, Original, &bs, scratches, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(servers), "servers/op")
}
