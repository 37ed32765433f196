package sched

import (
	"testing"

	"github.com/h2p-sim/h2p/internal/units"
)

// coldTestController builds a fully wired controller over the shared fuzz
// space (immutable, so sharing it across tests is safe).
func coldTestController(t *testing.T) *Controller {
	t.Helper()
	space, mod := fuzzSpace()
	c, err := NewController(space, mod, 20)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestColdVariantsMatchDefaultAtColdSource pins the one remaining default-cold
// form: DecideBatch is bit-identical to DecideBatchCold at the controller's
// own ColdSource, and to Decide per group at that cold side.
func TestColdVariantsMatchDefaultAtColdSource(t *testing.T) {
	a := coldTestController(t)
	b := coldTestController(t)
	single := coldTestController(t)
	col := []float64{0.1, 0.45, 0.45, 0.83, 0.99, 0.3}
	ranges := []Range{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 6}}
	for _, scheme := range []Scheme{Original, LoadBalance} {
		var bsA, bsB BatchScratch
		outA, outB := make([]Decision, len(ranges)), make([]Decision, len(ranges))
		errA := a.DecideBatch(col, ranges, scheme, &bsA, []*Scratch{{}, {}}, outA)
		errB := b.DecideBatchCold(col, ranges, scheme, b.ColdSource, &bsB, []*Scratch{{}, {}}, outB)
		if errA != nil || errB != nil {
			t.Fatalf("%s: DecideBatch err %v, DecideBatchCold err %v", scheme, errA, errB)
		}
		for g, r := range ranges {
			d, err := single.Decide(col[r.Lo:r.Hi], scheme, single.ColdSource, &Scratch{})
			if err != nil {
				t.Fatalf("%s group %d: Decide: %v", scheme, g, err)
			}
			if !decisionsEqual(outA[g], outB[g]) || !decisionsEqual(outA[g], d) {
				t.Fatalf("%s group %d: DecideBatch %+v, DecideBatchCold %+v, Decide %+v", scheme, g, outA[g], outB[g], d)
			}
		}
	}
}

// TestColdSideChangesDecisionIndependently verifies the cache keeps
// decisions made under different cold sides separate and physically ordered:
// a colder TEG cold side strictly increases the harvest at the same plane.
func TestColdSideChangesDecisionIndependently(t *testing.T) {
	c := coldTestController(t)
	_, pWarm, err := c.Choose(0.6, 26)
	if err != nil {
		t.Fatal(err)
	}
	_, pCold, err := c.Choose(0.6, 12)
	if err != nil {
		t.Fatal(err)
	}
	if pCold <= pWarm {
		t.Fatalf("colder cold side must raise max power: cold=12 -> %v, cold=26 -> %v", pCold, pWarm)
	}
	// Revisit both colds: the cached entries must reproduce the first pass
	// exactly (no aliasing between the two).
	_, pWarm2, _ := c.Choose(0.6, 26)
	_, pCold2, _ := c.Choose(0.6, 12)
	if pWarm2 != pWarm || pCold2 != pCold {
		t.Fatalf("cached revisit drifted: warm %v->%v cold %v->%v", pWarm, pWarm2, pCold, pCold2)
	}
}

// TestDecideBatchColdMatchesSerialCold pins the batched kernel against the
// scalar referee at a non-default cold side, the same contract the existing
// equivalence suites pin at the default.
func TestDecideBatchColdMatchesSerialCold(t *testing.T) {
	batchCtl := coldTestController(t)
	serialCtl := coldTestController(t)
	col := []float64{0.2, 0.4, 0.9, 0.9, 0.1, 0.55, 0.55, 0.7}
	ranges := []Range{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 6}, {Lo: 6, Hi: 8}}
	for _, cold := range []units.Celsius{12, 20, 27.5} {
		for _, scheme := range []Scheme{Original, LoadBalance} {
			var bs BatchScratch
			scrs := make([]*Scratch, len(ranges))
			for i := range scrs {
				scrs[i] = &Scratch{}
			}
			out := make([]Decision, len(ranges))
			if err := batchCtl.DecideBatchCold(col, ranges, scheme, cold, &bs, scrs, out); err != nil {
				t.Fatalf("cold=%v %s: %v", cold, scheme, err)
			}
			for g, r := range ranges {
				var sc Scratch
				want, err := serialCtl.decideSerial(col[r.Lo:r.Hi], scheme, cold, &sc)
				if err != nil {
					t.Fatalf("cold=%v %s group %d: %v", cold, scheme, g, err)
				}
				got := out[g]
				if got.Setting != want.Setting || got.PlaneU != want.PlaneU || got.MaxCPUTemp != want.MaxCPUTemp {
					t.Fatalf("cold=%v %s group %d: %+v vs %+v", cold, scheme, g, got, want)
				}
				for i := range want.PerServerPower {
					if got.PerServerPower[i] != want.PerServerPower[i] {
						t.Fatalf("cold=%v %s group %d server %d: %v vs %v",
							cold, scheme, g, i, got.PerServerPower[i], want.PerServerPower[i])
					}
					if got.PerServerCPUPower[i] != want.PerServerCPUPower[i] {
						t.Fatalf("cold=%v %s group %d server %d cpu: %v vs %v",
							cold, scheme, g, i, got.PerServerCPUPower[i], want.PerServerCPUPower[i])
					}
				}
			}
		}
	}
}
