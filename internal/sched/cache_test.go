package sched

import (
	"math"
	"sync"
	"testing"

	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/units"
)

// TestDecisionCacheRoundTrip exercises the lock-free table directly: store
// then load, including keys that collide into one bucket.
func TestDecisionCacheRoundTrip(t *testing.T) {
	var dc decisionCache
	cold := math.Float64bits(20)
	if _, _, _, ok := dc.load(42, cold); ok {
		t.Fatal("empty cache should miss")
	}
	keys := make([]uint64, 0, 64)
	for i := 0; i < 64; i++ {
		keys = append(keys, math.Float64bits(float64(i)/64))
	}
	for i, k := range keys {
		dc.store(k, cold, Setting{Flow: units.LitersPerHour(i), Inlet: units.Celsius(i)}, units.Watts(i), int32(i))
	}
	for i, k := range keys {
		s, p, cell, ok := dc.load(k, cold)
		if !ok {
			t.Fatalf("key %d lost", i)
		}
		if s.Flow != units.LitersPerHour(i) || p != units.Watts(i) || cell != int32(i) {
			t.Fatalf("key %d: wrong value %+v/%v/%d", i, s, p, cell)
		}
	}
}

// TestDecisionCacheCollisionChain forces two distinct keys into the same
// bucket and checks both survive on the chain.
func TestDecisionCacheCollisionChain(t *testing.T) {
	cold := math.Float64bits(20)
	base := math.Float64bits(0.5)
	target := cacheBucket(base, cold)
	var collider uint64
	found := false
	for i := uint64(1); i < 1<<20; i++ {
		k := base + i
		if cacheBucket(k, cold) == target {
			collider, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no colliding key found in 2^20 probes")
	}
	var dc decisionCache
	dc.store(base, cold, Setting{Flow: 1}, 1, 1)
	dc.store(collider, cold, Setting{Flow: 2}, 2, 2)
	if s, _, _, ok := dc.load(base, cold); !ok || s.Flow != 1 {
		t.Errorf("base key lost after collision: %+v %v", s, ok)
	}
	if s, _, _, ok := dc.load(collider, cold); !ok || s.Flow != 2 {
		t.Errorf("colliding key lost: %+v %v", s, ok)
	}
}

// TestDecisionCacheColdSeparation pins the environment seam: the same plane
// cached against two cold sides holds two independent entries, so a seasonal
// run can never serve a decision made under a different cold-side
// temperature.
func TestDecisionCacheColdSeparation(t *testing.T) {
	var dc decisionCache
	key := math.Float64bits(0.5)
	c20 := math.Float64bits(20)
	c14 := math.Float64bits(14)
	dc.store(key, c20, Setting{Flow: 1}, 1, 1)
	if _, _, _, ok := dc.load(key, c14); ok {
		t.Fatal("entry stored at cold=20 served for cold=14")
	}
	dc.store(key, c14, Setting{Flow: 2}, 2, 2)
	if s, _, _, ok := dc.load(key, c20); !ok || s.Flow != 1 {
		t.Errorf("cold=20 entry lost: %+v %v", s, ok)
	}
	if s, _, _, ok := dc.load(key, c14); !ok || s.Flow != 2 {
		t.Errorf("cold=14 entry lost: %+v %v", s, ok)
	}
	// keys() reports the plane once, not once per cold.
	if ks := dc.keys(); len(ks) != 1 || ks[0] != key {
		t.Errorf("keys() = %v, want [%v]", ks, key)
	}
}

// TestDecisionCacheDuplicateStore verifies a key is inserted at most once:
// losing racers re-check the chain instead of stacking duplicates.
func TestDecisionCacheDuplicateStore(t *testing.T) {
	var dc decisionCache
	cold := math.Float64bits(20)
	key := math.Float64bits(0.25)
	dc.store(key, cold, Setting{Flow: 7}, 7, 7)
	dc.store(key, cold, Setting{Flow: 8}, 8, 8) // must be ignored: values are pure functions of the key
	n := 0
	for e := dc.buckets[cacheBucket(key, cold)].Load(); e != nil; e = e.next {
		if e.key == key && e.cold == cold {
			n++
		}
	}
	if n != 1 {
		t.Errorf("key appears %d times on the chain, want 1", n)
	}
	if s, _, _, _ := dc.load(key, cold); s.Flow != 7 {
		t.Errorf("first published value must win, got flow %v", s.Flow)
	}
}

// TestDecisionCacheConcurrentStores hammers one cache from many goroutines
// (run under -race by make check): every stored key must be readable
// afterwards with its first-published value intact.
func TestDecisionCacheConcurrentStores(t *testing.T) {
	var dc decisionCache
	cold := math.Float64bits(20)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Overlapping key ranges force CAS races on shared buckets.
				k := math.Float64bits(float64(i%257) / 257)
				dc.store(k, cold, Setting{Flow: units.LitersPerHour(i % 257)}, units.Watts(i%257), int32(i%257))
				if s, _, _, ok := dc.load(k, cold); !ok || int(s.Flow) != i%257 {
					t.Errorf("g%d: key %d corrupted: %+v %v", g, i%257, s, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedCounter checks the cache's counters — now telemetry.Counter
// instances sharded by the bucket hash, replacing the bespoke
// shardedCounter — still sum exactly under concurrent hinted increments.
func TestShardedCounter(t *testing.T) {
	sc := telemetry.NewCounter("test_total")
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sc.AddHint(bucketOf(uint64(g*perG+i)), 1)
			}
		}(g)
	}
	wg.Wait()
	if got := sc.Value(); got != goroutines*perG {
		t.Errorf("counter sum = %d, want %d", got, goroutines*perG)
	}
}

// TestBucketOfSpreadsQuantizedPlanes guards the hash choice: the 513
// distinct planes of a 1/512 quantum must not pile into a handful of
// buckets (a plain mask of the float bits would).
func TestBucketOfSpreadsQuantizedPlanes(t *testing.T) {
	used := make(map[uint64]int)
	for i := 0; i <= 512; i++ {
		u := math.Round(float64(i)/512*512) / 512
		used[bucketOf(math.Float64bits(u))]++
	}
	if len(used) < 256 {
		t.Errorf("513 quantized planes landed in only %d buckets", len(used))
	}
	worst := 0
	for _, n := range used {
		if n > worst {
			worst = n
		}
	}
	if worst > 8 {
		t.Errorf("worst bucket holds %d planes, want <= 8", worst)
	}
}

// fillKey is the i-th synthetic key of the bound tests: the bits of
// i/(3·cacheCap), distinct for every i and a valid plane below 3·cacheCap.
func fillKey(i int) uint64 { return math.Float64bits(float64(i) / (3 * cacheCap)) }

// TestDecisionCacheCapBound pins the hard entry cap: once cacheCap entries
// are published, store declines further keys without touching the table,
// entries already held keep hitting, and the chains stay short.
func TestDecisionCacheCapBound(t *testing.T) {
	var dc decisionCache
	cold := math.Float64bits(20)
	for i := 0; i < cacheCap; i++ {
		if !dc.store(fillKey(i), cold, Setting{Flow: 1}, 1, int32(i)) {
			t.Fatalf("store %d declined below the cap", i)
		}
	}
	if dc.store(fillKey(0), cold, Setting{}, 0, 0) {
		t.Error("duplicate store reported an insert")
	}
	for i := cacheCap; i < 2*cacheCap; i++ {
		if dc.store(fillKey(i), cold, Setting{Flow: 1}, 1, int32(i)) {
			t.Fatalf("store %d accepted past the cap", i)
		}
	}
	if got := dc.entries(); got != cacheCap {
		t.Errorf("entries = %d, want the cap %d", got, cacheCap)
	}
	if got := len(dc.keys()); got != cacheCap {
		t.Errorf("keys = %d, want %d", got, cacheCap)
	}
	if _, _, cell, ok := dc.load(fillKey(7), cold); !ok || cell != 7 {
		t.Errorf("entry stored below the cap lost: cell %d ok %v", cell, ok)
	}
	if _, _, _, ok := dc.load(fillKey(cacheCap), cold); ok {
		t.Error("key declined at the cap is served")
	}
	chained, longest := 0, 0
	for b := range dc.buckets {
		n := 0
		for e := dc.buckets[b].Load(); e != nil; e = e.next {
			n++
		}
		chained += n
		longest = max(longest, n)
	}
	if chained != cacheCap {
		t.Errorf("chains hold %d entries, counter says %d", chained, cacheCap)
	}
	if longest > 32 {
		t.Errorf("longest chain %d entries; the cap should keep probes short", longest)
	}
}

// TestDecisionCacheConcurrentCap races many writers over more distinct and
// shared keys than the cap holds (run under -race by make check): a watcher
// must never see the entry count pass the cap, and the table must end with
// exactly cacheCap entries, each published once.
func TestDecisionCacheConcurrentCap(t *testing.T) {
	var dc decisionCache
	cold := math.Float64bits(20)
	const goroutines = 8
	stop := make(chan struct{})
	watched := make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				watched <- peak
				return
			default:
				peak = max(peak, dc.entries())
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			// Half the keys are shared by every writer (duplicate races),
			// half are the writer's own.
			for i := 0; i < cacheCap/2; i++ {
				dc.store(fillKey(i), cold, Setting{}, 0, int32(i))
				dc.store(fillKey(cacheCap+g*cacheCap/2+i), cold, Setting{}, 0, 0)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if peak := <-watched; peak > cacheCap {
		t.Errorf("entry count peaked at %d, past the cap %d", peak, cacheCap)
	}
	if got := dc.entries(); got != cacheCap {
		t.Errorf("entries = %d after the race, want the cap %d", got, cacheCap)
	}
	seen := make(map[uint64]bool)
	for b := range dc.buckets {
		for e := dc.buckets[b].Load(); e != nil; e = e.next {
			if seen[e.key] {
				t.Fatalf("key %x published twice", e.key)
			}
			seen[e.key] = true
		}
	}
	if len(seen) != cacheCap {
		t.Errorf("chains hold %d entries, counter says %d", len(seen), cacheCap)
	}
}

// fillToCap publishes entries at a cold side no decision uses until the
// controller's cache holds n of them, so every real lookup afterwards misses.
func fillToCap(c *Controller, n int) {
	dummy := math.Float64bits(-273)
	for i := 0; c.CacheLen() < n; i++ {
		c.cache.store(fillKey(i), dummy, Setting{}, 0, 0)
	}
}

// TestControllerCacheFullStaysExact drives a controller through the cap:
// the last free slot takes one decision, later decisions are computed but
// not cached, CacheLen and the entries gauge stop at the cap, and every
// decision still matches a fresh controller's bit for bit.
func TestControllerCacheFullStaysExact(t *testing.T) {
	c := newController(t)
	fillToCap(c, cacheCap-1)
	reg := telemetry.New()
	c.AttachTelemetry(reg)
	fresh := newController(t)
	planes := []float64{0.31, 0.62, 0.93, 0.62}
	for _, u := range planes {
		s, p, err := c.Choose(u, c.ColdSource)
		if err != nil {
			t.Fatal(err)
		}
		ws, wp, err := fresh.Choose(u, fresh.ColdSource)
		if err != nil {
			t.Fatal(err)
		}
		if s != ws || p != wp {
			t.Errorf("plane %v: full-cache decision %+v/%v != fresh %+v/%v", u, s, p, ws, wp)
		}
	}
	if got := c.CacheLen(); got != cacheCap {
		t.Errorf("CacheLen = %d, want the cap %d", got, cacheCap)
	}
	if got := len(c.CacheKeys()); got > cacheCap {
		t.Errorf("CacheKeys lists %d keys, past the cap", got)
	}
	// 0.31 took the last slot; 0.62 and 0.93 overflowed, so the repeated
	// 0.62 misses again.
	if hits, calls := c.CacheStats(); hits != 0 || calls != 4 {
		t.Errorf("CacheStats = %d hits of %d calls, want 0 of 4", hits, calls)
	}
	if got := c.inserts.Value(); got != 1 {
		t.Errorf("inserts = %d, want 1", got)
	}
	if got := reg.Gauge(metricCacheEntries, "").Value(); got != cacheCap {
		t.Errorf("entries gauge = %v, want the cap %d", got, cacheCap)
	}
	if got := reg.Counter(metricCacheInserts, "").Value(); got != 1 {
		t.Errorf("registry inserts = %d, want 1", got)
	}
}

// TestDecideBatchCountersMatchSerialAtCap extends the batch/serial counter
// pin to a full cache: a plane the cache declines stays unpublished, so a
// later group on it counts as the miss a per-group Choose sees, and the
// decisions stay bit-identical to an empty-cache controller's.
func TestDecideBatchCountersMatchSerialAtCap(t *testing.T) {
	c, ref, fresh := newController(t), newController(t), newController(t)
	fillToCap(c, cacheCap)
	fillToCap(ref, cacheCap)
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
	for g, r := range ranges {
		if _, err := ref.decideSerial(col[r.Lo:r.Hi], Original, ref.ColdSource, &Scratch{}); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.decideSerial(col[r.Lo:r.Hi], Original, fresh.ColdSource, &Scratch{})
		if err != nil {
			t.Fatal(err)
		}
		if !decisionsEqual(out[g], want) {
			t.Fatalf("group %d: full-cache batch %+v != fresh serial %+v", g, out[g], want)
		}
	}
	bh, bc := c.CacheStats()
	sh, sc := ref.CacheStats()
	if bh != sh || bc != sc {
		t.Errorf("batch cache stats (hits=%d calls=%d) != serial (hits=%d calls=%d)", bh, bc, sh, sc)
	}
	if c.inserts.Value() != 0 || ref.inserts.Value() != 0 {
		t.Errorf("full caches counted inserts: batch %d serial %d", c.inserts.Value(), ref.inserts.Value())
	}
	if c.CacheLen() != cacheCap {
		t.Errorf("CacheLen = %d, want the cap %d", c.CacheLen(), cacheCap)
	}
}

// TestWarmCacheAtColdSide pins the resume warm-up seam: keys warmed at a
// cold side hit for lookups at that cold side, not at the default one.
func TestWarmCacheAtColdSide(t *testing.T) {
	c := newController(t)
	keys := []uint64{math.Float64bits(0.25), math.Float64bits(0.75)}
	if n := c.WarmCache(keys, 14); n != 2 {
		t.Fatalf("warmed %d keys, want 2", n)
	}
	for _, k := range keys {
		if _, _, _, ok := c.cache.load(k, math.Float64bits(14)); !ok {
			t.Errorf("key %v not cached at the warm cold side", math.Float64frombits(k))
		}
		if _, _, _, ok := c.cache.load(k, math.Float64bits(float64(c.ColdSource))); ok {
			t.Errorf("key %v cached at the default cold side", math.Float64frombits(k))
		}
	}
}
