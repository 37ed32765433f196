package sched

import (
	"sort"
	"sync/atomic"

	"github.com/h2p-sim/h2p/internal/units"
)

// The decision cache memoizes Choose outcomes keyed on the float bits of the
// (quantized) plane utilization plus the float bits of the TEG cold-side
// temperature the decision was made against. Every circulation worker of the
// parallel engine consults one shared controller each control interval, so
// the cache is built for a read-mostly regime: after warmup virtually every
// Choose is a hit, and the seed's single mutex around a map serialized all
// workers on it.
//
// The replacement is a fixed-size hash table sharded into cacheBuckets
// independent buckets, each the head of an immutable chain of cacheEntry
// nodes published through an atomic.Pointer:
//
//   - Reads (the hot path) atomically load the bucket head and walk the
//     chain — no mutex, no allocation, no write to shared memory.
//   - Writes (cache misses only) allocate one entry and CAS it onto the
//     bucket head, retrying on contention. Entries are immutable after
//     publication, so readers never observe a partially written value.
//
// Settings are a pure function of (plane, cold side), so two workers racing
// to fill the same key compute identical values and either insert is
// correct; the CAS loop re-checks the chain to keep duplicates out.
//
// The table never grows past cacheCap entries. Under a positive quantum the
// distinct planes are bounded by the quantum and the colds by the
// environment source's quantization grid, so a quantized run settles far
// below the cap. In the exact quantum (the default) nearly every interval
// brings fresh planes, and an unbounded table would lengthen its chains —
// and every probe — without limit. Once cacheCap entries are published,
// store becomes a no-op: later planes are recomputed instead of cached, and
// load stays a walk over chains averaging cacheCap/cacheBuckets entries. The
// trade is that a quantized seasonal run with more than cacheCap distinct
// (plane, cold) pairs recomputes the overflow. Results never depend on it:
// the key is exact and the value a pure function of the key.
const cacheBuckets = 1 << 12

// cacheCap is the hard bound on published entries: four per bucket on
// average, about 1 MB of entries.
const cacheCap = 4 * cacheBuckets

// cacheEntry is one memoized Choose outcome in a bucket chain. key holds
// math.Float64bits of the quantized plane and cold the bits of the cold-side
// temperature; setting/power/cell are immutable after the entry is
// published. cell is the flat candidate-cell index the setting came from
// (lookup.VisitPlane numbering): the batch decision kernel indexes the
// flattened stencils with it, so a cache hit skips the setting-to-cell
// resolution along with the scan.
type cacheEntry struct {
	key     uint64
	cold    uint64
	setting Setting
	power   units.Watts
	cell    int32
	next    *cacheEntry
}

// decisionCache is the sharded lock-free table. The zero value is ready to
// use.
type decisionCache struct {
	buckets [cacheBuckets]atomic.Pointer[cacheEntry]
	// n counts reserved slots: published entries plus inserts in flight.
	// reserve never lets it pass cacheCap.
	n atomic.Int64
}

// bucketOf spreads the 64 key bits over the buckets with a Fibonacci hash:
// quantized planes differ only in a few low mantissa bits, which a plain
// mask would collapse onto a handful of buckets. It doubles as the telemetry
// counters' shard hint, keyed on the plane alone so a given plane always
// lands on the same shard.
func bucketOf(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> (64 - 12)
}

// cacheBucket picks the bucket for a (plane, cold) pair: the cold bits are
// folded in through a second Fibonacci round so a seasonal run's many colds
// spread over the table instead of chaining behind their shared plane.
func cacheBucket(key, cold uint64) uint64 {
	return ((key ^ (cold * 0x9E3779B97F4A7C15)) * 0x9E3779B97F4A7C15) >> (64 - 12)
}

// load returns the memoized outcome for the (plane, cold) pair, if any.
// Allocation-free and mutex-free: one atomic load plus a chain walk over
// immutable entries.
func (dc *decisionCache) load(key, cold uint64) (Setting, units.Watts, int32, bool) {
	for e := dc.buckets[cacheBucket(key, cold)].Load(); e != nil; e = e.next {
		if e.key == key && e.cold == cold {
			return e.setting, e.power, e.cell, true
		}
	}
	return Setting{}, 0, 0, false
}

// store publishes a freshly computed outcome and reports whether it did.
// It reserves a slot before publishing, so the entry count never passes
// cacheCap even under concurrent workers; a full table makes it a no-op
// that neither allocates nor writes shared memory. Otherwise exactly one
// allocation; lost CAS races re-check the chain so a (plane, cold) pair is
// inserted at most once, and a racer that finds its key already published
// releases its slot.
func (dc *decisionCache) store(key, cold uint64, setting Setting, power units.Watts, cell int32) bool {
	if !dc.reserve() {
		return false
	}
	b := &dc.buckets[cacheBucket(key, cold)]
	e := &cacheEntry{key: key, cold: cold, setting: setting, power: power, cell: cell}
	for {
		head := b.Load()
		for cur := head; cur != nil; cur = cur.next {
			if cur.key == key && cur.cold == cold {
				dc.n.Add(-1) // another worker published it first
				return false
			}
		}
		e.next = head
		if b.CompareAndSwap(head, e) {
			return true
		}
	}
}

// reserve claims one of the cacheCap slots, failing once all are taken.
func (dc *decisionCache) reserve() bool {
	for {
		n := dc.n.Load()
		if n >= cacheCap {
			return false
		}
		if dc.n.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// entries reports the published entry count (plus inserts in flight)
// without walking a chain.
func (dc *decisionCache) entries() int { return int(dc.n.Load()) }

// keys collects every memoized plane key, sorted ascending and deduplicated
// (one plane may be cached against several cold sides) so the listing is
// deterministic regardless of insertion or bucket order.
func (dc *decisionCache) keys() []uint64 {
	var ks []uint64
	for b := range dc.buckets {
		for e := dc.buckets[b].Load(); e != nil; e = e.next {
			ks = append(ks, e.key)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	w := 0
	for i, k := range ks {
		if i == 0 || k != ks[w-1] {
			ks[w] = k
			w++
		}
	}
	return ks[:w]
}

// The cache's hit/call/insert counters live in telemetry.Counter instances
// (see Controller and telemetry.go in this package): the same cache-line-
// padded sharded-atomic layout the bespoke shardedCounter used to implement
// here, now shared with the rest of the engine's instrumentation. The
// Fibonacci bucket hash doubles as the counters' shard hint, so a given
// plane always lands on the same shard and totals stay exact.
