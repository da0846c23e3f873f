package measure

import (
	"testing"
	"time"

	"spacecdn/internal/telemetry"
)

// TestSnapshotCacheBounded drives more distinct snapshot times than the cache
// holds and checks the LRU keeps the environment's footprint flat while the
// hit/miss counters account for every lookup.
func TestSnapshotCacheBounded(t *testing.T) {
	e := testEnv(t)
	_, m0, _, _ := e.CacheCounters()
	n := snapCacheCap + 16
	for i := 0; i < n; i++ {
		e.Snapshot(time.Duration(i) * 31 * time.Millisecond)
	}
	e.mu.Lock()
	size := e.snapCache.Len()
	e.mu.Unlock()
	if size > snapCacheCap {
		t.Errorf("snapshot cache grew to %d, cap %d", size, snapCacheCap)
	}
	h1, m1, _, _ := e.CacheCounters()
	if m1-m0 < int64(n) {
		t.Errorf("misses advanced by %d, want at least %d distinct-time misses", m1-m0, n)
	}
	// A repeated recent time must hit.
	last := time.Duration(n-1) * 31 * time.Millisecond
	e.Snapshot(last)
	if h2, _, _, _ := e.CacheCounters(); h2 <= h1 {
		t.Error("repeated lookup of a cached snapshot did not count as a hit")
	}
}

// TestCacheGaugesExported attaches telemetry and checks the collector
// publishes the environment's cache counters as gauges at exposition time.
func TestCacheGaugesExported(t *testing.T) {
	e := testEnv(t)
	tel := telemetry.New(0)
	e.SetTelemetry(tel)
	e.Snapshot(0)
	e.Snapshot(0) // at least one hit and one lookup on record
	sh, sm, ph, pm := e.CacheCounters()
	want := map[string]float64{
		"measure_snap_cache_hits":   float64(sh),
		"measure_snap_cache_misses": float64(sm),
		"measure_path_cache_hits":   float64(ph),
		"measure_path_cache_misses": float64(pm),
	}
	snap := tel.Registry().Snapshot()
	seen := map[string]float64{}
	for _, g := range snap.Gauges {
		seen[g.Name] = g.Value
	}
	for name, v := range want {
		got, ok := seen[name]
		if !ok {
			t.Errorf("gauge %s not exported", name)
			continue
		}
		// Counters only grow, and the gauge is sampled at exposition — after
		// the CacheCounters read above — so it can never lag behind it.
		if got < v {
			t.Errorf("gauge %s = %v, behind counter %v", name, got, v)
		}
	}
	if seen["measure_snap_cache_hits"] < 1 {
		t.Errorf("snap hits gauge = %v, want >= 1 after repeated Snapshot(0)", seen["measure_snap_cache_hits"])
	}
}
