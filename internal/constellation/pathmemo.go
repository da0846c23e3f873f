package constellation

import (
	"sync"

	"spacecdn/internal/cache"
	"spacecdn/internal/routing"
)

// pathMemoCap is the floor of the per-snapshot tree memo capacity. The
// working set is every uplink satellite visible from the client cities — the
// CDN resolve path roots trees at each city's serving satellite (~100
// sources) and the ground fallback prices every visible uplink (~450 sources
// fleet-wide at the default scale) — so 1024 covers the paper's shell with
// headroom while bounding the worst-case footprint to ~20 MB per snapshot
// (1024 trees x ~20 KB). Bigger constellations have proportionally more
// visible uplinks, so the effective capacity scales with the satellite
// count: max(1024, N), set per constellation (Constellation.memoCap).
const pathMemoCap = 1024

// PathMemoCounters returns this constellation's path-tree memo hit and miss
// counts. Counters are per constellation — multi-shell experiments running
// several constellations in one process read their own effectiveness — and
// aggregate across the constellation's snapshots, because snapshots are
// created per instant and per system and would vanish with their counters.
func (c *Constellation) PathMemoCounters() (hits, misses int64) {
	return c.memoHits.Load(), c.memoMisses.Load()
}

// ResetPathMemoCounters zeroes the memo counters (test isolation).
func (c *Constellation) ResetPathMemoCounters() {
	c.memoHits.Store(0)
	c.memoMisses.Store(0)
}

// memoKey identifies one memoized tree: the source satellite and the
// composite epoch (Snapshot.memoEpoch) of the topology it was settled over —
// sweep generation in the high bits, fault epoch in the low. Epoch 0 is the
// healthy graph of a fresh snapshot; fault-masked views (Snapshot.Masked)
// memoize under their own fault epochs and sweep steps under their own
// generations, so a degraded or stale tree can never be served for a healthy
// current-step query or vice versa. Entries from past sweep steps simply age
// out of the LRU.
type memoKey struct {
	src   SatID
	epoch uint64
}

// pathMemo is a bounded, mutex-guarded LRU from (source, fault epoch) to
// shortest-path tree, created on first insert so snapshots that never route
// carry no table. Trees are computed outside the lock — a duplicate
// computation during a race is harmless because trees are deterministic and
// the first store wins, and it keeps Dijkstra latency out of the critical
// section.
type pathMemo struct {
	mu  sync.Mutex
	cap int // max entries; 0 falls back to pathMemoCap
	lru *cache.Memo[memoKey, *routing.SPTree]
}

func (m *pathMemo) lookup(k memoKey) (*routing.SPTree, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lru == nil {
		return nil, false
	}
	return m.lru.Get(k)
}

func (m *pathMemo) insert(k memoKey, t *routing.SPTree) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lru == nil {
		m.lru = cache.NewMemo[memoKey, *routing.SPTree](max(m.cap, pathMemoCap))
	}
	m.lru.Put(k, t)
}

// PathTree returns the single-source shortest-path tree over the snapshot's
// ISL graph rooted at src — the healthy view's tree, memoized under fault
// epoch 0: every client resolving through the same uplink satellite shares
// one Dijkstra run. Returns nil when src is out of range.
func (s *Snapshot) PathTree(src SatID) *routing.SPTree { return s.healthy.PathTree(src) }

// PathTreeWithin returns a tree whose entries are exact for every node with
// distance at most maxCost from src. A memoized full tree satisfies any
// bound and is served directly; on a miss, a cost-bounded Dijkstra runs
// without populating the memo (bounded trees must not masquerade as full
// ones). Returns nil when src is out of range.
func (s *Snapshot) PathTreeWithin(src SatID, maxCost float64) *routing.SPTree {
	return s.healthy.pathTree(src, maxCost)
}
