package constellation

import (
	"testing"

	"spacecdn/internal/geo"
	"spacecdn/internal/routing"
)

func TestMaskedEmptyIsPassThrough(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	v := snap.Masked(0, nil, nil)
	if v.Epoch() != 0 {
		t.Fatalf("empty mask epoch = %d, want 0", v.Epoch())
	}
	if v.ISLGraph() != snap.ISLGraph() {
		t.Fatal("pass-through view must share the healthy graph")
	}
	// A non-zero epoch with empty masks normalizes to the pass-through view.
	if snap.Masked(7, routing.NewBitset(c.Total()), nil) != v {
		t.Fatal("empty masks must normalize to the epoch-0 view")
	}
	pt := geo.NewPoint(40.7, -74)
	hb, hok := snap.BestVisible(pt)
	mb, mok := v.BestVisible(pt)
	if hok != mok || hb != mb {
		t.Fatal("pass-through BestVisible must match the snapshot")
	}
	if v.PathTree(3) != snap.PathTree(3) {
		t.Fatal("pass-through PathTree must share the healthy memo entry")
	}
}

func TestMaskedEpochZeroWithMasksPanics(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	dead := routing.NewBitset(c.Total())
	dead.Set(5)
	defer func() {
		if recover() == nil {
			t.Fatal("non-empty masks at epoch 0 must panic")
		}
	}()
	snap.Masked(0, dead, nil)
}

func TestMaskedVisibilitySkipsDeadSats(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	pt := geo.NewPoint(40.7, -74)
	healthy := snap.Visible(pt)
	if len(healthy) < 2 {
		t.Fatalf("need at least two visible satellites, have %d", len(healthy))
	}
	best := healthy[0]
	dead := routing.NewBitset(c.Total())
	dead.Set(int(best.ID))
	v := snap.Masked(1, dead, nil)

	if v.Alive(best.ID) {
		t.Fatal("dead satellite reported alive")
	}
	vis := v.VisibleShared(pt)
	if len(vis) != len(healthy)-1 {
		t.Fatalf("masked visible = %d, want %d", len(vis), len(healthy)-1)
	}
	for _, s := range vis {
		if s.ID == best.ID {
			t.Fatal("dead satellite still visible")
		}
	}
	// BestVisible fails over to the next surviving satellite by elevation.
	got, ok := v.BestVisible(pt)
	if !ok || got != healthy[1] {
		t.Fatalf("failover best = %+v ok=%v, want %+v", got, ok, healthy[1])
	}
}

func TestMaskedBestVisibleAllDead(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	pt := geo.NewPoint(40.7, -74)
	dead := routing.NewBitset(c.Total())
	for _, s := range snap.Visible(pt) {
		dead.Set(int(s.ID))
	}
	v := snap.Masked(2, dead, nil)
	if _, ok := v.BestVisible(pt); ok {
		t.Fatal("no survivor should mean no best visible")
	}
	if len(v.VisibleShared(pt)) != 0 {
		t.Fatal("no survivor should mean empty visible list")
	}
}

func TestMaskedGraphDropsDeadSatEdges(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	const victim = SatID(17)
	dead := routing.NewBitset(c.Total())
	dead.Set(int(victim))
	v := snap.Masked(1, dead, nil)

	g := v.ISLGraph()
	if len(g.Neighbors(routing.NodeID(victim))) != 0 {
		t.Fatal("dead satellite must have no incident edges")
	}
	for _, e := range snap.ISLGraph().Neighbors(routing.NodeID(victim)) {
		for _, back := range g.Neighbors(e.To) {
			if back.To == routing.NodeID(victim) {
				t.Fatalf("edge %d->%d survived the mask", e.To, victim)
			}
		}
	}
	// Survivors keep their healthy edges except those into the victim.
	healthyDeg := len(snap.ISLGraph().Neighbors(5))
	if got := len(g.Neighbors(5)); got != healthyDeg {
		t.Fatalf("unrelated node degree changed: %d vs %d", got, healthyDeg)
	}
	// PathTree: nil at the dead root, routes around it elsewhere.
	if v.PathTree(victim) != nil {
		t.Fatal("dead root must have no path tree")
	}
	tree := v.PathTree(0)
	if tree == nil || tree.Reachable(routing.NodeID(victim)) {
		t.Fatal("masked tree must not reach the dead satellite")
	}
	if !snap.PathTree(0).Reachable(routing.NodeID(victim)) {
		t.Fatal("healthy memo entry must stay intact alongside the masked one")
	}
}

func TestMaskedGraphDropsDeadLinks(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	nbrs := snap.ISLGraph().Neighbors(0)
	if len(nbrs) == 0 {
		t.Fatal("node 0 has no neighbors")
	}
	other := SatID(nbrs[0].To)
	// Pass the link denormalized; the view must normalize it.
	v := snap.Masked(3, nil, []LinkID{{A: other, B: 0}})
	g := v.ISLGraph()
	for _, e := range g.Neighbors(0) {
		if e.To == routing.NodeID(other) {
			t.Fatal("dead link survived")
		}
	}
	if len(g.Neighbors(0)) != len(nbrs)-1 {
		t.Fatalf("node 0 degree = %d, want %d", len(g.Neighbors(0)), len(nbrs)-1)
	}
	// Both endpoints stay routable over the remaining grid.
	tree := v.PathTree(0)
	if tree == nil || !tree.Reachable(routing.NodeID(other)) {
		t.Fatal("endpoints must remain reachable around a single dead link")
	}
}

func TestMaskedViewCachedPerEpoch(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	dead := routing.NewBitset(c.Total())
	dead.Set(4)
	a := snap.Masked(9, dead, nil)
	b := snap.Masked(9, dead, nil)
	if a != b {
		t.Fatal("same epoch must return the cached view")
	}
	if a.ISLGraph() != b.ISLGraph() {
		t.Fatal("cached view must share one masked graph")
	}
}
