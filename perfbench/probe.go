package main

import (
	"spacecdn/internal/constellation"
	"spacecdn/internal/faults"
	"spacecdn/internal/lsn"
	"spacecdn/internal/routing"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
)

// prober times the stages of the resolve pipeline for one request by calling
// each layer's public function in pipeline order against a pinned snapshot:
// fault view, uplink (BestVisible), replica search (ISLGraph().NearestInSet
// over ReplicaSet), ISL pricing (PathTree) and the ground path
// (lsn.ResolvePath). The calls read shared state and fill memos only, so the
// program's results are the same with or without probing. A stage runs only
// if the stages before it did not already serve the request, as in the
// program's pipeline.
//
// A prober is used from one goroutine with nothing else resolving at the
// same time, so the constellation's memo miss counter tells a cold call
// (one that ran Dijkstra) from a warm one.
type prober struct {
	sys  *spacecdn.System
	lsn  *lsn.Model
	plan *faults.Plan
	tr   *tracer
	hops int

	viewAt, bestVisible, nearest []float64 // µs per call
	treeCold, treeWarm           []float64
	pathCold, pathWarm           []float64
}

func newProber(tr *tracer) *prober { return &prober{tr: tr} }

// attach points the prober at a system and its ground model; samples keep
// accumulating across systems.
func (p *prober) attach(sys *spacecdn.System, model *lsn.Model) {
	p.sys, p.lsn, p.plan, p.hops = sys, model, sys.FaultPlan(), sys.Config().MaxISLSearchHops
}

func (p *prober) misses() int64 {
	_, m := p.sys.Constellation().PathMemoCounters()
	return m
}

// probe records one request's stage spans under parent.
func (p *prober) probe(req spacecdn.Request, snap *constellation.Snapshot, parent int, id int64, tid int) {
	tr := p.tr
	t := snap.Time()
	var fv *faults.View
	if p.plan != nil {
		s := tr.begin("faults.view_at", parent, id, tid)
		fv = p.plan.ViewAt(t)
		p.viewAt = append(p.viewAt, usOf(tr.end(s)))
	}
	var view *constellation.MaskedView
	if fv != nil && !fv.Empty() {
		s := tr.begin("constellation.masked", parent, id, tid)
		view = snap.Masked(fv.Epoch, fv.DeadSats, fv.DeadLinks)
		tr.end(s)
	}

	s := tr.begin("constellation.best_visible", parent, id, tid)
	up, ok := snap.BestVisible(req.Client)
	if ok && view != nil && fv.SatDead(up.ID) {
		up, ok = view.BestVisible(req.Client)
	}
	p.bestVisible = append(p.bestVisible, usOf(tr.end(s)))
	if !ok || p.sys.HasObject(up.ID, req.Obj.ID, t) {
		return
	}

	s = tr.begin("routing.nearest_in_set", parent, id, tid)
	g := snap.ISLGraph()
	if view != nil {
		g = view.ISLGraph()
	}
	hit, found := g.NearestInSet(routing.NodeID(up.ID), p.hops, p.sys.ReplicaSet(req.Obj.ID), nil)
	p.nearest = append(p.nearest, usOf(tr.end(s)))
	if found {
		s = tr.begin("constellation.path_tree", parent, id, tid)
		m0 := p.misses()
		var tree *routing.SPTree
		if view != nil {
			tree = view.PathTree(up.ID)
		} else {
			tree = snap.PathTree(up.ID)
		}
		cold := p.misses() > m0
		d := usOf(tr.end(s))
		if cold {
			p.treeCold = append(p.treeCold, d)
		} else {
			p.treeWarm = append(p.treeWarm, d)
		}
		if _, reachable := tree.HopsTo(hit.Node); reachable {
			return
		}
	}

	s = tr.begin("lsn.resolve_path", parent, id, tid)
	m0 := p.misses()
	if view != nil {
		_, _, _ = p.lsn.ResolvePathDegraded(req.Client, req.ISO2, view, fv.PoPDead)
	} else {
		_, _ = p.lsn.ResolvePath(req.Client, req.ISO2, snap)
	}
	cold := p.misses() > m0
	d := usOf(tr.end(s))
	if cold {
		p.pathCold = append(p.pathCold, d)
	} else {
		p.pathWarm = append(p.pathWarm, d)
	}
}

// layers adds the prober's per-call means to m.
func (p *prober) layers(m map[string]float64) {
	m["faults.view_at_us"] = stats.Mean(p.viewAt)
	m["constellation.best_visible_us"] = stats.Mean(p.bestVisible)
	m["routing.nearest_in_set_us"] = stats.Mean(p.nearest)
	m["constellation.path_tree_cold_us"] = stats.Mean(p.treeCold)
	m["constellation.path_tree_warm_us"] = stats.Mean(p.treeWarm)
	m["lsn.resolve_path_cold_us"] = stats.Mean(p.pathCold)
	m["lsn.resolve_path_warm_us"] = stats.Mean(p.pathWarm)
	m["lsn.resolve_path_cold_share"] = ratio(float64(len(p.pathCold)), float64(len(p.pathCold)+len(p.pathWarm)))
}
