package spacecdn

import (
	"fmt"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/orbit"
	"spacecdn/internal/routing"
	"spacecdn/internal/stats"
)

// Source is where a request was served from.
type Source int

// Resolution sources, in the order of the paper's Figure 6.
const (
	SourceOverhead Source = iota // red arrow: the satellite overhead
	SourceISL                    // blue arrow: a nearby satellite over ISLs
	SourceGround                 // black arrow: ground cache via PoP

	numSources // keep last: sizes the name table and label arrays
)

// sourceNames is the exhaustive name table; the [numSources] bound makes a
// constant added without a name a compile error, and the round-trip test
// catches a name added without a constant.
var sourceNames = [numSources]string{
	SourceOverhead: "overhead",
	SourceISL:      "isl",
	SourceGround:   "ground",
}

func (s Source) String() string {
	if s >= 0 && int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return fmt.Sprintf("source(%d)", int(s))
}

// SourceFromString maps a source name back to its constant.
func SourceFromString(name string) (Source, bool) {
	for i, n := range sourceNames {
		if n == name {
			return Source(i), true
		}
	}
	return 0, false
}

// Sources returns every resolution source, in declaration order.
func Sources() []Source {
	out := make([]Source, numSources)
	for i := range out {
		out[i] = Source(i)
	}
	return out
}

// Resolution describes how a request was served.
type Resolution struct {
	Source Source
	// Sat is the serving satellite (overhead/ISL sources).
	Sat constellation.SatID
	// Hops is the ISL hop count to the serving satellite (0 for overhead).
	Hops int
	// RTT is the client-observed round trip to first byte of the object.
	RTT time.Duration
}

// Resolve serves one object request from a client at time snap.Time(),
// following the three-stage strategy. The rng supplies access-link
// scheduling jitter; pass a deterministic source for reproducible runs.
// The attached fault plan is consulted at the snapshot time and an active
// lifecycle manager's intent applies inline, before Resolve returns.
//
// When telemetry is attached (SetTelemetry), each call increments the
// per-source request counters, observes the RTT and hop-count histograms,
// and — for sampled requests — emits a RequestTrace whose span durations
// decompose the returned RTT exactly.
func (s *System) Resolve(client geo.Point, iso2 string, obj content.Object, snap *constellation.Snapshot, rng *stats.Rand) (Resolution, error) {
	ep := s.epochAt(snap)
	return s.resolveInline(&ep, client, iso2, obj, rng)
}

// resolveInline runs the pipeline and commits an active lifecycle
// manager's intent before returning, uncoalesced: every origin need is its
// own flight.
func (s *System) resolveInline(ep *Epoch, client geo.Point, iso2 string, obj content.Object, rng *stats.Rand) (Resolution, error) {
	if !s.lifecycleActive() {
		return s.resolveEpoch(ep, client, iso2, obj, rng, nil)
	}
	var it lcIntent
	res, err := s.resolveEpoch(ep, client, iso2, obj, rng, &it)
	s.applyLcIntent(&it, ep.Time(), nil)
	return res, err
}

// resolveEpoch runs the pipeline over a stack detail and accounts for it.
func (s *System) resolveEpoch(ep *Epoch, client geo.Point, iso2 string, obj content.Object, rng *stats.Rand, it *lcIntent) (Resolution, error) {
	d := resolveDetail{client: client}
	res, err := s.resolve(ep, client, iso2, obj, rng, it, &d)
	s.account(res, err, &d)
	return res, err
}

// account turns one resolution's detail flags into the always-on
// degraded-mode counters and, when telemetry is attached, records the
// request. It is the only place either is updated, so each failover is
// counted once however the request ends.
func (s *System) account(res Resolution, err error, d *resolveDetail) {
	if d.degraded {
		s.fstats.degraded.Add(1)
		for k, took := range d.failovers {
			if took {
				s.fstats.failovers[k].Add(1)
			}
		}
	}
	if in := s.inst; in != nil {
		in.record(res, err, d)
	}
}

// resolve is the resolution pipeline behind Resolve, ResolveAt and
// ResolveAll. It routes over the epoch's view, so a degraded epoch keeps the
// three stages and reroutes around dead hardware, in failover order:
//
//  1. dead overhead satellite → the next surviving visible one;
//  2. dead replica holders and relays → excluded from the ISL search, which
//     runs over the masked graph where dead satellites have no edges;
//  3. dead PoP → the next-nearest live PoP (lsn.ResolvePathDegraded).
//
// Each failover sets its flag in d. A request errors only when no path —
// space or ground — survives the fault state.
//
// Every cache hit goes through serveHit, which is a plain counted Get when
// it is nil and a freshness classification when it is not (only while the
// lifecycle manager is active); a ground serve then records the origin
// refill. With an intent the pipeline is read-only over cache state and the
// caller chooses when the intent commits. d also receives the latency
// components telemetry needs to decompose the RTT into spans; they are
// assigned, never allocated, so the disabled path stays allocation-free.
func (s *System) resolve(ep *Epoch, client geo.Point, iso2 string, obj content.Object, rng *stats.Rand, it *lcIntent, d *resolveDetail) (Resolution, error) {
	d.degraded = ep.fv != nil
	if it != nil {
		it.obj = obj
	}
	up, failover, ok := ep.uplink(client)
	d.failovers[FailoverUplink] = failover
	if !ok {
		return Resolution{}, fmt.Errorf("spacecdn: no satellite visible from %v", client)
	}
	t := ep.Time()
	upDelay := orbit.PropagationDelay(up.SlantKm)
	sched := s.schedDelay(rng)
	d.uplinkRTT = 2 * upDelay

	// Stage 1: directly overhead.
	if s.Active(up.ID, t) {
		if tierLat, ok := s.serveHit(it, up.ID, obj, client, t); ok {
			return Resolution{
				Source: SourceOverhead,
				Sat:    up.ID,
				RTT:    2*upDelay + sched + tierLat,
			}, nil
		}
	}

	// Stage 2: nearest caching satellite over ISLs within the hop bound. The
	// replica index supplies the membership bitset (nil for cold objects,
	// skipping the BFS entirely) and the duty cycler the active bitset, so
	// the search probes words instead of calling Peek per visited node.
	members := s.replicas.bitset(cache.Key(obj.ID))
	d.failovers[FailoverReplica] = d.degraded && members.IntersectsAny(ep.fv.DeadSats)
	if hit, ok := ep.view.ISLGraph().NearestInSet(routing.NodeID(up.ID), s.cfg.MaxISLSearchHops, members, s.activeSet(t)); ok {
		target := constellation.SatID(hit.Node)
		// An unreachable replica (partitioned topology) falls through to the
		// ground stage instead of pricing the fetch as free.
		if islRTT, hops, reachable := s.islRoundTrip(ep.view, up.ID, target); reachable {
			if tierLat, ok := s.serveHit(it, target, obj, client, t); ok {
				d.islRTT = islRTT
				return Resolution{
					Source: SourceISL,
					Sat:    target,
					Hops:   hops,
					RTT:    2*upDelay + islRTT + sched + tierLat,
				}, nil
			}
		}
	}

	// Stage 3: ground fallback through the operator's PoP. PoP failover runs
	// only on a degraded epoch (a PoP-only outage has a pass-through view
	// but a live blackout predicate), so a healthy epoch's stream stays
	// equal to ResolveReference.
	if s.lsn == nil {
		return Resolution{}, fmt.Errorf("spacecdn: no ground fallback configured and object %s not in space", obj.ID)
	}
	var popDead func(string) bool
	if d.degraded {
		popDead = ep.fv.PoPDead
	}
	path, popFailover, err := s.lsn.ResolvePathDegraded(client, iso2, ep.view, popDead)
	d.failovers[FailoverPoP] = popFailover
	if err != nil {
		return Resolution{}, fmt.Errorf("spacecdn: ground fallback: %w", err)
	}
	d.ground = path
	d.hasGround = true
	if it != nil {
		// A miss, or an expired refetch when the search dropped an expired
		// copy on the way. The overhead satellite pulls the object through
		// into its cache, so the next request in the cell is a space hit.
		it.valid = true
		it.class = ServeMiss
		if it.numDrops > 0 {
			it.class = ServeExpired
		}
		s.needOrigin(it, up.ID, client)
	}
	return Resolution{
		Source: SourceGround,
		RTT:    s.lsn.SampleRTTToPoP(path, rng),
	}, nil
}

// ResolveReference is the pre-acceleration resolve pipeline, kept verbatim:
// full-scan satellite visibility, a Peek-per-node BFS for the replica search,
// and an unmemoized Dijkstra per pricing. It must produce the same Resolution
// stream as Resolve for any input (the equivalence tests enforce this) and
// serves as the baseline the resolve benchmark contrasts against. Telemetry
// is not recorded; cache stats side effects match Resolve's exactly.
func (s *System) ResolveReference(client geo.Point, iso2 string, obj content.Object, snap *constellation.Snapshot, rng *stats.Rand) (Resolution, error) {
	up, ok := snap.BestVisibleScan(client)
	if !ok {
		return Resolution{}, fmt.Errorf("spacecdn: no satellite visible from %v", client)
	}
	t := snap.Time()
	upDelay := orbit.PropagationDelay(up.SlantKm)
	sched := s.schedDelay(rng)

	if s.Active(up.ID, t) && s.cacheGet(up.ID, obj.ID) {
		return Resolution{Source: SourceOverhead, Sat: up.ID, RTT: 2*upDelay + sched}, nil
	}

	g := snap.ISLGraph()
	match := func(n routing.NodeID) bool {
		id := constellation.SatID(n)
		return s.Active(id, t) && s.caches[int(id)].Peek(cache.Key(obj.ID))
	}
	if hit, ok := g.NearestMatch(routing.NodeID(up.ID), s.cfg.MaxISLSearchHops, match); ok {
		target := constellation.SatID(hit.Node)
		if islRTT, hops, reachable := s.islRoundTripReference(g, up.ID, target); reachable {
			s.caches[int(target)].Get(cache.Key(obj.ID))
			return Resolution{
				Source: SourceISL,
				Sat:    target,
				Hops:   hops,
				RTT:    2*upDelay + islRTT + sched,
			}, nil
		}
	}

	if s.lsn == nil {
		return Resolution{}, fmt.Errorf("spacecdn: no ground fallback configured and object %s not in space", obj.ID)
	}
	path, err := s.lsn.ResolvePath(client, iso2, snap)
	if err != nil {
		return Resolution{}, fmt.Errorf("spacecdn: ground fallback: %w", err)
	}
	return Resolution{Source: SourceGround, RTT: s.lsn.SampleRTTToPoP(path, rng)}, nil
}

// islRoundTripReference prices an ISL round trip with a direct ShortestPath
// call — the unmemoized baseline for ResolveReference.
func (s *System) islRoundTripReference(g *routing.Graph, from, to constellation.SatID) (time.Duration, int, bool) {
	if from == to {
		return 0, 0, true
	}
	p, ok := g.ShortestPath(routing.NodeID(from), routing.NodeID(to))
	if !ok {
		return 0, 0, false
	}
	d := time.Duration(p.Cost * float64(time.Millisecond))
	d += time.Duration(float64(p.Hops()) * s.cfg.PerHopProcMs * float64(time.Millisecond))
	return 2 * d, p.Hops(), true
}

// cacheGet performs a counted lookup.
func (s *System) cacheGet(id constellation.SatID, obj content.ID) bool {
	return s.caches[int(id)].Get(cache.Key(obj))
}

// islOneWay returns the one-way ISL latency (propagation plus per-hop
// switching) and the hop count between two satellites on the cheapest path,
// priced off the view's memoized path tree. ok is false when to is
// unreachable from from — callers must treat the replica as unusable and
// fall through to the ground stage, never price it as free.
func (s *System) islOneWay(view *constellation.MaskedView, from, to constellation.SatID) (time.Duration, int, bool) {
	if from == to {
		return 0, 0, true
	}
	tree := view.PathTree(from)
	if tree == nil || !tree.Reachable(routing.NodeID(to)) {
		return 0, 0, false
	}
	hops, _ := tree.HopsTo(routing.NodeID(to))
	d := time.Duration(tree.Dist(routing.NodeID(to)) * float64(time.Millisecond))
	d += time.Duration(float64(hops) * s.cfg.PerHopProcMs * float64(time.Millisecond))
	return d, hops, true
}

// islRoundTrip returns the two-way ISL latency and hop count.
func (s *System) islRoundTrip(view *constellation.MaskedView, from, to constellation.SatID) (time.Duration, int, bool) {
	d, h, ok := s.islOneWay(view, from, to)
	return 2 * d, h, ok
}

// schedDelay draws the access-link scheduling delay for one request.
func (s *System) schedDelay(rng *stats.Rand) time.Duration {
	d := s.cfg.SchedFloorRTTMs
	if rng != nil {
		d += rng.Uniform(0, s.cfg.SchedJitterMs)
	}
	return time.Duration(d * float64(time.Millisecond))
}

// accountFetch converts a fetch's one-way components into the configured
// latency accounting: the full client round trip (LatencyRTT) or the
// xeoverse-style one-way propagation figure (LatencyOneWayPropagation),
// which carries only a small processing jitter instead of the MAC schedule.
func (s *System) accountFetch(upDelay, islOneWay time.Duration, rng *stats.Rand) time.Duration {
	if s.cfg.Latency == LatencyOneWayPropagation {
		lat := upDelay + islOneWay
		if rng != nil {
			lat += time.Duration(rng.Uniform(0, 3) * float64(time.Millisecond))
		}
		return lat
	}
	return 2*(upDelay+islOneWay) + s.schedDelay(rng)
}

// FetchAtHops measures the client RTT to fetch an object cached exactly n
// ISL hops from the overhead satellite, choosing the cheapest satellite at
// that hop distance — the paper's Figure 7 methodology. n = 0 measures the
// overhead satellite itself.
func (s *System) FetchAtHops(client geo.Point, n int, snap *constellation.Snapshot, rng *stats.Rand) (time.Duration, error) {
	if n < 0 {
		return 0, fmt.Errorf("spacecdn: negative hop count %d", n)
	}
	up, ok := snap.BestVisible(client)
	if !ok {
		return 0, fmt.Errorf("spacecdn: no satellite visible from %v", client)
	}
	upDelay := orbit.PropagationDelay(up.SlantKm)
	if n == 0 {
		return s.accountFetch(upDelay, 0, rng), nil
	}
	g := snap.ISLGraph()
	ring := g.WithinHops(routing.NodeID(up.ID), n)
	// One bounded Dijkstra from the serving satellite prices every candidate
	// (any node n BFS hops out costs at most n*MaxEdgeWeight, so the bounded
	// run settles the whole ring exactly); the memoized full tree is served
	// instead when this uplink was already priced. The per-hop switching
	// uses the BFS hop count (the weighted path's hop count differs only
	// when a longer-hop route is cheaper, where the sub-millisecond
	// switching difference is negligible).
	tree := snap.PathTreeWithin(up.ID, float64(n)*g.MaxEdgeWeight())
	cheapestMs := -1.0
	for _, hr := range ring {
		if hr.Hops != n {
			continue
		}
		if d := tree.Dist(hr.Node); cheapestMs < 0 || d < cheapestMs {
			cheapestMs = d
		}
	}
	if cheapestMs < 0 {
		return 0, fmt.Errorf("spacecdn: no satellite exactly %d hops away", n)
	}
	oneWay := time.Duration((cheapestMs + float64(n)*s.cfg.PerHopProcMs) * float64(time.Millisecond))
	return s.accountFetch(upDelay, oneWay, rng), nil
}

// NearestReplicaRTT measures the client RTT to the nearest duty-cycled
// caching satellite holding the object, searching up to the configured hop
// bound. found is false when no space replica is reachable.
func (s *System) NearestReplicaRTT(client geo.Point, obj content.ID, snap *constellation.Snapshot, rng *stats.Rand) (rtt time.Duration, hops int, found bool) {
	up, ok := snap.BestVisible(client)
	if !ok {
		return 0, 0, false
	}
	t := snap.Time()
	g := snap.ISLGraph()
	members := s.replicas.bitset(cache.Key(obj))
	hit, ok := g.NearestInSet(routing.NodeID(up.ID), s.cfg.MaxISLSearchHops, members, s.activeSet(t))
	if !ok {
		return 0, 0, false
	}
	oneWay, h, reachable := s.islOneWay(snap.Masked(0, nil, nil), up.ID, constellation.SatID(hit.Node))
	if !reachable {
		return 0, 0, false
	}
	upDelay := orbit.PropagationDelay(up.SlantKm)
	return s.accountFetch(upDelay, oneWay, rng), h, true
}
