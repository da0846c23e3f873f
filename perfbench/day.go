package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/faults"
	"spacecdn/internal/measure"
	"spacecdn/internal/routing"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
	"spacecdn/internal/traffic"
)

// dayOpts sizes the day workload. The benchmark runs dayOptions; tests run
// a tiny population.
type dayOpts struct {
	traffic traffic.Config
	// faultFrac is the satellite failure fraction; ISLs and PoPs fail at
	// half and a quarter of it, as in the resilience experiment.
	faultFrac float64
	workers   int
	// probeEvery is the traced run's step sampling: every probeEvery-th
	// step has each of its requests probed stage by stage.
	probeEvery int
	// digestSteps is the prefix length of the worker-invariance check.
	digestSteps int
	// setupsPerDay is how many times each day is set up; the last one runs.
	setupsPerDay int
}

// Placement tiers, as in the traffic experiment: the hottest objects ride
// four replicas per plane, the next tier one.
const (
	hotTier  = 24
	warmTier = 96
)

func dayOptions(seed int64) dayOpts {
	cfg := traffic.FastConfig()
	cfg.Seed = seed
	cfg.Workers = 2
	return dayOpts{traffic: cfg, faultFrac: 0.05, workers: 2, probeEvery: 24, digestSteps: 3, setupsPerDay: 8}
}

// dayRig is one set-up traffic day: environment, system with a fault plan,
// generator, sweep cursor and initial placement.
type dayRig struct {
	env      *measure.Environment
	sys      *spacecdn.System
	gen      *traffic.Generator
	cur      *constellation.Sweep
	rng      *stats.Rand
	placedAt int
	// uncovered counts generated requests left out because their client
	// is beyond maxClientLat.
	uncovered int64
}

func setupDay(o dayOpts) (*dayRig, error) {
	env, err := measure.NewEnvironment()
	if err != nil {
		return nil, err
	}
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), env.Constellation, env.LSN)
	if err != nil {
		return nil, err
	}
	fc := faults.DefaultConfig()
	fc.Seed = o.traffic.Seed
	fc.Horizon = o.traffic.Horizon
	fc.SatFraction = o.faultFrac
	fc.ISLFraction = o.faultFrac / 2
	fc.PoPFraction = o.faultFrac / 4
	var pops []string
	for _, p := range env.Ground.PoPs() {
		pops = append(pops, p.Name)
	}
	plan, err := faults.NewPlan(fc, env.Constellation, pops)
	if err != nil {
		return nil, err
	}
	sys.SetFaultPlan(plan)
	gen, err := traffic.New(o.traffic)
	if err != nil {
		return nil, err
	}
	r := &dayRig{
		env: env, sys: sys, gen: gen,
		cur: env.Sweep(0, 0),
		rng: stats.NewRand(o.traffic.Seed).Fork("traffic-resolve"),
	}
	if err := r.place(); err != nil {
		r.cur.Close()
		return nil, err
	}
	return r, nil
}

// place applies tiered placement for the current catalog ranks.
func (r *dayRig) place() error {
	for i, o := range r.gen.Top(hotTier + warmTier) {
		pl := spacecdn.PerPlaneSpacing{ReplicasPerPlane: 1}
		if i < hotTier {
			pl.ReplicasPerPlane = 4
		}
		if _, err := spacecdn.Apply(r.sys, pl, o); err != nil {
			return err
		}
	}
	r.placedAt = r.gen.Releases()
	return nil
}

// next generates the next batch, keeps its covered requests, advances the
// sweep to it and refreshes placement after a release; ok is false at the
// end of the day. Spans go under parent when tr is set.
func (r *dayRig) next(tr *tracer, parent int, id int64) (reqs []spacecdn.Request, snap *constellation.Snapshot, ok bool, err error) {
	sp := tr.begin("traffic.next_batch", parent, id, 0)
	reqs, at, ok := r.gen.NextBatch()
	tr.end(sp)
	if !ok {
		return nil, nil, false, nil
	}
	reqs, left := coveredRequests(reqs)
	r.uncovered += int64(left)
	sp = tr.begin("constellation.snapshot", parent, id, 0)
	snap = r.cur.AdvanceTo(at)
	tr.end(sp)
	if r.gen.Releases() != r.placedAt {
		sp = tr.begin("spacecdn.place", parent, id, 0)
		err = r.place()
		tr.end(sp)
	}
	return reqs, snap, true, err
}

// coveredRequests keeps, in place, the requests whose client is within
// maxClientLat and returns them with the number left out. The generator
// places users in all 109 Starlink cities; Reykjavik and Anchorage, the two
// beyond the bound, send about 0.1% of a day's requests, and with the fault
// plan attached theirs were the only requests that failed. Leaving them out
// makes every remaining failure a fault of the program.
func coveredRequests(reqs []spacecdn.Request) ([]spacecdn.Request, int) {
	kept := reqs[:0]
	for _, q := range reqs {
		if math.Abs(q.Client.LatDeg) < maxClientLat {
			kept = append(kept, q)
		}
	}
	return kept, len(reqs) - len(kept)
}

// dayTally accumulates checked results.
type dayTally struct {
	requests, errors int64
	served           [3]int64
}

// checkBatch verifies one batch's results and adds them to the tally: one
// result per request, and every success has a known source and a positive
// RTT.
func (t *dayTally) checkBatch(reqs []spacecdn.Request, out []spacecdn.BatchResult) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("day: %d results for %d requests", len(out), len(reqs))
	}
	for i := range out {
		if out[i].Err != nil {
			t.errors++
			t.requests++
			continue
		}
		src := out[i].Source
		if src < 0 || int(src) >= len(t.served) {
			return fmt.Errorf("day: result %d has unknown source %d", i, src)
		}
		if out[i].RTT <= 0 {
			return fmt.Errorf("day: result %d (%v) has RTT %v", i, src, out[i].RTT)
		}
		t.served[src]++
		t.requests++
	}
	return nil
}

// digestResults hashes a result stream: source, satellite, hops, RTT and
// whether each request failed.
func digestResults(h hash.Hash64, out []spacecdn.BatchResult) {
	var b [33]byte
	put := func(off int, v uint64) {
		for k := 0; k < 8; k++ {
			b[off+k] = byte(v >> (8 * k))
		}
	}
	for _, r := range out {
		put(0, uint64(r.Source))
		put(8, uint64(r.Sat))
		put(16, uint64(r.Hops))
		put(24, uint64(r.RTT))
		b[32] = 0
		if r.Err != nil {
			b[32] = 1
		}
		_, _ = h.Write(b[:]) // hash writes never fail
	}
}

// dayDigest runs the first steps of a fresh day with the given worker count
// and returns the digest of every result.
func dayDigest(o dayOpts, workers int) (uint64, error) {
	r, err := setupDay(o)
	if err != nil {
		return 0, err
	}
	defer r.cur.Close()
	h := fnv.New64a()
	for i := 0; i < o.digestSteps; i++ {
		reqs, snap, ok, err := r.next(nil, -1, 0)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		digestResults(h, r.sys.ResolveAll(reqs, snap, r.rng, workers))
	}
	return h.Sum64(), nil
}

// checkWorkerInvariance compares the result digest of a short prefix of
// the run's first day at 1 and 2 workers.
func checkWorkerInvariance(o dayOpts) error {
	o.traffic.Seed = daySeed(o.traffic.Seed, 0)
	one, err := dayDigest(o, 1)
	if err != nil {
		return err
	}
	two, err := dayDigest(o, 2)
	if err != nil {
		return err
	}
	return compareDigests(one, two)
}

func compareDigests(one, two uint64) error {
	if one != two {
		return fmt.Errorf("day: result digest differs between 1 worker (%016x) and 2 workers (%016x)", one, two)
	}
	return nil
}

// dayRun is the outcome of runDay.
type dayRun struct {
	setups []float64 // seconds per set-up
	stepMs []float64 // wall time per step
	dayRPS []float64 // requests resolved per wall second, per day
	dayP50 []float64 // median step wall time, per day
	dayP90 []float64 // 90th-percentile step wall time, per day
	tally  dayTally
	// uncovered counts generated requests left out by coveredRequests.
	uncovered int64
	loop      time.Duration // wall time in day loops, set-up excluded
	heapMB    float64       // live heap after a forced GC at the end
}

// rps is sim_rps: the upper quartile over days of requests resolved per
// second of day loop. Like the serve workloads' segments, the quieter days
// decide it, so bursts of time stolen by other tenants of the host move it
// less than a change in the program's own cost does.
func (d *dayRun) rps() float64 { return stats.Quantile(d.dayRPS, 0.75) }

// daySeed derives the seed of day k of a run. Each day of a run is a
// different day, so one run averages over several traffic days and fault
// plans instead of repeating one.
func daySeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// runDay runs whole traffic days, each on a freshly set-up rig, until budget
// has been spent in day loops (at least one day). With tr set, each step
// records spans and every probeEvery-th step is probed request by request
// before it is resolved; l then receives the per-layer metrics.
func runDay(o dayOpts, budget time.Duration, tr *tracer, l map[string]float64) (*dayRun, error) {
	var (
		d                    dayRun
		last                 *dayRig
		memoHits, memoMisses int64
		degraded, cacheHits  int64
		cacheLookups         int64
	)
	p := newProber(tr)
	rt0 := readRuntime()
	ops0 := routing.Counters()
	for days := 0; d.loop < budget || days == 0; days++ {
		od := o
		od.traffic.Seed = daySeed(o.traffic.Seed, days)
		var r *dayRig
		for k := 0; k < o.setupsPerDay; k++ {
			if r != nil {
				r.cur.Close()
			}
			s, err := timeSetup(func() (err error) {
				r, err = setupDay(od)
				return err
			})
			if err != nil {
				return nil, err
			}
			d.setups = append(d.setups, s)
		}
		p.attach(r.sys, r.env.LSN)
		before, firstStep := d.tally.requests, len(d.stepMs)
		l0 := time.Now()
		for step := 0; ; step++ {
			st0 := time.Now()
			id := int64(days)<<20 | int64(step)
			probed := tr != nil && step%o.probeEvery == 0
			stepName := "day.step"
			if probed {
				stepName = "day.step_probed"
			}
			stepSpan := tr.begin(stepName, -1, id, 0)
			reqs, snap, ok, err := r.next(tr, stepSpan, id)
			if err != nil {
				r.cur.Close()
				return nil, err
			}
			if !ok {
				tr.end(stepSpan)
				break
			}
			resolveName := "spacecdn.resolve_all"
			if tr != nil {
				sp := tr.begin("constellation.isl_graph", stepSpan, id, 0)
				snap.ISLGraph()
				tr.end(sp)
				if probed {
					resolveName = "spacecdn.resolve_all_probed"
					for i, req := range reqs {
						rid := id<<20 | int64(i)
						rs := tr.begin("spacecdn.resolve", stepSpan, rid, 1)
						p.probe(req, snap, rs, rid, 1)
						tr.end(rs)
					}
				}
			}
			sp := tr.begin(resolveName, stepSpan, id, 0)
			out := r.sys.ResolveAll(reqs, snap, r.rng, o.workers)
			tr.end(sp)
			tr.end(stepSpan)
			d.stepMs = append(d.stepMs, msOf(time.Since(st0)))
			if err := d.tally.checkBatch(reqs, out); err != nil {
				r.cur.Close()
				return nil, err
			}
		}
		loop := time.Since(l0)
		d.loop += loop
		d.dayRPS = append(d.dayRPS, float64(d.tally.requests-before)/loop.Seconds())
		d.dayP50 = append(d.dayP50, percentile(d.stepMs[firstStep:], 0.50))
		d.dayP90 = append(d.dayP90, percentile(d.stepMs[firstStep:], 0.90))
		r.cur.Close()
		gs := r.gen.Stats()
		got := d.tally.requests - before
		if want := gs.Arrivals + gs.SessionRequests; got+r.uncovered != want {
			return nil, fmt.Errorf("day: resolved %d requests and left out %d, generator produced %d", got, r.uncovered, want)
		}
		d.uncovered += r.uncovered
		last = r
		h, m := r.sys.Constellation().PathMemoCounters()
		fm := r.sys.Metrics()
		memoHits, memoMisses = memoHits+h, memoMisses+m
		degraded += r.sys.FaultStats().DegradedRequests
		cacheHits, cacheLookups = cacheHits+fm.Hits, cacheLookups+fm.Hits+fm.Misses
	}
	rt1 := readRuntime()
	ops1 := routing.Counters()

	d.heapMB = liveHeapMB()
	runtime.KeepAlive(last)

	if tr == nil {
		return &d, nil
	}
	reqs := float64(d.tally.requests)
	alloc, gcShare, pause := runtimeDelta(rt0, rt1, d.tally.requests)
	l["runtime.alloc_bytes_per_req"] = alloc
	l["runtime.gc_cpu_share"] = gcShare
	l["runtime.gc_pause_p99_ms"] = pause
	opsLayers(l, ops0, ops1, reqs)
	l["constellation.path_memo_hit_ratio"] = ratio(float64(memoHits), float64(memoHits+memoMisses))
	l["spacecdn.degraded_share"] = ratio(float64(degraded), reqs)
	l["spacecdn.space_share"] = ratio(float64(d.tally.served[spacecdn.SourceOverhead]+d.tally.served[spacecdn.SourceISL]),
		float64(d.tally.requests-d.tally.errors))
	l["cache.hit_ratio"] = ratio(float64(cacheHits), float64(cacheLookups))
	p.layers(l)
	self := selfTimes(tr.spans)
	l["traffic.next_batch_ms"] = meanMs(self["traffic.next_batch"])
	l["constellation.snapshot_ms"] = meanMs(self["constellation.snapshot"])
	l["constellation.isl_graph_ms"] = meanMs(self["constellation.isl_graph"])
	l["spacecdn.resolve_all_ms"] = meanMs(self["spacecdn.resolve_all"])
	l["spacecdn.path_self_share"] = ratio(float64(self["constellation.path_tree"].own+self["lsn.resolve_path"].own),
		float64(self["spacecdn.resolve"].total))
	return &d, nil
}

// opsLayers adds the routing counters' per-request rates and mean costs.
func opsLayers(l map[string]float64, a, b routing.OpStats, reqs float64) {
	dij, bfs := float64(b.Dijkstras-a.Dijkstras), float64(b.BFSSearches-a.BFSSearches)
	l["routing.dijkstra_per_req"] = ratio(dij, reqs)
	l["routing.dijkstra_us"] = ratio(float64(b.DijkstraNanos-a.DijkstraNanos)/1000, dij)
	l["routing.bfs_per_req"] = ratio(bfs, reqs)
	l["routing.bfs_us"] = ratio(float64(b.BFSNanos-a.BFSNanos)/1000, bfs)
}

func meanMs(t layerTimes) float64 {
	return ratio(msOf(t.own), float64(t.count))
}
