package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/measure"
	"spacecdn/internal/routing"
	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
)

// Open-loop arrival rates, fixed on the commit that introduced the
// benchmark: about 40% of serve-warm's closed-loop capacity_rps and a sixth
// of serve-churn's on 2 cores (BASELINE.md says why churn runs lower). They
// must not change afterwards, or latency figures stop being comparable
// across commits.
const (
	churnRate = 1000.0
	warmRate  = 18000.0
)

// churnInterval is serve-churn's sweeper period: most requests are the
// first of their (city, object) pair on their epoch.
const churnInterval = 5 * time.Millisecond

// serveOpts sizes a daemon workload. The benchmark runs serveOptions; tests
// run a small city set and short phases.
type serveOpts struct {
	seed  int64
	churn bool
	// interval is the sweeper period; zero pins the first epoch.
	interval time.Duration
	// cities caps the client cities (0 keeps all 109 Starlink cities).
	cities int
	rate   float64
	conns  int
	// setups is how many set-ups are timed in each of the three rounds:
	// before the load, after the capacity phase and after the open loop.
	// Spread over the run, a burst of host load at one moment moves a
	// third of them at most; setup_s is the median of all.
	setups int
	// warmup is the discarded closed-loop load before measuring serve-churn
	// (its first epochs); serve-warm instead warms every distinct request.
	warmup time.Duration
	// capShare is the share of the budget spent in the closed-loop
	// capacity phase; the rest is the open-loop phase.
	capShare float64
	// grace bounds how long the open loop waits for requests in flight at
	// the end of its schedule; later ones count as unfinished.
	grace time.Duration
	// probes and epochProbes size the traced run's quiet phase.
	probes, epochProbes int
	// epochLoad is how long serve-warm's traced run loads a churning side
	// daemon to measure epoch swaps and stale serves, which its own pinned
	// epoch never has.
	epochLoad time.Duration
}

func serveOptions(seed int64, churn bool) serveOpts {
	o := serveOpts{seed: seed, churn: churn, rate: warmRate, conns: 2, setups: 31,
		capShare: 0.5, grace: 500 * time.Millisecond, probes: 642, epochProbes: 20, epochLoad: time.Second}
	if churn {
		o.interval = churnInterval
		o.warmup = time.Second
		o.rate = churnRate
	}
	return o
}

// serveRig is one set-up daemon: the spacecdnd configuration (lifecycle on
// DefaultPolicy, telemetry at 0.01 trace sampling, PlaceWorkload), serving
// HTTP on a loopback port.
type serveRig struct {
	o     serveOpts
	env   *measure.Environment
	sys   *spacecdn.System
	srv   *serve.Server
	reqs  []spacecdn.Request // the distinct requests of the mix
	paths []string           // their /resolve URLs
	sats  int
	// expected holds serve-warm's in-process answers per distinct request.
	expected []answer
}

func setupServe(o serveOpts) (*serveRig, error) {
	env, err := measure.NewEnvironment()
	if err != nil {
		return nil, err
	}
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), env.Constellation, env.LSN)
	if err != nil {
		return nil, err
	}
	sys.SetTelemetry(telemetry.New(0.01))
	sys.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), env.Constellation.Total()))
	srv, err := serve.New(sys, serve.Config{
		Addr:     "127.0.0.1:0",
		Seed:     o.seed,
		Step:     15 * time.Second,
		Interval: o.interval,
	})
	if err != nil {
		return nil, err
	}
	wl, err := srv.PlaceWorkload(o.cities)
	if err != nil {
		_ = srv.Close() // never started; nothing to drain
		return nil, err
	}
	if err := srv.Start(); err != nil {
		_ = srv.Close()
		return nil, err
	}
	rg := &serveRig{o: o, env: env, sys: sys, srv: srv, sats: env.Constellation.Total()}
	wl.Cities = coveredCities(wl.Cities)
	for i := 0; i < 3*len(wl.Cities); i++ {
		r := wl.Request(uint64(i))
		rg.reqs = append(rg.reqs, r)
		q := url.Values{}
		q.Set("lat", strconv.FormatFloat(r.Client.LatDeg, 'g', -1, 64))
		q.Set("lon", strconv.FormatFloat(r.Client.LonDeg, 'g', -1, 64))
		q.Set("iso2", r.ISO2)
		q.Set("obj", string(r.Obj.ID))
		rg.paths = append(rg.paths, "/resolve?"+q.Encode())
	}
	return rg, nil
}

// maxClientLat bounds the client cities of the serve mix and the day. The
// default 53-degree shell never has a satellite above Reykjavik (64.1 N) and
// covers Anchorage (61.2 N) only part of the time, so requests from them fail
// by design of the model. At 1.2% of the serve mix those failures would hold
// the open-loop p99 at infinity; the other 107 Starlink cities are covered at
// every instant. Placement still covers all 109 cities, as spacecdnd does.
const maxClientLat = 61.0

func coveredCities(cities []geo.City) []geo.City {
	var out []geo.City
	for _, c := range cities {
		if math.Abs(c.Loc.LatDeg) < maxClientLat {
			out = append(out, c)
		}
	}
	return out
}

// tally counts one load phase's outcomes as the client saw them.
type tally struct {
	ok, non200, transport int64
	sources               [3]int64
}

func (t *tally) add(u tally) {
	t.ok += u.ok
	t.non200 += u.non200
	t.transport += u.transport
	for i := range t.sources {
		t.sources[i] += u.sources[i]
	}
}

func sourceIndex(s string) int {
	switch s {
	case "overhead":
		return 0
	case "isl":
		return 1
	}
	return 2
}

// worker is one load goroutine with its connection.
type worker struct {
	cn        *conn
	t         tally
	lastEpoch uint64
	// pairs records each (epoch, distinct request) answered, when set.
	pairs map[uint64]struct{}
}

// check validates one response to distinct request j. serve-warm requires
// 200 and the in-process answer; serve-churn counts non-200 as failed and
// requires epochs never to go backwards on a connection.
func (rg *serveRig) check(w *worker, j, status int, body []byte) error {
	if status != 200 {
		if !rg.o.churn {
			return fmt.Errorf("serve-warm: status %d for %s: %q", status, rg.paths[j], body)
		}
		w.t.non200++
		return nil
	}
	a, err := parseAnswer(body, rg.sats)
	if err != nil {
		return err
	}
	if a.epoch < w.lastEpoch {
		return fmt.Errorf("epoch went back from %d to %d on one connection", w.lastEpoch, a.epoch)
	}
	w.lastEpoch = a.epoch
	if w.pairs != nil {
		w.pairs[a.epoch<<20|uint64(j)] = struct{}{}
	}
	if rg.expected != nil {
		if err := matchExpected(a, rg.expected[j]); err != nil {
			return fmt.Errorf("%s: %w", rg.paths[j], err)
		}
	}
	w.t.ok++
	w.t.sources[sourceIndex(a.source)]++
	return nil
}

// matchExpected compares the served source, satellite and hops with the
// in-process answer.
func matchExpected(got, want answer) error {
	if got.source != want.source || got.sat != want.sat || got.hops != want.hops {
		return fmt.Errorf("served %s sat %d hops %d, in-process ResolveAt gives %s sat %d hops %d",
			got.source, got.sat, got.hops, want.source, want.sat, want.hops)
	}
	return nil
}

// collect sums the workers' tallies since the last collect and resets them.
func collect(ws []*worker) tally {
	var t tally
	for _, w := range ws {
		t.add(w.t)
		w.t = tally{}
	}
	return t
}

// Measured phases are cut into segments, and a phase reports the figure of
// its quieter segments: the upper quartile of segment throughputs and the
// lower quartile of segment latency percentiles. The benchmark shares two
// virtual CPUs with other tenants of the host, whose bursts of stolen time
// would otherwise decide the result; a change in the program's own cost
// moves every segment, quiet or not.
const (
	capacitySegment = 250 * time.Millisecond
	openSegment     = 500 * time.Millisecond
)

// traceEvery is the traced closed loop's sampling: one request in
// traceEvery records a span, which keeps the trace file to a few MB.
const traceEvery = 8

// closedLoop drives every worker back to back for d: each sends its next
// request as soon as the previous one completed. It returns the upper
// quartile over capacitySegment-long segments of 200 responses per second.
// With tr set, one request in traceEvery records a span.
func (rg *serveRig) closedLoop(ws []*worker, seq []int, next *atomic.Int64, d time.Duration, tr *tracer) (tally, float64, error) {
	segs := max(1, int(d/capacitySegment))
	segLen := d / time.Duration(segs)
	start := time.Now()
	end := start.Add(d)
	errs := make([]error, len(ws))
	counts := make([][]int64, len(ws))
	var wg sync.WaitGroup
	for k, w := range ws {
		counts[k] = make([]int64, segs)
		wg.Add(1)
		go func(k int, w *worker) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := next.Add(1) - 1
				j := seq[int(i)%len(seq)]
				sp := -1
				if i%traceEvery == 0 {
					sp = tr.begin("serve.http_request", -1, i, k+1)
				}
				status, body, err := w.cn.get(rg.paths[j], end.Add(rg.o.grace))
				tr.end(sp)
				if err != nil {
					w.t.transport++
					continue
				}
				ok := w.t.ok
				if err := rg.check(w, j, status, body); err != nil {
					errs[k] = err
					return
				}
				if seg := int(time.Since(start) / segLen); w.t.ok > ok && seg < segs {
					counts[k][seg]++
				}
			}
		}(k, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return tally{}, 0, err
		}
	}
	rates := make([]float64, segs)
	for s := range rates {
		for k := range ws {
			rates[s] += float64(counts[k][s])
		}
		rates[s] /= segLen.Seconds()
	}
	return collect(ws), stats.Quantile(rates, 0.75), nil
}

// openLatency returns the lower quartile over openSegment-long segments of
// the schedule of the q-quantile latency of the requests due in each
// segment.
func openLatency(sched schedule, latMs []float64, q float64) float64 {
	var perSeg []float64
	for lo := 0; lo < len(sched); {
		seg := sched[lo] / openSegment
		hi := lo
		for hi < len(sched) && sched[hi]/openSegment == seg {
			hi++
		}
		// A trailing partial segment shorter than half a segment is too
		// small for its own tail percentile.
		last := hi == len(sched)
		if !last || len(perSeg) == 0 || sched[len(sched)-1]-seg*openSegment >= openSegment/2 {
			perSeg = append(perSeg, percentile(latMs[lo:hi], q))
		}
		lo = hi
	}
	return stats.Quantile(perSeg, 0.25)
}

// openResult is one open-loop phase's outcome.
type openResult struct {
	t          tally
	latMs      []float64 // per scheduled request, from its due time; +Inf if failed or unfinished
	lagMs      []float64 // send time minus due time, per sent request
	backlogMax int64
	unfinished int64
}

// openLoop sends request i of seq at its due time sched[i], whatever the
// state of earlier requests. A pacer goroutine hands each request, once
// due, to whichever worker is free; a request that waits for a free
// connection is late, and its latency counts from when it was due, as does
// the pacer's own lateness: a stall of the process delays the requests due
// during it. Requests not answered by the end of the schedule plus the
// grace period count as unfinished.
func (rg *serveRig) openLoop(ws []*worker, seq []int, sched schedule) (openResult, error) {
	res := openResult{latMs: make([]float64, len(sched))}
	for i := range res.latMs {
		res.latMs[i] = math.Inf(1)
	}
	var span time.Duration
	if len(sched) > 0 {
		span = sched[len(sched)-1]
	}
	start := time.Now()
	end := start.Add(span + rg.o.grace)
	type job struct {
		i    int
		sent time.Time
	}
	jobs := make(chan job)
	lags := make([][]float64, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for k, w := range ws {
		wg.Add(1)
		go func(k int, w *worker) {
			defer wg.Done()
			for jb := range jobs {
				if errs[k] != nil {
					continue
				}
				due := start.Add(sched[jb.i])
				lags[k] = append(lags[k], msOf(jb.sent.Sub(due)))
				j := seq[jb.i%len(seq)]
				status, body, err := w.cn.get(rg.paths[j], end)
				done := time.Now()
				if err != nil {
					w.t.transport++
					continue
				}
				if err := rg.check(w, j, status, body); err != nil {
					errs[k] = err
					continue
				}
				if status == 200 {
					res.latMs[jb.i] = msOf(done.Sub(due))
				}
			}
		}(k, w)
	}
	for i, off := range sched {
		time.Sleep(time.Until(start.Add(off)))
		now := time.Now()
		if now.After(end) {
			break
		}
		res.backlogMax = max(res.backlogMax, int64(sched.backlog(now.Sub(start), i)))
		jobs <- job{i, time.Now()}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	res.t = collect(ws)
	for _, l := range res.latMs {
		if math.IsInf(l, 1) {
			res.unfinished++
		}
	}
	res.unfinished -= res.t.non200 + res.t.transport
	for _, l := range lags {
		res.lagMs = append(res.lagMs, l...)
	}
	return res, nil
}

// warm sends every distinct request until the answers settle, records
// serve-warm's expected answers from in-process ResolveAt on the pinned
// epoch, and checks one more pass against them. Lifecycle fills commit on
// the applier goroutine after the response that asked for them, so a pass
// can still see answers that a queued fill is about to change. The answers
// have settled when two passes in a row and the in-process answers agree.
func (rg *serveRig) warm(w *worker) error {
	deadline := time.Now().Add(time.Minute)
	ep := rg.srv.Epoch()
	rng := stats.NewRand(rg.o.seed).Fork("perfbench-expected")
	var prev []answer
	for {
		cur, err := rg.pass(w, deadline)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if slices.Equal(cur, prev) {
			want := make([]answer, len(rg.reqs))
			for j, r := range rg.reqs {
				res, err := rg.sys.ResolveAt(ep, r.Client, r.ISO2, r.Obj, rng)
				if err != nil {
					return fmt.Errorf("in-process ResolveAt for %s: %w", rg.paths[j], err)
				}
				want[j] = answer{source: res.Source.String(), sat: int(res.Sat), hops: res.Hops}
			}
			if slices.Equal(want, cur) {
				rg.expected = want
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: answers did not settle before the deadline")
		}
		prev = cur
	}
	if _, err := rg.pass(w, deadline); err != nil {
		return fmt.Errorf("warm-up check: %w", err)
	}
	return nil
}

// pass sends every distinct request once, checks each response, and
// returns the source, satellite and hops of each answer.
func (rg *serveRig) pass(w *worker, deadline time.Time) ([]answer, error) {
	out := make([]answer, len(rg.paths))
	for j, p := range rg.paths {
		status, body, err := w.cn.get(p, deadline)
		if err != nil {
			return nil, err
		}
		if err := rg.check(w, j, status, body); err != nil {
			return nil, err
		}
		a, _ := parseAnswer(body, rg.sats) // check has parsed it without error
		out[j] = answer{source: a.source, sat: a.sat, hops: a.hops}
	}
	return out, nil
}

// serveWorkload runs serve-churn or serve-warm: set-up (timed in rounds
// over the run, median reported), warm-up, the closed-loop capacity phase
// and the open-loop latency phase. The traced run splits the capacity
// phase into an untraced and a traced half, probes the daemon in-process
// with the load stopped, and measures per-request costs on isolated
// systems.
func serveWorkload(o serveOpts, budget time.Duration, traced bool) (*report, error) {
	rep := newReport()
	name := "serve-warm"
	if o.churn {
		name = "serve-churn"
	}
	var setups []float64
	// throwaway times n set-ups of daemons it closes at once.
	throwaway := func(n int) error {
		for k := 0; k < n; k++ {
			var r *serveRig
			d, err := timeSetup(func() (err error) {
				r, err = setupServe(o)
				return err
			})
			if err != nil {
				return err
			}
			setups = append(setups, d)
			if err := r.srv.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := throwaway(o.setups - 1); err != nil {
		return nil, err
	}
	var rg *serveRig
	d, err := timeSetup(func() (err error) {
		rg, err = setupServe(o)
		return err
	})
	if err != nil {
		return nil, err
	}
	setups = append(setups, d)
	defer rg.srv.Close()

	rng := rand.New(rand.NewSource(o.seed))
	seq := rg.mix(rng)
	cl, ws := rg.connect()
	defer closeAll(ws)
	var next atomic.Int64
	var total tally
	if o.churn {
		t, _, err := rg.closedLoop(ws, seq, &next, o.warmup, nil)
		if err != nil {
			return nil, err
		}
		total = t
	} else {
		if err := rg.warm(ws[0]); err != nil {
			return nil, err
		}
		total = collect(ws)
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ops0 := routing.Counters()
	h0, m0 := rg.sys.Constellation().PathMemoCounters()
	capD := time.Duration(float64(budget) * o.capShare)
	var capT tally
	var capRPS float64
	for _, w := range ws {
		w.pairs = make(map[uint64]struct{})
	}
	if !traced {
		t, rps, err := rg.closedLoop(ws, seq, &next, capD, nil)
		if err != nil {
			return nil, err
		}
		capT, capRPS = t, rps
	} else {
		t1, plain, err := rg.closedLoop(ws, seq, &next, capD/2, nil)
		if err != nil {
			return nil, err
		}
		t2, withTrace, err := rg.closedLoop(ws, seq, &next, capD/2, tr)
		if err != nil {
			return nil, err
		}
		rep.layers["trace.overhead_pct"] = 100 * (plain - withTrace) / plain
		rep.notef("%s traced: capacity_rps untraced %.1f traced %.1f 1/s", name, plain, withTrace)
		capT.add(t1)
		capT.add(t2)
		capRPS = plain
	}

	firstShare := firstOfPairShare(ws, capT.ok)
	if err := throwaway(o.setups); err != nil {
		return nil, err
	}

	sched := poissonSchedule(rng, o.rate, budget-capD)
	rt0 := readRuntime()
	open, err := rg.openLoop(ws, seq, sched)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	ops1 := routing.Counters()
	h1, m1 := rg.sys.Constellation().PathMemoCounters()
	// The live heap of a churning daemon depends on how far the current
	// epoch's memos have filled, so take the median of samples a few epochs
	// apart.
	var heaps []float64
	for k := 0; k < 5; k++ {
		heaps = append(heaps, liveHeapMB())
		time.Sleep(3 * max(o.interval, 20*time.Millisecond))
	}
	heapMB := stats.Median(heaps)
	if err := throwaway(o.setups); err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = stats.Median(setups)
	total.add(capT)
	total.add(open.t)

	var inProcess int64
	if traced {
		t, n, err := rg.probeDaemon(tr, rep.layers, ws[0])
		if err != nil {
			return nil, err
		}
		total.add(t)
		inProcess = n
	}
	if err := rg.srv.Close(); err != nil {
		return nil, err
	}
	st := rg.srv.Stats()
	if err := checkBalance(st, total, inProcess); err != nil {
		return nil, err
	}

	rep.attempted = capT.ok + capT.non200 + capT.transport + int64(len(sched))
	rep.failed = capT.non200 + capT.transport + open.t.non200 + open.t.transport + open.unfinished
	rep.e2e["throughput_rps"] = capRPS
	rep.e2e["latency_p50_ms"] = openLatency(sched, open.latMs, 0.50)
	p90 := openLatency(sched, open.latMs, 0.90)
	p99 := openLatency(sched, open.latMs, 0.99)
	rep.e2e["heap_live_mb"] = heapMB
	rep.notef("%s: HTTP over loopback (127.0.0.1, server in the benchmark process), %d keep-alive connections, %d dials, %d distinct requests",
		name, o.conns, cl.dials.Load(), len(rg.reqs))
	rep.notef("%s: capacity_rps %.1f 1/s (reported as throughput_rps; upper quartile over %v segments), closed loop for %.1f s, %d responses",
		name, capRPS, capacitySegment, capD.Seconds(), capT.ok)
	rep.notef("%s: %.3f of closed-loop responses were the first for their request on their epoch", name, firstShare)
	rep.notef("%s: open loop at %.0f req/s Poisson for %.1f s: %d samples, %d unfinished; lower quartiles over %v segments: latency_p50_ms %.3f ms, latency_p90_ms %.3f ms, latency_p99_ms %.3f ms",
		name, o.rate, (budget - capD).Seconds(), len(open.latMs), open.unfinished, openSegment, rep.e2e["latency_p50_ms"], p90, p99)
	rep.notef("%s: whole-phase latency p50 %.3f ms p99 %.3f ms; generator send lag p50 %.4f ms p99 %.3f ms",
		name, percentile(open.latMs, 0.50), percentile(open.latMs, 0.99), percentile(open.lagMs, 0.50), percentile(open.lagMs, 0.99))
	rep.notef("%s: error_ratio %.6f (%d of %d failed); setup_s median of %d set-ups, quartiles %.5f to %.5f s; %d epochs published, %d stale serves",
		name, ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted, len(setups),
		stats.Quantile(setups, 0.25), stats.Quantile(setups, 0.75), st.Epochs, st.StaleServed)
	if !traced {
		return rep, nil
	}

	l := rep.layers
	alloc, gcShare, pause := runtimeDelta(rt0, rt1, int64(len(sched)))
	l["runtime.alloc_bytes_per_req"] = alloc
	l["runtime.gc_cpu_share"] = gcShare
	l["runtime.gc_pause_p99_ms"] = pause
	l["serve.latency_p90_ms"] = p90
	l["serve.latency_p99_ms"] = p99
	l["loadgen.send_lag_p99_ms"] = percentile(open.lagMs, 0.99)
	l["loadgen.backlog_max"] = float64(open.backlogMax)
	l["loadgen.conns_opened"] = float64(cl.dials.Load())
	opsLayers(l, ops0, ops1, float64(capT.ok+open.t.ok))
	l["constellation.path_memo_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	l["spacecdn.space_share"] = ratio(float64(total.sources[0]+total.sources[1]), float64(total.ok))
	l["spacecdn.degraded_share"] = ratio(float64(rg.sys.FaultStats().DegradedRequests), float64(st.Requests+st.Errors))
	l["cache.hit_ratio"] = rg.sys.Metrics().HitRate()
	ls := rg.sys.LifecycleStats()
	l["lifecycle.origin_fetch_ratio"] = ratio(float64(ls.OriginFetches), float64(ls.OriginNeeded))
	l["lifecycle.fresh_share"] = ratio(float64(ls.FreshServes), float64(ls.FreshServes+ls.StaleServes+ls.ExpiredServes+ls.MissServes))
	l["serve.first_of_pair_share"] = firstShare
	es := st
	if !o.churn {
		if es, err = epochCosts(o); err != nil {
			return nil, err
		}
		rep.notef("%s traced: churning side daemon (%v epochs) for %v: %d epochs published, %d responses, %d stale serves",
			name, churnInterval, o.epochLoad, es.Epochs, es.Requests, es.StaleServed)
	}
	l["serve.stale_ratio"] = ratio(float64(es.StaleServed), float64(es.Requests))
	l["serve.epoch_swap_p50_ms"] = es.SwapP50Ms
	l["serve.epoch_swap_p99_ms"] = es.SwapP99Ms
	if err := isolatedCosts(o, l); err != nil {
		return nil, err
	}
	rep.spans = tr.spans
	self := selfTimes(tr.spans)
	rep.shares(name+" probe request", self, "request", []string{"constellation.best_visible", "routing.nearest_in_set",
		"constellation.path_tree", "lsn.resolve_path", "spacecdn.resolve_at.call", "spacecdn.resolve_at",
		"serve.resolve_once", "serve.http_roundtrip", "request"})
	return rep, nil
}

// mix draws the seeded sequence of distinct requests the load cycles
// through.
func (rg *serveRig) mix(rng *rand.Rand) []int {
	seq := make([]int, 8192)
	for i := range seq {
		seq[i] = rng.Intn(len(rg.reqs))
	}
	return seq
}

// connect opens one keep-alive connection per load worker.
func (rg *serveRig) connect() (*client, []*worker) {
	cl := &client{addr: rg.srv.Addr()}
	ws := make([]*worker, rg.o.conns)
	for k := range ws {
		ws[k] = &worker{cn: cl.conn()}
	}
	return cl, ws
}

func closeAll(ws []*worker) {
	for _, w := range ws {
		w.cn.close()
	}
}

// epochCosts measures epoch publication under load for serve-warm, whose
// own epoch is pinned: a side daemon publishing an epoch every
// churnInterval, as serve-churn's does, serves the mix in a closed loop for
// epochLoad. It returns the side daemon's Stats, which give the stale ratio
// and the epoch swap percentiles.
func epochCosts(o serveOpts) (serve.Stats, error) {
	o.churn, o.interval = true, churnInterval
	rg, err := setupServe(o)
	if err != nil {
		return serve.Stats{}, err
	}
	defer rg.srv.Close()
	_, ws := rg.connect()
	defer closeAll(ws)
	var next atomic.Int64
	t, _, err := rg.closedLoop(ws, rg.mix(rand.New(rand.NewSource(o.seed))), &next, o.epochLoad, nil)
	if err != nil {
		return serve.Stats{}, err
	}
	if err := rg.srv.Close(); err != nil {
		return serve.Stats{}, err
	}
	st := rg.srv.Stats()
	if err := checkBalance(st, t, 0); err != nil {
		return serve.Stats{}, err
	}
	return st, nil
}

// firstOfPairShare returns the share of ok responses that were the first
// answer to their distinct request on their epoch, and stops recording.
func firstOfPairShare(ws []*worker, ok int64) float64 {
	all := make(map[uint64]struct{})
	for _, w := range ws {
		for k := range w.pairs {
			all[k] = struct{}{}
		}
		w.pairs = nil
	}
	return ratio(float64(len(all)), float64(ok))
}

// checkBalance checks the server's counters against what the client saw:
// every 200 the client read is a served request, every non-200 a counted
// error; a transport failure may or may not have reached the server.
func checkBalance(st serve.Stats, t tally, inProcess int64) error {
	seen := t.ok + inProcess
	if st.Requests < seen || st.Errors < t.non200 || st.Requests+st.Errors > seen+t.non200+t.transport {
		return fmt.Errorf("server counters (%d served, %d errors) do not balance with the client's %d ok, %d non-200, %d transport errors and %d in-process requests",
			st.Requests, st.Errors, t.ok, t.non200, t.transport, inProcess)
	}
	if st.StaleServed > st.Requests {
		return fmt.Errorf("server reports %d stale serves out of %d", st.StaleServed, st.Requests)
	}
	return nil
}

// probeDaemon is the traced run's in-process phase, run with the load
// stopped. Each probed request is a root span whose children are the stage
// probes under the real ResolveAt on the same pinned epoch, then
// ResolveOnce, then the same request over HTTP. Epoch builds are probed at
// fresh instants. It returns the client's tally of the HTTP requests and
// the number of ResolveOnce calls, both of which the server counts.
func (rg *serveRig) probeDaemon(tr *tracer, l map[string]float64, w *worker) (tally, int64, error) {
	p := newProber(tr)
	p.attach(rg.sys, rg.env.LSN)
	rng := stats.NewRand(rg.o.seed).Fork("perfbench-probe")
	sc := rg.srv.AcquireScratch()
	defer rg.srv.ReleaseScratch(sc)
	var atUs [3][]float64
	var onceUs, httpUs []float64
	deadline := time.Now().Add(time.Minute)
	for k := 0; k < rg.o.probes; k++ {
		j := k % len(rg.reqs)
		r := rg.reqs[j]
		id := int64(1)<<40 | int64(k)
		root := tr.begin("request", -1, id, 0)
		ep := rg.srv.Epoch()
		at := tr.begin("spacecdn.resolve_at", root, id, 0)
		p.probe(r, ep.Snapshot(), at, id, 0)
		call := tr.begin("spacecdn.resolve_at.call", at, id, 0)
		res, err := rg.sys.ResolveAt(ep, r.Client, r.ISO2, r.Obj, rng)
		d := tr.end(call)
		tr.end(at)
		if err == nil {
			atUs[res.Source] = append(atUs[res.Source], usOf(d))
		}
		once := tr.begin("serve.resolve_once", root, id, 0)
		_, _ = rg.srv.ResolveOnce(r, sc) // the server counts its outcome; checkBalance compares
		onceUs = append(onceUs, usOf(tr.end(once)))
		hs := tr.begin("serve.http_roundtrip", root, id, 0)
		status, body, err := w.cn.get(rg.paths[j], deadline)
		httpUs = append(httpUs, usOf(tr.end(hs)))
		tr.end(root)
		if err != nil {
			return tally{}, 0, fmt.Errorf("probe: %w", err)
		}
		if err := rg.check(w, j, status, body); err != nil {
			return tally{}, 0, fmt.Errorf("probe: %w", err)
		}
	}
	p.layers(l)
	l["spacecdn.resolve_at_us.overhead"] = stats.Mean(atUs[spacecdn.SourceOverhead])
	l["spacecdn.resolve_at_us.isl"] = stats.Mean(atUs[spacecdn.SourceISL])
	l["spacecdn.resolve_at_us.ground"] = stats.Mean(atUs[spacecdn.SourceGround])
	l["serve.resolve_once_us"] = stats.Median(onceUs)
	l["serve.http_overhead_us"] = stats.Median(httpUs) - stats.Median(onceUs)

	c := rg.sys.Constellation()
	base := rg.srv.Epoch()
	var snapMs, islMs, epochMs []float64
	for k := 1; k <= rg.o.epochProbes; k++ {
		id := int64(2)<<40 | int64(k)
		sp := tr.begin("constellation.snapshot", -1, id, 0)
		snap := c.Snapshot(base.Time() + time.Duration(k)*7*time.Second)
		snapMs = append(snapMs, msOf(tr.end(sp)))
		ne := tr.begin("spacecdn.new_epoch", -1, id, 0)
		ig := tr.begin("constellation.isl_graph", ne, id, 0)
		snap.ISLGraph()
		islMs = append(islMs, msOf(tr.end(ig)))
		rg.sys.NewEpoch(base.Seq(), snap)
		epochMs = append(epochMs, msOf(tr.end(ne)))
	}
	l["constellation.snapshot_ms"] = stats.Mean(snapMs)
	l["constellation.isl_graph_ms"] = stats.Mean(islMs)
	l["spacecdn.new_epoch_ms"] = stats.Mean(epochMs)
	return collect([]*worker{w}), int64(rg.o.probes), nil
}

// isolatedCosts measures allocations per request and telemetry's cost per
// request on two fresh daemons on a pinned epoch, one with its telemetry and
// one without, with no load running: warm every distinct request, then time
// alternating passes over the mix.
func isolatedCosts(o serveOpts, l map[string]float64) error {
	o.interval = 0
	with, err := setupServe(o)
	if err != nil {
		return err
	}
	defer with.srv.Close()
	without, err := setupServe(o)
	if err != nil {
		return err
	}
	defer without.srv.Close()
	// Detached before the first request, so nothing reads it concurrently.
	without.sys.SetTelemetry(nil)
	rng := stats.NewRand(o.seed).Fork("perfbench-isolated")
	pass := func(rg *serveRig) time.Duration {
		ep := rg.srv.Epoch()
		t0 := time.Now()
		for _, r := range rg.reqs {
			_, _ = rg.sys.ResolveAt(ep, r.Client, r.ISO2, r.Obj, rng) // only the call's cost is measured here
		}
		return time.Since(t0)
	}
	for i := 0; i < 2; i++ {
		pass(with)
		pass(without)
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	pass(with)
	runtime.ReadMemStats(&b)
	n := float64(len(with.reqs))
	l["spacecdn.allocs_per_req"] = float64(b.Mallocs-a.Mallocs) / n
	var dw, dwo []float64
	for i := 0; i < 15; i++ {
		dw = append(dw, usOf(pass(with))/n)
		dwo = append(dwo, usOf(pass(without))/n)
	}
	l["telemetry.overhead_us"] = stats.Median(dw) - stats.Median(dwo)
	return nil
}
