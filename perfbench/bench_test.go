package main

import (
	"bytes"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 0.50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(xs, 0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := percentile([]float64{3}, 0.99); got != 3 {
		t.Errorf("p99 of one sample = %v, want 3", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// Two failures in 100 requests put p99 at infinity, p50 stays finite.
	xs[0], xs[1] = math.Inf(1), math.Inf(1)
	if got := percentile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := finite(math.Inf(1)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v", got)
	}
}

func TestScheduleLagAndBacklog(t *testing.T) {
	s := schedule{10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
	for _, c := range []struct {
		off       time.Duration
		sent, due int
		backlog   int
	}{
		{0, 0, 0, 0},
		{10 * time.Millisecond, 0, 1, 1},
		{25 * time.Millisecond, 1, 3, 2},
		{25 * time.Millisecond, 3, 3, 0},
		{time.Second, 4, 4, 0},
		{time.Second, 5, 4, 0}, // never negative
	} {
		if got := s.dueBy(c.off); got != c.due {
			t.Errorf("dueBy(%v) = %d, want %d", c.off, got, c.due)
		}
		if got := s.backlog(c.off, c.sent); got != c.backlog {
			t.Errorf("backlog(%v, %d) = %d, want %d", c.off, c.sent, got, c.backlog)
		}
	}

	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("same seed gave different schedules")
	}
	// 10,000 expected arrivals; Poisson sd is 100.
	if n := len(a); n < 9600 || n > 10400 {
		t.Errorf("%d arrivals at 1000/s over 10 s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("schedule not ascending within the span at %d", i)
		}
	}
}

func TestOpenLatencySegments(t *testing.T) {
	// Three full segments; the middle one is disturbed. The lower quartile
	// of the segments' p50s ignores it.
	var sched schedule
	var lat []float64
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 100; i++ {
			sched = append(sched, time.Duration(seg)*openSegment+time.Duration(i)*openSegment/100)
			v := 1.0
			if seg == 1 {
				v = 50
			}
			lat = append(lat, v)
		}
	}
	if got := openLatency(sched, lat, 0.5); got != 1 {
		t.Errorf("lower quartile of segment p50s = %v, want 1", got)
	}
	// A short trailing segment is folded away, not reported on its own.
	sched = append(sched, 3*openSegment+time.Millisecond)
	lat = append(lat, 1000)
	if got := openLatency(sched, lat, 0.99); got != 1 {
		t.Errorf("lower quartile of segment p99s with a short tail = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "request", start: 0, end: 10 * ms, parent: -1},
		{name: "stage", start: 1 * ms, end: 4 * ms, parent: 0},
		{name: "stage", start: 3 * ms, end: 6 * ms, parent: 0}, // overlaps the first
		{name: "leaf", start: 3 * ms, end: 4 * ms, parent: 2},
		{name: "open", start: 8 * ms, end: -1, parent: 0}, // never closed
	}
	self := selfTimes(spans)
	if got := self["request"].own; got != 5*ms {
		t.Errorf("request self = %v, want 5ms (10ms minus the 5ms union of its children)", got)
	}
	if got := self["stage"]; got.count != 2 || got.total != 6*ms || got.own != 5*ms {
		t.Errorf("stage = %+v, want 2 spans, 6ms total, 5ms self", got)
	}
	if _, ok := self["open"]; ok {
		t.Error("an unclosed span was counted")
	}
	var nilTracer *tracer
	if i := nilTracer.begin("x", -1, 0, 0); i != -1 || nilTracer.end(i) != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

func TestParseAnswerRejectsCorruptResponses(t *testing.T) {
	good := `{"epoch":3,"t_ms":30000,"source":"isl","sat":17,"hops":2,"rtt_us":41000}` + "\n"
	a, err := parseAnswer([]byte(good), 1584)
	if err != nil || a.source != "isl" || a.sat != 17 || a.hops != 2 || a.epoch != 3 {
		t.Fatalf("good response: %+v, %v", a, err)
	}
	for name, body := range map[string]string{
		"truncated":      `{"epoch":3,"t_ms":30000,"source":"isl"`,
		"missing field":  `{"epoch":3,"t_ms":30000,"source":"isl","sat":17,"rtt_us":41000}`,
		"unknown source": `{"epoch":3,"t_ms":0,"source":"moon","sat":17,"hops":2,"rtt_us":41000}`,
		"zero rtt":       `{"epoch":3,"t_ms":0,"source":"isl","sat":17,"hops":2,"rtt_us":0}`,
		"bad satellite":  `{"epoch":3,"t_ms":0,"source":"overhead","sat":1584,"hops":0,"rtt_us":9}`,
		"epoch zero":     `{"epoch":0,"t_ms":0,"source":"ground","sat":0,"hops":0,"rtt_us":9}`,
		"negative hops":  `{"epoch":1,"t_ms":0,"source":"ground","sat":0,"hops":-1,"rtt_us":9}`,
	} {
		if _, err := parseAnswer([]byte(body), 1584); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
	if err := matchExpected(answer{source: "isl", sat: 17, hops: 2}, answer{source: "isl", sat: 18, hops: 2}); err == nil {
		t.Error("a different serving satellite matched the in-process answer")
	}
}

func TestDayChecksRejectCorruptResults(t *testing.T) {
	reqs := make([]spacecdn.Request, 3)
	good := []spacecdn.BatchResult{
		{Resolution: spacecdn.Resolution{Source: spacecdn.SourceOverhead, Sat: 4, RTT: time.Millisecond}},
		{Resolution: spacecdn.Resolution{Source: spacecdn.SourceISL, Sat: 9, Hops: 2, RTT: 2 * time.Millisecond}},
		{Err: errors.New("no satellite visible")},
	}
	var tl dayTally
	if err := tl.checkBatch(reqs, good); err != nil || tl.requests != 3 || tl.errors != 1 {
		t.Fatalf("good batch: %v, tally %+v", err, tl)
	}
	if err := tl.checkBatch(reqs[:2], good); err == nil {
		t.Error("accepted more results than requests")
	}
	zeroRTT := append([]spacecdn.BatchResult(nil), good...)
	zeroRTT[1].RTT = 0
	if err := tl.checkBatch(reqs, zeroRTT); err == nil {
		t.Error("accepted a success with zero RTT")
	}
	badSrc := append([]spacecdn.BatchResult(nil), good...)
	badSrc[0].Source = spacecdn.Source(7)
	if err := tl.checkBatch(reqs, badSrc); err == nil {
		t.Error("accepted an unknown source")
	}

	h1, h2 := fnv.New64a(), fnv.New64a()
	digestResults(h1, good)
	corrupt := append([]spacecdn.BatchResult(nil), good...)
	corrupt[1].Hops = 3
	digestResults(h2, corrupt)
	if err := compareDigests(h1.Sum64(), h2.Sum64()); err == nil {
		t.Error("digests of different result streams compared equal")
	}
	if err := compareDigests(h1.Sum64(), h1.Sum64()); err != nil {
		t.Error(err)
	}
}

func TestCoveredRequests(t *testing.T) {
	reqs := []spacecdn.Request{
		{Client: geo.NewPoint(64.147, -21.94), ISO2: "IS"},
		{Client: geo.NewPoint(40.71, -74.01), ISO2: "US"},
		{Client: geo.NewPoint(61.218, -149.9), ISO2: "US"},
		{Client: geo.NewPoint(-33.87, 151.21), ISO2: "AU"},
		{Client: geo.NewPoint(-62, -58), ISO2: "AQ"},
	}
	kept, left := coveredRequests(reqs)
	if left != 3 || len(kept) != 2 || kept[0].ISO2 != "US" || kept[1].ISO2 != "AU" {
		t.Fatalf("kept %+v, left out %d; want New York and Sydney kept, 3 left out", kept, left)
	}
}

func TestCheckBalance(t *testing.T) {
	seen := tally{ok: 100, non200: 2}
	if err := checkBalance(serve.Stats{Requests: 110, Errors: 2}, seen, 10); err != nil {
		t.Errorf("balanced counters rejected: %v", err)
	}
	if err := checkBalance(serve.Stats{Requests: 105, Errors: 2}, seen, 10); err == nil {
		t.Error("server serving fewer requests than the client read was accepted")
	}
	if err := checkBalance(serve.Stats{Requests: 111, Errors: 2}, seen, 10); err == nil {
		t.Error("server serving more requests than were sent was accepted")
	}
	if err := checkBalance(serve.Stats{Requests: 110, Errors: 2, StaleServed: 111}, seen, 10); err == nil {
		t.Error("more stale serves than serves was accepted")
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "day", "--seed", "9", "--seconds", "3", "--trace", "1"})
	if err != nil || o.workload != "day" || o.seed != 9 || o.seconds != 3 || o.trace != 1 {
		t.Fatalf("parseArgs: %+v, %v", o, err)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "day", "--seconds", "0"},
		{"--workload", "day", "--trace", "2"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("accepted %v", args)
		}
	}
}

// checkReport asserts a smoke run reported exactly the declared metrics.
func checkReport(t *testing.T, rep *report, traced bool) {
	t.Helper()
	if rep.attempted < 1 {
		t.Fatalf("attempted %d", rep.attempted)
	}
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layers
	}
	if u := unlisted(vals, defs); len(u) > 0 {
		t.Errorf("undeclared metrics %v", u)
	}
	if !traced {
		for _, d := range defs {
			if v := vals[d.name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s = %v, want a positive finite value", d.name, v)
			}
		}
	}
	var out bytes.Buffer
	for _, n := range rep.notes {
		out.WriteString(n + "\n")
	}
	t.Log(out.String())
}

func tinyDay() dayOpts {
	o := dayOptions(3)
	o.traffic.Users = 20_000
	o.traffic.Horizon = 2 * time.Hour
	o.traffic.ReqPerUserDay = 2
	o.probeEvery = 2
	o.digestSteps = 2
	o.setupsPerDay = 1
	return o
}

func TestSmokeDay(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep, err := dayWorkload(tinyDay(), 10*time.Millisecond, traced)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep, traced)
		if traced && rep.layers["constellation.best_visible_us"] <= 0 {
			t.Error("traced day probed no request")
		}
	}
}

func tinyServe(churn bool) serveOpts {
	o := serveOptions(5, churn)
	o.cities = 6
	o.rate = 400
	o.setups = 1
	o.probes = 30
	o.epochProbes = 2
	o.epochLoad = 150 * time.Millisecond
	if churn {
		o.warmup = 100 * time.Millisecond
	}
	return o
}

func TestSmokeServe(t *testing.T) {
	for _, churn := range []bool{true, false} {
		for _, traced := range []bool{false, true} {
			rep, err := serveWorkload(tinyServe(churn), 1200*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("churn=%v traced=%v: %v", churn, traced, err)
			}
			checkReport(t, rep, traced)
			if rep.failed != 0 {
				t.Errorf("churn=%v: %d failed requests", churn, rep.failed)
			}
			if traced && rep.layers["loadgen.conns_opened"] != 2 {
				t.Errorf("churn=%v: %v connections opened for 2 workers", churn, rep.layers["loadgen.conns_opened"])
			}
			if traced && !(rep.layers["serve.epoch_swap_p99_ms"] > 0) {
				t.Errorf("churn=%v: no epoch swap measured", churn)
			}
		}
	}
}

func TestRunPrintsResultLast(t *testing.T) {
	var out bytes.Buffer
	err := runWith(&out, options{workload: "day", seed: 3, seconds: 1}, func(options) (*report, error) {
		return dayWorkload(tinyDay(), 10*time.Millisecond, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	for _, key := range []string{`"correct":true`, `"attempted":`, `"failed":`, `"setup_s":{"value":`, `"unit":"s"`} {
		if !strings.Contains(last, key) {
			t.Errorf("last line %s lacks %s", last, key)
		}
	}
}

func TestRunRejectsUnmeasuredEndToEnd(t *testing.T) {
	var out bytes.Buffer
	err := runWith(&out, options{workload: "day", seed: 3, seconds: 1}, func(options) (*report, error) {
		rep := newReport()
		rep.attempted = 1
		rep.e2e["setup_s"] = math.NaN()
		return rep, nil
	})
	if err == nil || strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("NaN setup_s: err %v, output %q; want an error and no result", err, out.String())
	}
	rep := newReport()
	rep.attempted = 1
	for _, d := range endToEnd {
		rep.e2e[d.name] = 1
	}
	rep.layers["faults.view_at_us"] = math.NaN()
	err = runWith(io.Discard, options{workload: "day", seed: 3, seconds: 1}, func(options) (*report, error) {
		return rep, nil
	})
	if v := rep.layers["faults.view_at_us"]; err != nil || v != 0 {
		t.Fatalf("NaN layer: err %v, value %v; want it reported as 0", err, v)
	}
}
