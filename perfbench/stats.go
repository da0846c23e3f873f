package main

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs
// without modifying xs. +Inf entries (failed or unfinished requests) sort
// last, so a tail percentile that reaches them reads +Inf. An empty input
// reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finite maps +Inf (a latency that includes failed requests) to the largest
// float so it survives JSON encoding and still compares as worst.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// timeSetup runs one set-up and returns its wall time in seconds. A forced
// garbage collection first keeps the collection of an earlier set-up's or
// phase's garbage out of the timed part.
func timeSetup(setup func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := setup()
	return time.Since(t0).Seconds(), err
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// schedule is an open-loop arrival schedule: due offsets from the start of
// the phase, ascending.
type schedule []time.Duration

// poissonSchedule draws Poisson arrivals at rate per second over span.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration) schedule {
	var s schedule
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return s
		}
		s = append(s, d)
	}
}

// dueBy counts the arrivals due at or before offset off.
func (s schedule) dueBy(off time.Duration) int {
	return sort.Search(len(s), func(i int) bool { return s[i] > off })
}

// backlog is the number of arrivals due by off that have not been sent,
// given that sent of them already have been; never negative.
func (s schedule) backlog(off time.Duration, sent int) int {
	if b := s.dueBy(off) - sent; b > 0 {
		return b
	}
	return 0
}

// runtimeSample is a point-in-time read of the runtime/metrics the
// benchmark differences across a measured phase.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var r runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = ms[2].Value.Float64()
	}
	if ms[3].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = ms[3].Value.Float64Histogram()
	}
	return r
}

// runtimeDelta summarizes the runtime between two samples for ops
// operations: allocated bytes per operation, the GC's share of process CPU
// time and the 99th-percentile GC pause in milliseconds.
func runtimeDelta(a, b runtimeSample, ops int64) (allocPerOp, gcShare, pauseP99Ms float64) {
	allocPerOp = ratio(float64(b.allocBytes-a.allocBytes), float64(ops))
	gcShare = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return
	}
	var total uint64
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			// Report the bucket's upper bound; the last bucket is open.
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			pauseP99Ms = hi * 1000
			return
		}
	}
	return
}

// liveHeapMB forces a garbage collection and returns the live heap it
// marked, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
