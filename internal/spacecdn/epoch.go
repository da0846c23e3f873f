package spacecdn

import (
	"sync"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/stats"
)

// Concurrent serving support: the serve daemon advances the constellation in
// a background sweeper and publishes each step as an immutable Epoch; request
// goroutines pin one epoch with a single atomic pointer load and resolve
// against it with ResolveAt. The epoch carries everything a resolution reads
// from time-varying state — the snapshot (with its ISL graph and path-tree
// memos) and the fault view for the snapshot instant — so a request never
// observes a half-advanced topology and never takes a lock on the hot path.
//
// Ownership: the sweeper owns epoch construction (NewEpoch forces the lazy
// graph build so readers only ever see a finished topology), readers own
// nothing — they borrow the epoch for the duration of one resolution and the
// garbage collector reclaims superseded epochs once the last borrower
// returns. Lifecycle mutation is the one write the serve path performs; it is
// funneled through the single-writer applier (StartLifecycleApplier) so
// origin-fetch coalescing stays deterministic under concurrent misses.

// Epoch pins the time-varying inputs of one resolution instant: the
// constellation view requests route over and the fault state active at its
// time. Healthy is the empty fault state: a healthy epoch routes over the
// snapshot's pass-through view and has no fault view; a degraded one pins
// the fault view and its masked topology. Epochs are immutable after
// construction and safe to share across any number of request goroutines.
type Epoch struct {
	seq  uint64
	view *constellation.MaskedView // the snapshot's view under fv (pass-through when healthy)
	fv   *faults.View              // nil on a healthy epoch
}

// epochAt pins the attached fault plan's state at the snapshot time. It
// draws no randomness, so with no plan, or at a fault-free instant, a
// resolve consumes exactly the rng draws of a bare system.
func (s *System) epochAt(snap *constellation.Snapshot) Epoch {
	ep := Epoch{view: snap.Masked(0, nil, nil)}
	if s.faults != nil {
		if fv := s.faults.ViewAt(snap.Time()); !fv.Empty() {
			ep.fv = fv
			ep.view = snap.Masked(fv.Epoch, fv.DeadSats, fv.DeadLinks)
		}
	}
	return ep
}

// NewEpoch builds a publishable epoch over a finished snapshot. It pins the
// attached fault plan's view at the snapshot time and forces the lazy build
// of the topology requests will route over — the masked graph on a degraded
// epoch — so every cost of epoch construction lands on the sweeper, never
// on a request goroutine. The seq is the publisher's monotonic epoch
// counter; readers use it to detect serving on a stale-but-valid epoch.
func (s *System) NewEpoch(seq uint64, snap *constellation.Snapshot) *Epoch {
	ep := s.epochAt(snap)
	ep.seq = seq
	ep.view.ISLGraph()
	return &ep
}

// Seq returns the publisher's epoch counter.
func (e *Epoch) Seq() uint64 { return e.seq }

// Time returns the simulation instant the epoch pins.
func (e *Epoch) Time() time.Duration { return e.view.Time() }

// Snapshot returns the pinned constellation snapshot.
func (e *Epoch) Snapshot() *constellation.Snapshot { return e.view.Snapshot() }

// Degraded reports whether the epoch pins an active-outage fault view, i.e.
// resolutions against it reroute around dead hardware.
func (e *Epoch) Degraded() bool { return e.fv != nil }

// uplink returns the best visible satellite from p that survives the
// epoch's fault state; failover reports that the healthy best was dead and
// the next surviving one was chosen.
func (e *Epoch) uplink(p geo.Point) (up constellation.VisibleSat, failover, ok bool) {
	up, ok = e.view.Snapshot().BestVisible(p)
	if ok && !e.view.Alive(up.ID) {
		up, ok = e.view.BestVisible(p)
		failover = true
	}
	return up, failover, ok
}

// ResolveAt serves one request against a pinned epoch. It is the
// concurrency-safe counterpart of Resolve: where Resolve consults the fault
// plan at call time, ResolveAt uses the view pinned at epoch construction,
// so every request on one epoch sees one consistent outage state even while
// the plan's interval cache is warming under other epochs. The rng must be
// goroutine-local (fork one stream per connection or per request); all other
// inputs are shared and read-only.
//
// With an active lifecycle manager the request's intent goes to the
// single-writer applier (StartLifecycleApplier), or applies inline,
// un-coalesced, when none is attached. The response returns before a queued
// intent applies — a served stale copy is reported immediately while its
// revalidating refill commits behind it, which is exactly a CDN's
// stale-while-revalidate contract.
//
// For equal snapshot, fault state, and rng state, ResolveAt returns the
// byte-identical Resolution stream Resolve would — the epoch changes when
// state is read, never what is computed.
func (s *System) ResolveAt(ep *Epoch, client geo.Point, iso2 string, obj content.Object, rng *stats.Rand) (Resolution, error) {
	a := s.applier.Load()
	if a == nil || !s.lifecycleActive() {
		return s.resolveInline(ep, client, iso2, obj, rng)
	}
	it := intentPool.Get().(*lcIntent)
	res, err := s.resolveEpoch(ep, client, iso2, obj, rng, it)
	a.ch <- intentMsg{it: it, t: ep.Time()}
	return res, err
}

// intentMsg carries one request's lifecycle intent to the applier.
type intentMsg struct {
	it *lcIntent
	t  time.Duration
}

// lcApplier is the single-writer lifecycle apply loop. All cache mutation
// the serve path performs (fills, drops, hit accounting, tier promotion)
// funnels through its channel, so coalescing-winner selection is a plain
// map probe with no locking and arrival order fully determines outcomes.
type lcApplier struct {
	ch   chan intentMsg
	done chan struct{}
}

// intentPool recycles lifecycle intents between the resolve goroutine that
// fills one and the applier goroutine that retires it, keeping the
// lifecycle serve path allocation-free at steady state.
var intentPool = sync.Pool{New: func() any { return new(lcIntent) }}

// StartLifecycleApplier starts the single-writer apply goroutine and routes
// subsequent ResolveAt lifecycle intents through it. Origin fetches
// coalesce per {object, version, cell} within one epoch: the flights map
// resets whenever the applied intent's sim time changes, so one epoch is
// one coalescing window — mirroring ResolveAll's per-batch window.
//
// The returned stop function detaches the applier, drains queued intents,
// and waits for the goroutine to exit. Contract: stop resolving before
// calling stop (the same attach-before-concurrent-resolves discipline as
// SetFaultPlan and SetLifecycle) — a resolve racing stop could submit to a
// closed channel. Without a started applier, ResolveAt applies intents
// inline with no coalescing, exactly like a single Resolve.
func (s *System) StartLifecycleApplier(buf int) (stop func()) {
	if buf <= 0 {
		buf = 256
	}
	a := &lcApplier{ch: make(chan intentMsg, buf), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		flights := make(map[lifecycle.FlightKey]struct{})
		cur := time.Duration(-1)
		for m := range a.ch {
			if m.t != cur {
				clear(flights)
				cur = m.t
			}
			s.applyLcIntent(m.it, m.t, flights)
			*m.it = lcIntent{}
			intentPool.Put(m.it)
		}
	}()
	s.applier.Store(a)
	return func() {
		s.applier.Store(nil)
		close(a.ch)
		<-a.done
	}
}
