package spacecdn

import (
	"fmt"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/geo"
	"spacecdn/internal/orbit"
)

// Space VMs (paper §5): "we plan to explore the possibility of locating
// replicated VMs on successive satellites that will be serving a geographic
// area, and use techniques developed for VM migration in data centers to
// sync the state change deltas (~< 100 MBs) from the satellite currently
// serving an area to the satellite(s) which will be overhead next, thereby
// providing seamless operations".
//
// This file implements that plan: a stateful service anchored to a coverage
// area, handed over across the serving satellites predicted by the orbital
// model. State deltas stream over the ISL path between the current and next
// serving satellite; proactive sync ahead of the handover shrinks the final
// cut-over delta and therefore the service downtime.

// VMConfig parameterizes a replicated space VM.
type VMConfig struct {
	// StateDeltaBytes is the state produced per SyncInterval of service
	// (the paper's "< 100 MBs" deltas).
	StateDeltaBytes int64
	// SyncInterval is the proactive replication cadence while serving.
	SyncInterval time.Duration
	// ISLBandwidthBps is the laser-link rate available to migration
	// traffic.
	ISLBandwidthBps float64
	// Proactive enables ahead-of-handover delta streaming; when false the
	// whole accumulated state migrates at cut-over (cold migration).
	Proactive bool
}

// DefaultVMConfig matches the paper's sketch: 100 MB deltas, 10 s sync
// cadence, 10 Gbps ISLs, proactive sync on.
func DefaultVMConfig() VMConfig {
	return VMConfig{
		StateDeltaBytes: 100 << 20,
		SyncInterval:    10 * time.Second,
		ISLBandwidthBps: 10e9,
		Proactive:       true,
	}
}

// Validate reports a descriptive error for unusable parameters.
func (c VMConfig) Validate() error {
	if c.StateDeltaBytes <= 0 {
		return fmt.Errorf("spacecdn: vm state delta must be positive")
	}
	if c.SyncInterval <= 0 {
		return fmt.Errorf("spacecdn: vm sync interval must be positive")
	}
	if c.ISLBandwidthBps <= 0 {
		return fmt.Errorf("spacecdn: vm ISL bandwidth must be positive")
	}
	return nil
}

// Handover describes one VM migration between serving satellites.
type Handover struct {
	From constellation.SatID
	To   constellation.SatID
	At   time.Duration
	// Hops is the ISL distance between the satellites at handover time.
	Hops int
	// TransferTime is how long the cut-over delta took to reach the next
	// satellite (serialization + propagation).
	TransferTime time.Duration
	// Downtime is the service interruption: the cut-over transfer, since
	// requests cannot be served while authoritative state is in flight.
	Downtime time.Duration
}

// VMServiceResult summarizes a simulated service lifetime.
type VMServiceResult struct {
	Area          geo.Point
	Duration      time.Duration
	Handovers     []Handover
	TotalDowntime time.Duration
	MaxDowntime   time.Duration
	// SyncBytes is the total replication traffic (proactive + cut-over).
	SyncBytes int64
	// Availability is 1 - downtime/duration.
	Availability float64
}

// SimulateVMService runs a stateful service for the coverage area over
// [start, start+dur), handing the VM across the successive serving
// satellites. It returns per-handover downtimes and aggregate availability.
func (s *System) SimulateVMService(area geo.Point, start, dur time.Duration, cfg VMConfig) (VMServiceResult, error) {
	if err := cfg.Validate(); err != nil {
		return VMServiceResult{}, err
	}
	if dur <= 0 {
		return VMServiceResult{}, fmt.Errorf("spacecdn: vm service needs positive duration")
	}
	wins := s.overheadWindows(area, start, start+dur, 15*time.Second)
	if len(wins) == 0 {
		return VMServiceResult{}, fmt.Errorf("spacecdn: no coverage for area %v", area)
	}
	res := VMServiceResult{Area: area, Duration: dur}

	// Handover times are monotone (windows come out in serving order), so
	// one cursor walks the whole timeline.
	cur := s.sweepCursor(start, 0)
	defer cur.Close()
	for i := 1; i < len(wins); i++ {
		prev, next := wins[i-1], wins[i]
		if prev.Sat == next.Sat {
			continue
		}
		snap := cur.AdvanceTo(next.Start)
		pathDelay, hops, reachable := s.islOneWay(snap.Masked(0, nil, nil), prev.Sat, next.Sat)
		if !reachable {
			return VMServiceResult{}, fmt.Errorf("spacecdn: no ISL route for handover %d->%d", prev.Sat, next.Sat)
		}

		// State accumulated during the previous window.
		served := prev.End - prev.Start
		intervals := int64(served/cfg.SyncInterval) + 1
		totalState := intervals * cfg.StateDeltaBytes

		var cutoverBytes int64
		if cfg.Proactive {
			// Everything but the final interval's delta was streamed while
			// still serving; only the last delta migrates at cut-over.
			cutoverBytes = cfg.StateDeltaBytes
			res.SyncBytes += totalState
		} else {
			cutoverBytes = totalState
			res.SyncBytes += totalState
		}
		tx := time.Duration(float64(cutoverBytes) * 8 / cfg.ISLBandwidthBps * float64(time.Second))
		transfer := tx + pathDelay
		h := Handover{
			From:         prev.Sat,
			To:           next.Sat,
			At:           next.Start,
			Hops:         hops,
			TransferTime: transfer,
			Downtime:     transfer,
		}
		res.Handovers = append(res.Handovers, h)
		res.TotalDowntime += h.Downtime
		if h.Downtime > res.MaxDowntime {
			res.MaxDowntime = h.Downtime
		}
	}
	res.Availability = 1 - float64(res.TotalDowntime)/float64(dur)
	if res.Availability < 0 {
		res.Availability = 0
	}
	return res, nil
}

// VMPlacementLeadTime returns how far in advance the next serving satellite
// is known for an area — the planning horizon available for pre-copying the
// base image. With deterministic orbits this is bounded only by the
// prediction window used.
func (s *System) VMPlacementLeadTime(area geo.Point, at, horizon time.Duration) (time.Duration, error) {
	wins := s.overheadWindows(area, at, at+horizon, 15*time.Second)
	if len(wins) < 2 {
		return 0, fmt.Errorf("spacecdn: cannot predict next serving satellite")
	}
	return wins[1].Start - at, nil
}

// ISLMigrationDelay estimates the one-way delta-sync delay between two
// satellites at a time: serialization of deltaBytes plus path propagation.
func (s *System) ISLMigrationDelay(a, b constellation.SatID, at time.Duration, deltaBytes int64, bwBps float64) (time.Duration, error) {
	if bwBps <= 0 {
		return 0, fmt.Errorf("spacecdn: non-positive bandwidth")
	}
	snap := s.consts.Snapshot(at)
	pathDelay, _, ok := s.islOneWay(snap.Masked(0, nil, nil), a, b)
	if !ok {
		return 0, fmt.Errorf("spacecdn: no ISL route between %d and %d at %v", a, b, at)
	}
	tx := time.Duration(float64(deltaBytes) * 8 / bwBps * float64(time.Second))
	return tx + pathDelay, nil
}

// Quick sanity helper used by examples and tests: the propagation floor of
// a one-hop ISL migration.
func oneHopFloor() time.Duration {
	// Shortest cross-plane links are a few hundred km.
	return orbit.PropagationDelay(300)
}
