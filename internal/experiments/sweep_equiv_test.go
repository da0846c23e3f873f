package experiments

import (
	"testing"

	"spacecdn/internal/faults"
	"spacecdn/internal/spacecdn"
)

// streamItem is the comparable projection of one batch result: resolution
// plus whether it errored (errors carry non-comparable context strings).
type streamItem struct {
	res    spacecdn.Resolution
	failed bool
}

// TestResilienceSweepMatchesScan proves the resilience pipeline's result
// stream identical whether the snapshot times are walked by the incremental
// sweep cursor or by fresh per-step snapshots — including under an active
// fault plan, where masked views and degraded path trees ride on the sweep's
// composite memo epochs.
func TestResilienceSweepMatchesScan(t *testing.T) {
	run := func(scan bool) ([]streamItem, ResilienceRow) {
		t.Helper()
		s, err := NewSuite(true, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.scanSweeps = scan
		cfg := s.resilienceFaultConfig(0.05)
		plan, err := faults.NewPlan(cfg, s.Env.Constellation, s.popNames())
		if err != nil {
			t.Fatal(err)
		}
		row, stream, _, err := s.resilienceRun(plan)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]streamItem, len(stream))
		for i, r := range stream {
			items[i] = streamItem{res: r.Resolution, failed: r.Err != nil}
		}
		return items, row
	}
	sweep, sweepRow := run(false)
	scan, scanRow := run(true)
	if len(sweep) != len(scan) {
		t.Fatalf("stream lengths diverge: %d vs %d", len(sweep), len(scan))
	}
	for i := range scan {
		if sweep[i] != scan[i] {
			t.Fatalf("result %d diverges:\nsweep: %+v\nscan:  %+v", i, sweep[i], scan[i])
		}
	}
	if sweepRow != scanRow {
		t.Fatalf("aggregate rows diverge:\nsweep: %+v\nscan:  %+v", sweepRow, scanRow)
	}
}
