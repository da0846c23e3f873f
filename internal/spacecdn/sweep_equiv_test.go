package spacecdn

import (
	"reflect"
	"testing"
	"time"

	"spacecdn/internal/geo"
)

// scanSystem returns a system identical to newSystem's except that every
// stepped simulation runs on fresh per-step snapshots instead of the sweep
// engine. Diffing outputs between the two proves the sweep rewiring changed
// nothing observable.
func scanSystem(t *testing.T) *System {
	t.Helper()
	s := newSystem(t, DefaultConfig())
	s.scanSweeps = true
	return s
}

func TestStripingScheduleSweepMatchesScan(t *testing.T) {
	sweep := newSystem(t, DefaultConfig())
	scan := scanSystem(t)
	client := geo.NewPoint(-34.60, -58.38) // Buenos Aires
	v := testVideo(t, 30*time.Minute)
	got, err := sweep.PlanStripes(client, v, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.PlanStripes(client, v, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("striping schedules diverge:\nsweep: %+v\nscan:  %+v", got, want)
	}
}

func TestVMServiceTimelineSweepMatchesScan(t *testing.T) {
	sweep := newSystem(t, DefaultConfig())
	scan := scanSystem(t)
	area := geo.NewPoint(40.4, -3.7) // Madrid
	got, err := sweep.SimulateVMService(area, time.Minute, 40*time.Minute, DefaultVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.SimulateVMService(area, time.Minute, 40*time.Minute, DefaultVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vm timelines diverge:\nsweep: %+v\nscan:  %+v", got, want)
	}
	if len(got.Handovers) == 0 {
		t.Fatal("40-minute service saw no handovers; the comparison is vacuous")
	}
}

func TestWormholePlanSweepMatchesScan(t *testing.T) {
	sweep := newSystem(t, DefaultConfig())
	scan := scanSystem(t)
	src := geo.NewPoint(40.7, -74.0) // New York
	dst := geo.NewPoint(51.5, -0.1)  // London
	o := testObject("bulk")
	got, err := sweep.PlanWormhole(src, dst, o, 0, 90*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.PlanWormhole(src, dst, o, 0, 90*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("wormhole plans diverge:\nsweep: %+v\nscan:  %+v", got, want)
	}
}
