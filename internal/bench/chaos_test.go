package bench

import "testing"

// TestChaosAblation runs A11 at reduced scale and pins the acceptance
// criteria: with hedged reads over 3 replicas, query success stays at
// 100% through the partition and slow-node scenarios, and the p99
// latency is at least 2x below the hedging-off arm's, whose
// partition and slow tails show that it met the fault; the serialized
// cost replay is a count while the timed result is measured.
func TestChaosAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 6 real 4-node clusters")
	}
	if raceEnabled {
		t.Skip("wall-clock deadlines under the race detector's slowdown measure the CPU, not the plane")
	}
	o := Options{Theta: 16, Depth: 12, Trials: 1, Queries: 40, Seed: 1}
	lat, rt, err := RunChaosAblation(o, 256)
	if err != nil {
		t.Fatal(err)
	}

	offSucc := seriesByName(t, lat, "hedging off success %")
	onSucc := seriesByName(t, lat, "hedging on success %")
	offP99 := seriesByName(t, lat, "hedging off query p99")
	onP99 := seriesByName(t, lat, "hedging on query p99")
	for sc, name := range []string{"partition", "slow", "flap"} {
		t.Logf("%s: success off=%.1f%% on=%.1f%%, p99 off=%.0fus on=%.0fus",
			name, offSucc.Points[sc].Y, onSucc.Points[sc].Y, offP99.Points[sc].Y, onP99.Points[sc].Y)
	}

	// The hedging-off arm must meet the fault: a read of the faulted node
	// spends its per-holder failover share of the deadline before it
	// moves on. A target that is primary for none of the schedule's
	// leaves would leave the off arm's tail at loopback speed.
	for _, sc := range []int{0, 1} {
		if off := offP99.Points[sc].Y; off < float64((chaosOpDeadline / 3).Microseconds()) {
			t.Errorf("scenario %d: hedging off p99 %vus, below the failover share %v: the fault was never met", sc, off, chaosOpDeadline/3)
		}
	}

	// The headline claim: partition and slow scenarios lose nothing with
	// hedging on (flap can clip a query mid-transition, so it gets the
	// softer bound), and the tail collapses by at least 2x.
	for _, sc := range []int{0, 1} {
		if y := onSucc.Points[sc].Y; y != 100 {
			t.Errorf("hedging on, scenario %d: success %v%%, want 100%%", sc, y)
		}
		if off, on := offP99.Points[sc].Y, onP99.Points[sc].Y; on <= 0 || off < 2*on {
			t.Errorf("scenario %d: p99 off %vus vs on %vus, want >= 2x reduction", sc, off, on)
		}
	}
	if y := onSucc.Points[2].Y; y < 99 {
		t.Errorf("hedging on, flap: success %v%%, want >= 99%%", y)
	}
	for sc := range onSucc.Points {
		if off, on := offSucc.Points[sc].Y, onSucc.Points[sc].Y; on < off {
			t.Errorf("scenario %d: hedging on success %v%% below hedging off %v%%", sc, on, off)
		}
	}

	// The deterministic replay rows are pinned byte for byte in
	// results/counted-costs.csv; the wall-clock result stays out of it.
	if rt.Measured {
		t.Error("the round-trips replay is marked measured, want a count")
	}
	if !lat.Measured {
		t.Error("the timed chaos result is not marked measured")
	}
	for _, s := range rt.Series {
		if len(s.Points) != len(chaosScenarios) {
			t.Fatalf("replay series %q has %d points, want %d", s.Name, len(s.Points), len(chaosScenarios))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("replay series %q: nonpositive round trips %v at x=%v", s.Name, p.Y, p.X)
			}
		}
	}
}
