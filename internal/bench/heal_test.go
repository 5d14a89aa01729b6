package bench

import "testing"

// TestMembershipAblation runs A12 at reduced scale and pins the
// acceptance criteria: after a permanent node kill the self-healing arm
// answers 100% of queries AND restores full replica coverage within the
// bounded scrub rounds, while the static-view arm stays under-replicated
// forever; after an empty rejoin, re-replication refills the returned
// node, the copies it missed while down included (write failover left
// them to the scrub). The serialized cost replay is a count; the
// wall-clock result is measured.
func TestMembershipAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 4 real 4-node membership clusters")
	}
	if raceEnabled {
		t.Skip("wall-clock deadlines under the race detector's slowdown measure the CPU, not the plane")
	}
	o := Options{Theta: 16, Depth: 12, Trials: 1, Queries: 40, Seed: 1}
	lat, rt, err := RunMembershipAblation(o, 256)
	if err != nil {
		t.Fatal(err)
	}

	healQ := seriesByName(t, lat, "self-healing query success %")
	healW := seriesByName(t, lat, "self-healing outage write success %")
	healC := seriesByName(t, lat, "self-healing replica coverage %")
	statC := seriesByName(t, lat, "static view replica coverage %")
	statQ := seriesByName(t, lat, "static view query success %")
	for sc, name := range healScenarios {
		t.Logf("%s: success heal=%.1f%% static=%.1f%%, coverage heal=%.1f%% static=%.1f%%",
			name, healQ.Points[sc].Y, statQ.Points[sc].Y, healC.Points[sc].Y, statC.Points[sc].Y)
	}

	for sc := range healScenarios {
		// The headline claim: the self-healing arm loses nothing — every
		// outage write lands (write failover), every post-recovery query
		// answers, and the replica count is fully restored.
		if y := healW.Points[sc].Y; y != 100 {
			t.Errorf("self-healing, scenario %d: outage write success %v%%, want 100%%", sc, y)
		}
		if y := healQ.Points[sc].Y; y != 100 {
			t.Errorf("self-healing, scenario %d: query success %v%%, want 100%%", sc, y)
		}
		if y := healC.Points[sc].Y; y != 100 {
			t.Errorf("self-healing, scenario %d: replica coverage %v%%, want 100%% within %d scrub rounds",
				sc, y, healMaxScrubRounds)
		}
		// The static arm never repairs: it must stay measurably
		// under-replicated (one further failure from data loss).
		if y := statC.Points[sc].Y; y >= 95 {
			t.Errorf("static view, scenario %d: replica coverage %v%%, expected degraded (< 95%%)", sc, y)
		}
	}

	// Deterministic replay rows are pinned, wall-clock rows are not.
	if rt.Measured {
		t.Error("the round-trips replay is marked measured, want a count")
	}
	if !lat.Measured {
		t.Error("the timed membership result is not marked measured")
	}
	for _, s := range rt.Series {
		if len(s.Points) != len(healScenarios) {
			t.Fatalf("replay series %q has %d points, want %d", s.Name, len(s.Points), len(healScenarios))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("replay series %q: nonpositive round trips %v at x=%v", s.Name, p.Y, p.X)
			}
		}
	}
}

// TestMembershipCostReplayDeterministic pins A12b byte-for-byte: two
// runs with the same options must produce identical rows (the pinned
// results/counted-costs.csv depends on it).
func TestMembershipCostReplayDeterministic(t *testing.T) {
	o := Options{Theta: 16, Depth: 12, Trials: 1, Queries: 30, Seed: 7}
	for _, cache := range []bool{false, true} {
		for sc := range healScenarios {
			a, err := healCostCell(o, 128, sc, cache)
			if err != nil {
				t.Fatal(err)
			}
			b, err := healCostCell(o, 128, sc, cache)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("scenario %d cache=%t: round trips differ across runs: %g vs %g", sc, cache, a, b)
			}
			if a <= 0 {
				t.Errorf("scenario %d cache=%t: nonpositive round trips %g", sc, cache, a)
			}
		}
	}
}
