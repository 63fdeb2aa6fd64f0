package main

import (
	"testing"

	"mntp/internal/chaos"
	"mntp/internal/population"
)

func TestChaosSeedReproducesROADMAPSweep(t *testing.T) {
	for i := 1; i <= chaosSeeds; i++ {
		if got, want := chaosSeed(404, 1, i), int64(404000+i); got != want {
			t.Fatalf("seed 1 run %d = %d, want %d", i, got, want)
		}
	}
	if got := chaosSeed(404, 2, 1); got != 404021 {
		t.Errorf("seed 2 starts at %d, want the next block, 404021", got)
	}
}

// TestChaosSweepDeterministic runs the sweep twice with one seed: the
// accuracy numbers and violations must repeat exactly, and the seed
// state's known default-estimator failures must show.
func TestChaosSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 280 chaos scenarios")
	}
	a, b := chaosSweep(1, nil), chaosSweep(1, nil)
	r := &fleetRun{sweeps: [][]chaosRun{a, b}}
	if err := r.deterministic(); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(chaos.Scenarios())*chaosSeeds {
		t.Fatalf("sweep ran %d scenarios, want %d", len(a), len(chaos.Scenarios())*chaosSeeds)
	}
	failing := map[int64]bool{}
	for _, c := range a {
		if len(c.violations) > 0 {
			failing[c.seed] = true
		}
	}
	for _, s := range []int64{101019, 404009, 404020} {
		if !failing[s] {
			t.Errorf("seed %d no longer violates its scenario: update README.md's known-failure note", s)
		}
	}
	b[3].final++
	if err := r.deterministic(); err == nil {
		t.Error("a changed final offset passed the determinism check")
	}
}

func TestPopulationDeterministic(t *testing.T) {
	run := func() population.OffsetStats {
		e, err := population.New(popConfig(5000, 7))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(popHorizon); err != nil {
			t.Fatal(err)
		}
		return e.Stats(100e6)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different population accuracy: %+v vs %+v", a, b)
	}
	if v := popViolations(a); len(v) != 0 {
		t.Errorf("falseticker assertions failed at 5000 clients: %v", v)
	}
}
