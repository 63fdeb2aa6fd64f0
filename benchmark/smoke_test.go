package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// buildServer compiles cmd/ntpserver for the serve smoke runs.
func buildServer(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs ntpserver")
	}
	bin := filepath.Join(t.TempDir(), "ntpserver")
	out, err := exec.Command("go", "build", "-o", bin, "mntp/cmd/ntpserver").CombinedOutput()
	if err != nil {
		t.Fatalf("building ntpserver: %v\n%s", err, out)
	}
	return bin
}

// checkOutcome fails the test unless the run was correct and reported
// every metric of its result line.
func checkOutcome(t *testing.T, o *outcome, names []string) {
	t.Helper()
	if !o.correct {
		t.Fatalf("invalid output: %v", o.problems)
	}
	if o.attempted < 1 {
		t.Errorf("attempted = %d", o.attempted)
	}
	for _, n := range names {
		m, ok := o.e2e[n]
		if !ok {
			m, ok = o.detail[n]
		}
		if !ok || !(m.Value == m.Value) {
			t.Errorf("metric %s missing or NaN", n)
		}
	}
}

func TestSmokeServe(t *testing.T) {
	bin := buildServer(t)
	for _, w := range []string{"serve-plain", "serve-nts"} {
		t.Run(w, func(t *testing.T) {
			o, err := runWorkload(w, 3, 1.5, false, bin)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, o, endToEnd)
			if o.failed > o.attempted/20 {
				t.Errorf("%d of %d light-phase requests failed", o.failed, o.attempted)
			}
		})
	}
}

func TestSmokeServeNTSTraced(t *testing.T) {
	bin := buildServer(t)
	o, err := runWorkload("serve-nts", 4, 1.5, true, bin)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, o, perLayer)
	for _, n := range []string{"span.nts.protect_request.p50_ns", "span.driver.send.self_ns", "ledger.socket_residual_us", "ntske.handshake_ms"} {
		if _, ok := o.detail[n]; !ok {
			t.Errorf("traced serve-nts run lacks %s", n)
		}
	}
	if err := writeTrace(t.TempDir(), "serve-nts", o); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos sweep")
	}
	run, err := runFleet(1, 0.1, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{correct: true, e2e: metrics{}, detail: metrics{}, provenance: map[string]any{}}
	fleetOutcome(o, run)
	checkOutcome(t, o, endToEnd)
	// The seed state's default-estimator violations are counted, not
	// hidden: three chaos runs at benchmark seed 1.
	if o.attempted != 141 || o.failed != 3 {
		t.Errorf("attempted %d failed %d, want 141 and 3", o.attempted, o.failed)
	}
}
