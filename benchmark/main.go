// Command benchmark is the repository's benchmark: the serve-plain and
// serve-nts workloads drive the shipped cmd/ntpserver binary over
// loopback with an open-loop load, and fleet-sim runs the chaos sweep
// and the million-client population in virtual time. See README.md.
//
// Usage (from the repository root, after building with run.sh):
//
//	benchmark --workload serve-plain|serve-nts|fleet-sim|all
//	          --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics untraced, the
// per-layer metrics traced). Earlier lines, prefixed with '#', carry
// the run's provenance and every other metric. Invalid output exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mntp/internal/chaos"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd are the metrics every workload reports untraced, defined
// per workload in README.md.
var endToEnd = []string{"setup_s", "cpu_us_per_op", "goodput_per_cpu_s", "mem_mb"}

// perLayer are the per-layer metrics every workload reports traced:
// the replay ledger, identical on every workload, plus the tracing
// cost. Workload-specific layer metrics go to the detail line.
var perLayer = []string{
	"ntppkt.decode_ns", "ntppkt.decode_allocs", "ntppkt.encode_ns", "ntppkt.encode_allocs",
	"ntppkt.decode_jar1_ns", "ntppkt.decode_jar1_allocs", "ntppkt.encode_jar1_ns", "ntppkt.encode_jar1_allocs",
	"ntppkt.decode_jar8_ns", "ntppkt.decode_jar8_allocs", "ntppkt.encode_jar8_ns", "ntppkt.encode_jar8_allocs",
	"nts.verify_request_ns", "nts.verify_request_allocs", "nts.verify_request_bytes", "nts.verify_request_jar8_ns",
	"nts.protect_response_jar1_ns", "nts.protect_response_jar1_allocs", "nts.protect_response_jar1_bytes",
	"nts.protect_response_jar8_ns", "nts.protect_response_jar8_allocs", "nts.protect_response_jar8_bytes",
	"nts.cookie_open_ns", "nts.cookie_open_allocs", "nts.cookie_open_bytes",
	"nts.cookie_seal_ns", "nts.cookie_seal_allocs", "nts.cookie_seal_bytes",
	"nts.protect_request_ns", "nts.protect_request_allocs", "nts.verify_reply_ns", "nts.verify_reply_allocs",
	"nts.verify_reply_jar8_ns",
	"ledger.server_plain_ns", "ledger.server_nts_mix_ns", "ledger.server_handle_nts_mix_ns",
	"ledger.client_plain_ns", "ledger.client_nts_mix_ns",
	"core.filter_offer_ns", "core.accept_ratio", "trend.fit_ns",
	"trace.span_ns",
}

// unitOf names the unit of a ledger metric from its suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_allocs"):
		return "allocs/op"
	case strings.HasSuffix(name, "_bytes"):
		return "B/op"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}

// outcome is one workload run's result.
type outcome struct {
	correct           bool
	attempted, failed int
	problems          []string
	e2e, detail       metrics
	provenance        map[string]any
	spans             []span
}

var workloads = []string{"serve-plain", "serve-nts", "fleet-sim"}

func main() {
	workload := flag.String("workload", "", "serve-plain, serve-nts, fleet-sim, or all")
	seed := flag.Int64("seed", 1, "workload seed (1 reproduces the ROADMAP chaos sweep)")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	serverBin := flag.String("server-bin", filepath.Join(".bench_build", "ntpserver"), "cmd/ntpserver binary")
	outDir := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for spans and ledgers of traced runs")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *serverBin, *outDir))
	}
	o, err := runWorkload(*workload, *seed, *seconds, *trace == 1, *serverBin)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if *trace == 1 {
		if err := writeTrace(*outDir, *workload, o); err != nil {
			fatalf("%v", err)
		}
	}
	os.Exit(report(o, *trace == 1))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// report prints the provenance and detail lines, then the result line,
// and returns the exit code.
func report(o *outcome, traced bool) int {
	emit("provenance", o.provenance)
	emit("detail", o.detail)
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "benchmark: invalid output:", p)
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	res := metrics{}
	for _, n := range names {
		m, ok := o.e2e[n]
		if !ok {
			m, ok = o.detail[n]
		}
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s was not measured\n", n)
			o.correct = false
			continue
		}
		res[n] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{o.correct, o.attempted, o.failed, res})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !o.correct {
		return 1
	}
	return 0
}

// emit prints one '#'-prefixed JSON line with sorted keys.
func emit(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding %s: %v", tag, err)
	}
	fmt.Printf("# %s %s\n", tag, b)
}

// runAll runs every workload untraced and traced, printing each
// workload's metrics by name and unit and the tracing overhead: the
// traced run's end-to-end metrics against the untraced run's.
func runAll(seed int64, seconds float64, serverBin, outDir string) int {
	code := 0
	for _, w := range workloads {
		plain, err := runWorkload(w, seed, seconds, false, serverBin)
		if err != nil {
			fatalf("%s: %v", w, err)
		}
		traced, err := runWorkload(w, seed, seconds, true, serverBin)
		if err != nil {
			fatalf("%s traced: %v", w, err)
		}
		if err := writeTrace(outDir, w, traced); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("== %s (seed %d, %gs): correct=%v attempted=%d failed=%d\n", w, seed, seconds, plain.correct && traced.correct, plain.attempted, plain.failed)
		printMetrics("end to end", plain.e2e, nil)
		printMetrics("detail", plain.detail, nil)
		printMetrics("per layer (traced)", traced.detail, func(n string) bool { _, ok := plain.detail[n]; return !ok })
		fmt.Println("  tracing overhead (traced vs untraced):")
		for _, n := range endToEnd {
			a, b := plain.e2e[n].Value, traced.e2e[n].Value
			fmt.Printf("    %-28s %+.1f%%\n", n, 100*(b-a)/a)
		}
		for _, p := range append(plain.problems, traced.problems...) {
			fmt.Println("  INVALID:", p)
		}
		if !plain.correct || !traced.correct {
			code = 1
		}
	}
	return code
}

func printMetrics(title string, m metrics, keep func(string) bool) {
	var names []string
	for n := range m {
		if keep == nil || keep(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("  %s:\n", title)
	for _, n := range names {
		fmt.Printf("    %-44s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// writeTrace writes a traced run's spans and metrics.
func writeTrace(dir, workload string, o *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, workload+".spans.jsonl"), o.spans); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"provenance": o.provenance, "end_to_end": o.e2e, "detail": o.detail}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".ledger.json"), b, 0o644)
}

// runWorkload runs one workload and assembles its outcome.
func runWorkload(name string, seed int64, seconds float64, traced bool, serverBin string) (*outcome, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	o := &outcome{correct: true, e2e: metrics{}, detail: metrics{}}
	o.provenance = provenance(name, seed, seconds, traced)
	steal0 := stealTicks()
	start := time.Now()
	var chaosReports []*chaos.Report
	switch name {
	case "serve-plain", "serve-nts":
		cfg := serveWorkloads[name]
		if _, err := os.Stat(serverBin); err != nil {
			return nil, fmt.Errorf("server binary: %w (build it with run.sh)", err)
		}
		run, err := runServe(serverBin, cfg, seed, seconds, tr)
		if err != nil {
			return nil, err
		}
		serveOutcome(o, run, cfg, traced)
	case "fleet-sim":
		run, err := runFleet(seed, seconds, popClients, tr)
		if err != nil {
			return nil, err
		}
		fleetOutcome(o, run)
		for _, c := range run.sweeps[0] {
			chaosReports = append(chaosReports, c.report)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
	}
	o.provenance["wall_s"] = time.Since(start).Seconds()
	o.provenance["steal_ticks"] = stealTicks() - steal0

	if traced {
		buf := tr.buf(4096)
		led, err := serverLedger(buf)
		if err != nil {
			return nil, fmt.Errorf("server ledger: %w", err)
		}
		if chaosReports == nil {
			// Serve workloads replay one run of each scenario.
			for _, sc := range chaos.Scenarios() {
				sc.Seed = chaosSeed(sc.Seed, seed, 1)
				chaosReports = append(chaosReports, chaos.Run(sc))
			}
		}
		for k, v := range clientLedger(buf, chaosReports) {
			led[k] = v
		}
		if run, ok := o.detail["chaos.run_mean_ms"]; ok {
			// The rest of a chaos run is the substrate the client runs
			// on: netsim, wireless, sources and discipline.
			replayMS := (led["core.filter_offer_ns"] + led["trend.fit_ns"]) * led["core.samples"] / float64(len(chaosReports)) / 1e6
			o.detail.set("chaos.substrate_ms", run.Value-replayMS, "ms")
		}
		led["trace.span_ns"] = spanCost(100000)
		for k, v := range led {
			o.detail.set(k, v, unitOf(k))
		}
		o.spans = tr.all()
		o.detail.set("trace.spans", float64(len(o.spans)), "count")
		for n, st := range summarize(o.spans) {
			o.detail.set("span."+n+".self_ns", float64(st.SelfNS), "ns")
			o.detail.set("span."+n+".p50_ns", st.P50NS, "ns")
		}
		if rtt, ok := o.detail["rtt_p50_us"]; ok {
			client, server := led["ledger.client_plain_ns"], led["ledger.server_plain_ns"]
			if name == "serve-nts" {
				client, server = led["ledger.client_nts_mix_ns"], led["ledger.server_nts_mix_ns"]
			}
			o.detail.set("ledger.socket_residual_us", rtt.Value-(client+server)/1e3, "us")
		}
	}
	return o, nil
}

// provenance records what a noisy run needs to be recognised.
func provenance(workload string, seed int64, seconds float64, traced bool) map[string]any {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		kernel = []byte("unknown")
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel": strings.TrimSpace(string(kernel)), "commit": commit,
		"started": time.Now().UTC().Format(time.RFC3339),
	}
}

// serveOutcome turns a serve run into metrics, checks and counts.
func serveOutcome(o *outcome, r *serveRun, cfg serveConfig, traced bool) {
	l, v := r.light, r.ovl
	o.problems = append(append(o.problems, l.invalid...), v.invalid...)
	if n := l.nInvalid + v.nInvalid; n > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d replies failed validation", n))
	}
	o.problems = append(o.problems, r.reconcile(cfg.nts)...)
	if l.ok == 0 || v.ok == 0 {
		o.problems = append(o.problems, "a phase got no valid reply")
	}
	o.correct = len(o.problems) == 0
	o.attempted, o.failed = l.sent, l.sent-l.ok

	absTheta := make([]float64, len(l.theta))
	for i, t := range l.theta {
		absTheta[i] = math.Abs(t)
	}
	absOvl := make([]float64, len(v.theta))
	for i, t := range v.theta {
		absOvl[i] = math.Abs(t)
	}
	setup := median(r.setup)
	rtt := median(l.rttDue)
	offErr := median(absTheta)
	cpu := float64(r.lightCPU.Nanoseconds()) / 1e3 / float64(max(l.ok, 1))
	goodput := float64(v.ok) / v.spec.dur.Seconds()
	rss := float64(r.peakRSS) / 1e6
	e := o.e2e
	e.set("setup_s", setup, "s")
	e.set("cpu_us_per_op", cpu, "us")
	e.set("goodput_per_cpu_s", float64(v.ok)/r.ovlCPU.Seconds(), "1/s")
	e.set("mem_mb", rss, "MB")

	d := o.detail
	d.set("setup_s", setup, "s")
	d.set("failed_frac", float64(o.failed)/float64(max(o.attempted, 1)), "ratio")
	d.set("rtt_p50_us", rtt, "us")
	d.set("rtt_p10_us", quantile(l.rttDue, 0.10), "us")
	d.set("offset_err_p50_us", offErr, "us")
	d.set("server_cpu_us_per_req", cpu, "us")
	d.set("goodput_rps", goodput, "req/s")
	d.set("server_rss_mb", rss, "MB")
	d.set("light.rate_rps", cfg.lightRate, "req/s")
	d.set("overload.rate_rps", v.spec.rate, "req/s")
	d.set("overload.loss_frac", float64(v.sent-v.ok)/float64(max(v.sent, 1)), "ratio")

	d.set("ntpnet.ctx_switches_per_req", float64(r.lightCtx)/float64(max(l.ok, 1)), "count")
	if traced { // GODEBUG=gctrace=1 is set only on traced runs
		d.set("ntpnet.gc_cycles_per_1k_req", 1000*float64(r.lightGC)/float64(max(l.ok, 1)), "count")
	}
	d.set("ntpnet.overload_cpu_us_per_req", float64(r.ovlCPU.Nanoseconds())/1e3/float64(max(v.ok, 1)), "us")
	d.set("ntpnet.theta_median_us", median(l.theta), "us")
	d.set("ntpnet.offset_err_p50_us_overload", median(absOvl), "us")
	for k, n := range r.final {
		d.set("ntpnet."+strings.ReplaceAll(k, "-", "_"), float64(n), "count")
	}
	if cfg.nts {
		d.set("ntske.handshakes", float64(len(r.handshakes)), "count")
		d.set("ntske.handshake_ms", median(r.handshakes), "ms")
	}
	d.set("driver.late_p50_us", quantile(l.late, 0.5), "us")
	d.set("driver.late_p99_us", quantile(l.late, 0.99), "us")
	d.set("driver.wire_rtt_p50_us", median(l.rttWire), "us")
	d.set("driver.rtt_p99_us", quantile(l.rttDue, 0.99), "us")
	d.set("driver.rtt_p999_us", quantile(l.rttDue, 0.999), "us")
	d.set("driver.cpu_share", l.driverCPU.Seconds()/(l.wall.Seconds()*float64(runtime.NumCPU())), "ratio")
	d.set("driver.overload_late_p50_us", quantile(v.late, 0.5), "us")
	d.set("driver.overload_cpu_share", v.driverCPU.Seconds()/(v.wall.Seconds()*float64(runtime.NumCPU())), "ratio")
	d.set("driver.stale_replies", float64(l.stale+v.stale), "count")
	d.set("light.lost", float64(l.lost), "count")
	d.set("light.kod", float64(l.kod), "count")

	o.provenance["light_steal_ticks"] = r.lightSteal
	o.provenance["driver_cpu_share"] = d["driver.cpu_share"].Value
	o.provenance["driver_late_p50_us"] = d["driver.late_p50_us"].Value
	o.provenance["server_pid"] = r.pid
}

// fleetOutcome turns a fleet-sim run into metrics, checks and counts.
func fleetOutcome(o *outcome, r *fleetRun) {
	if err := r.deterministic(); err != nil {
		o.problems = append(o.problems, err.Error())
	}
	first := r.sweeps[0]
	var finals, runs []float64
	viol, requests := 0, 0
	var allCPU, virtual time.Duration
	perScenario := map[string][]float64{}
	for _, sw := range r.sweeps {
		for _, c := range sw {
			us := float64(c.cpu.Nanoseconds()) / 1e3
			perScenario[c.scenario] = append(perScenario[c.scenario], us/1e3)
			runs = append(runs, us)
			requests += c.requests
			virtual += c.virtual
			allCPU += c.cpu
		}
	}
	var sweepCPU time.Duration
	for _, c := range first {
		finals = append(finals, float64(c.final.Nanoseconds())/1e6)
		sweepCPU += c.cpu
		if len(c.violations) > 0 {
			viol++
			o.detail.set(fmt.Sprintf("chaos.violation.%s.%d", c.scenario, c.seed), float64(len(c.violations)), "count")
		}
	}
	popFailed := 0
	if len(r.popViolation) > 0 {
		popFailed = 1
	}
	o.correct = len(o.problems) == 0
	o.attempted, o.failed = len(first)+1, viol+popFailed

	setup := median(r.setup)
	chaosRunUS := quantile(runs, 0.10)
	chaosExPerS := float64(requests) / allCPU.Seconds()
	cpuPerEx := float64(r.popCPU.Nanoseconds()) / 1e3 / float64(max(r.popTotals.Sent, 1))
	heapMB := r.heapPerCli * float64(r.n) / 1e6
	e := o.e2e
	e.set("setup_s", setup, "s")
	e.set("cpu_us_per_op", cpuPerEx, "us")
	e.set("goodput_per_cpu_s", chaosExPerS, "1/s")
	e.set("mem_mb", heapMB, "MB")

	d := o.detail
	d.set("chaos.run_mean_ms", float64(sweepCPU.Nanoseconds())/1e6/float64(len(first)), "ms")
	d.set("setup_s", setup, "s")
	d.set("failed_frac", float64(o.failed)/float64(o.attempted), "ratio")
	d.set("chaos_offset_p50_ms", quantile(append([]float64(nil), finals...), 0.5), "ms")
	d.set("chaos_offset_p90_ms", quantile(append([]float64(nil), finals...), 0.9), "ms")
	d.set("pop_offset_p50_ms", float64(r.popStats.Median.Nanoseconds())/1e6, "ms")
	d.set("pop_offset_p99_ms", float64(r.popStats.P99.Nanoseconds())/1e6, "ms")
	d.set("chaos_sim_hours_per_s", virtual.Hours()/allCPU.Seconds(), "h/s")
	d.set("pop_exchanges_per_s", float64(r.popTotals.Sent)/r.popRun.Seconds(), "1/s")
	d.set("pop_bytes_per_client", r.heapPerCli, "B")
	d.set("chaos.run_p10_us", chaosRunUS, "us")
	d.set("chaos.runs", float64(len(first)), "count")
	d.set("chaos.violations", float64(viol), "count")
	d.set("chaos.sweeps", float64(len(r.sweeps)), "count")
	for sc, xs := range perScenario {
		d.set("chaos."+sc+".run_ms", median(xs), "ms")
	}
	d.set("population.new_s", setup, "s")
	d.set("population.run_s", r.popRun.Seconds(), "s")
	d.set("population.run_cpu_s", r.popCPU.Seconds(), "s")
	d.set("population.sent", float64(r.popTotals.Sent), "count")
	d.set("population.served", float64(r.popTotals.OK), "count")
	d.set("population.fails", float64(r.popTotals.Fails), "count")
	d.set("population.frac_above_100ms", r.popStats.FracAbove, "ratio")
	d.set("population.rtt_p50_ms", float64(r.popRTTP50.Nanoseconds())/1e6, "ms")
	for _, v := range r.popViolation {
		fmt.Fprintln(os.Stderr, "benchmark: population violation:", v)
	}
	for _, c := range first {
		for _, v := range c.violations {
			fmt.Fprintf(os.Stderr, "benchmark: chaos violation (counted in failed): %s seed %d: %s\n", c.scenario, c.seed, v)
		}
	}
}
