// Command mtlsbench is the repository's benchmark. It drives the real
// mtlsd binary, built from the tree, through one named workload: a
// pre-written backlog the daemon catches up on, an open-loop live
// phase of appends into the daemon's log directory, report requests,
// and a crash/restart. It prints the end-to-end metrics by name and
// unit, checks every drained report against an offline engine, and
// with -trace 1 replays the same rows in process through each layer's
// public functions to give the per-layer metrics.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash mtlsbench/run.sh --workload ingest-burst --seed 1 --seconds 10 --trace 0
//	bash mtlsbench/run.sh all --seed 1 --seconds 10
//	bash mtlsbench/run.sh compare OLD.json NEW.json
//	bash mtlsbench/run.sh spread results/*.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is nonzero
// when an oracle check fails, any operation failed, or the run was
// invalid (the generator fell behind its schedule).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/stream"
)

// sweepBudget is how long the timed report sweeps after each cold
// start last at least: whole sweeps over the 23 reports, at least
// minSweeps, until this much time has passed. The drained live-phase
// daemon gets two budgets of sweeps after its oracle-checked one. A
// sweep's CPU time moves by a fifth with where the daemon's garbage
// collections fall, so a run needs a score of sweeps for a steady
// median.
const (
	sweepBudget = 600 * time.Millisecond
	minSweeps   = 2
)

// maxLateMS is the generator's own p99 lateness beyond which a run is
// invalid: its freshness would measure the generator, not the daemon.
const maxLateMS = 50

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	mtlsd    string
	out      string
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "spread":
			os.Exit(spreadMain(os.Args[2:]))
		case "all":
			os.Exit(allMain(os.Args[2:]))
		}
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "live-phase length in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = print the per-layer metrics of a traced run")
	flag.StringVar(&o.mtlsd, "mtlsd", "", "mtlsd binary under test")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for work files, results and spans")
	flag.Parse()
	if _, err := findWorkload(o.workload); err != nil || o.mtlsd == "" || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintf(os.Stderr, "mtlsbench: need --workload (one of %s), --mtlsd, --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	os.Exit(run(o))
}

// allMain runs every workload in turn, each in its own process with the
// given flags, and fails if any of them did.
func allMain(args []string) int {
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(os.Args[0], append([]string{"--workload", name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "mtlsbench: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// artifact is the full record of one run, written under -out.
type artifact struct {
	Stamp   stamp          `json:"stamp"`
	Result  result         `json:"result"`
	Valid   bool           `json:"valid"`
	Notes   []string       `json:"notes,omitempty"`
	Detail  map[string]any `json:"detail"`
	Reasons []string       `json:"failures,omitempty"`
}

func run(o options) int {
	w, _ := findWorkload(o.workload)
	work, err := filepath.Abs(filepath.Join(o.out, "mtlsbench", fmt.Sprintf("work-%s-%d", w.name, os.Getpid())))
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)

	// Each phase's wall time and the host's CPU steal during it go
	// into the run's record, to tell a slow program from a busy host.
	phases, steal := map[string]float64{}, map[string]float64{}
	t0, c0 := time.Now(), readCPUTicks()
	lap := func(name string) {
		c := readCPUTicks()
		phases[name], steal[name] = time.Since(t0).Seconds(), stealPct(c0, c)
		t0, c0 = time.Now(), c
	}
	ds, err := generate(w, o.seed, o.seconds, work)
	if err != nil {
		return fail(err)
	}
	st := newStamp(w, ds, o)
	s, err := newSUT(o.mtlsd, w, ds, work, o.seed)
	if err != nil {
		return fail(err)
	}
	// Whatever ends the run, no daemon outlives it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		s.stopAll(true)
		os.RemoveAll(work)
		os.Exit(130)
	}()
	defer s.stopAll(true)

	var op ops
	m := map[string]metric{}
	detail := map[string]any{"backlog_rows": ds.backlogRows(), "live_rows": ds.liveRows(),
		"conn_rows": len(ds.conns), "cert_rows": len(ds.certs), "sites": len(ds.sites)}

	lap("generate")
	or, err := newOracle(ds)
	if err != nil {
		return fail(err)
	}
	defer or.close()
	lap("oracle")
	cs, err := coldStarts(s, or, &op)
	if err != nil {
		return fail(err)
	}
	lap("cold_starts")
	detail["setup_cpu_s"], detail["setup_wall_s"] = cs.setupCPU, cs.setups
	detail["catchup_rows_per_cpu_s_unscaled"] = cs.cpuRates
	detail["catchup_rows_per_s"], detail["recovery_s"] = cs.rates, cs.recoveries

	live, err := runLive(s, &op, 120*time.Second)
	if err != nil {
		return fail(err)
	}
	lap("live")
	valid := true
	var notes []string
	// The tail is p90, not the p99 that 1250 batches would allow:
	// consecutive batches share a stall, so the 12 batches above p99
	// are often one episode, while the 125 above p90 span many.
	fresh, err := summarize("freshness", live.freshMS, 0.90)
	if err != nil {
		op.fail("%v", err)
	}
	m["freshness_p50_ms"] = metric{fresh.P50, "ms"}
	m["freshness_p90_ms"] = metric{fresh.Tail, "ms"}
	late, _ := percentile(live.lateMS, 0.99)
	if late > maxLateMS {
		valid = false
		notes = append(notes, fmt.Sprintf("invalid: generator p99 lateness %.1f ms exceeds %d ms", late, maxLateMS))
	}
	detail["freshness"], detail["loadgen_late_p99_ms"], detail["tail_rows"] = fresh, late, live.tailRows
	detail["freshness_deciles_ms"] = deciles(live.freshMS)
	detail["stats_polls"], detail["stats_poll_deciles_ms"] = len(live.pollMS), deciles(live.pollMS)
	detail["freshness_ms"] = live.freshMS

	correct := cs.correct
	if err := or.checkBatch(ds); err != nil {
		op.fail("oracle: %v", err)
		correct = false
	}
	lap("check_batch")
	// The post-drain gate: every report of the live phase's daemon
	// against the oracle, untimed (its first report pays the rebuild),
	// then timed sweeps that must return the same bytes.
	_, _, _, want := sweepReports(s, &op)
	correct = checkSweep(&op, or, want, nil) && correct
	sw := &cs.sweeps
	if _, ok := timedSweeps(s, &op, or, want, 2*sweepBudget, sw, &cs.probe); !ok {
		correct = false
	}
	lap("sweeps")
	// The CPU-bound gates count the daemons' CPU time, not wall time:
	// on a shared 2-vCPU host the wall time of the same code moved by a
	// third with the CPU time the hypervisor gave other guests. CPU time
	// still moved by a fifth with how busy the host was, so it is scaled
	// by the reference probe (probe.go). Unscaled and wall times are
	// recorded.
	f := cs.probe.factor()
	if f <= 0 {
		return fail(fmt.Errorf("reference probe: no CPU time read"))
	}
	m["setup_s"] = metric{median(cs.setupCPU) / f, "s"}
	m["catchup_rows_per_cpu_s"] = metric{median(cs.cpuRates) * f, "rows/s"}
	m["report_sweep_cpu_ms"] = metric{median(sw.cpuMS) / f, "ms"}
	detail["report_sweep_cpu_ms_unscaled"], detail["report_sweep_ms"] = sw.cpuMS, sw.wallMS
	detail["probe_ms"], detail["probe_factor"] = cs.probe.ms, f
	// Per-request percentiles are recorded, not listed: they fall
	// between report types whose costs differ several-fold, and which
	// type sits there moves with the seed.
	if rep, err := summarize("report latency", sw.reqMS, highestTail(len(sw.reqMS))); err == nil {
		detail["report"] = rep
	}
	detail["report_deciles_ms"] = deciles(sw.reqMS)

	var daemonText string
	if o.trace == 1 {
		if daemonText, err = s.scrape(); err != nil {
			op.fail("scrape /metrics: %v", err)
		}
	}

	hwm, err := s.stopAll(false)
	if err != nil {
		op.fail("%v", err)
	}
	rss := append(cs.rssMB, float64(hwm)/(1<<20))
	m["peak_rss_mb"] = metric{median(rss), "MB"}
	detail["peak_rss_mb"] = rss

	out := m
	if o.trace == 1 {
		detail["end_to_end"] = m
		if out, err = traced(o, w, ds, &op, detail, daemonText); err != nil {
			return fail(err)
		}
	}
	lap("stop_traced")
	detail["phase_s"], detail["phase_steal_pct"] = phases, steal
	detail["ops_failed_ratio"] = failedRatio(&op)
	return finish(o, st, &op, out, detail, notes, correct, valid)
}

// startsOut is what the cold-start rounds measured.
type startsOut struct {
	setups     []float64 // s of wall time, every start including the live phase's
	setupCPU   []float64 // s of the daemons' CPU time, every start
	rates      []float64 // rows/s of wall time, one per round
	cpuRates   []float64 // rows per second of the daemons' CPU time, one per round
	recoveries []float64 // s, one per round after the first
	rssMB      []float64 // MB, each round's summed daemon VmHWM
	sweeps     sweeps    // the timed report sweeps after each catch-up
	probe      refProbe  // run after each catch-up and each timed sweep
	correct    bool
}

// coldStarts runs the cold-start rounds that precede the live phase and
// leaves the live phase's daemons running over its backlog. The first
// round's reports are checked against the oracle; every later round's
// must return the same bytes.
func coldStarts(s *sut, or *oracle, op *ops) (*startsOut, error) {
	out := &startsOut{correct: true}
	allConns, allCerts := s.allRows()
	rows := float64(len(s.ds.conns) + len(s.ds.certs)*len(s.ds.sites))
	var want map[string][]byte
	for r := 0; r < s.w.rounds; r++ {
		crash := r > 0
		var killed time.Time
		if crash {
			// No checkpoint: the restarted deployment is a cold start
			// over the same logs, which is what recovery means here.
			killed = time.Now()
			hwm, err := s.stopAll(true)
			if err != nil {
				return nil, err
			}
			out.rssMB = append(out.rssMB, float64(hwm)/(1<<20))
		} else {
			if _, err := s.stopAll(false); err != nil {
				op.fail("%v", err)
			}
			if err := s.resetState(true); err != nil {
				return nil, err
			}
		}
		setup, setupCPU, err := s.startAll()
		if err != nil {
			return nil, err
		}
		// The tailer starts just before the HTTP server, so some rows
		// may already be applied when the daemon first answers; the
		// rate counts only rows applied after the first stats answer.
		p0, err := s.fetchProgress()
		if err != nil {
			return nil, err
		}
		c0 := s.cpuTime()
		at, err := s.waitApplied(allConns, allCerts, 120*time.Second)
		if err != nil {
			return nil, fmt.Errorf("catch-up: %w", err)
		}
		cpu := s.cpuTime() - c0
		if cpu <= 0 {
			return nil, fmt.Errorf("catch-up: no daemon CPU time in /proc/<pid>/task/*/schedstat")
		}
		op.ok()
		out.setups = append(out.setups, setup.Seconds())
		out.setupCPU = append(out.setupCPU, setupCPU.Seconds())
		out.rates = append(out.rates, (rows-float64(p0.rows()))/at.Sub(p0.at).Seconds())
		out.cpuRates = append(out.cpuRates, (rows-float64(p0.rows()))/cpu.Seconds())
		if crash {
			out.recoveries = append(out.recoveries, at.Sub(killed).Seconds())
		}
		out.probe.run()

		// The first report after a catch-up pays the rebuild (on a
		// fleet, the merge); it is a cold start's cost, not a sweep's.
		name := stream.ReportNames()[0]
		if _, body, err := getReport(s.front().base, name); err != nil {
			op.fail("report %s: %v", name, err)
		} else if want != nil && string(body) != string(want[name]) {
			op.fail("report %s changed between rounds", name)
			out.correct = false
		} else {
			op.ok()
		}
		checked, ok := timedSweeps(s, op, or, want, sweepBudget, &out.sweeps, &out.probe)
		out.correct = out.correct && ok
		want = checked
	}
	// The live phase's own cold start, over its backlog.
	hwm, err := s.stopAll(false)
	if err != nil {
		op.fail("%v", err)
	}
	out.rssMB = append(out.rssMB, float64(hwm)/(1<<20))
	if err := s.resetState(false); err != nil {
		return nil, err
	}
	setup, setupCPU, err := s.startAll()
	if err != nil {
		return nil, err
	}
	out.setups = append(out.setups, setup.Seconds())
	out.setupCPU = append(out.setupCPU, setupCPU.Seconds())
	conns := make([]uint64, len(s.ds.sites))
	for i, c := range s.ds.backlogConns {
		conns[i] = uint64(c)
	}
	if _, err := s.waitApplied(conns, uint64(s.ds.backlogCerts), 120*time.Second); err != nil {
		return nil, fmt.Errorf("backlog: %w", err)
	}
	op.ok()
	return out, nil
}

// sweeps accumulates timed report sweeps.
type sweeps struct {
	wallMS []float64 // each sweep's summed request latency
	cpuMS  []float64 // the front daemon's CPU time during each sweep
	reqMS  []float64 // every request's latency
}

// timedSweeps runs whole timed sweeps over the reports, at least
// minSweeps, until budget has passed, and adds them to acc, running the
// reference probe after each. Every sweep must
// return want's bytes; with want nil, the first sweep is checked
// against the oracle and the rest must return its bytes. It returns
// the bytes the sweeps were held to, and whether every report matched.
func timedSweeps(s *sut, op *ops, or *oracle, want map[string][]byte, budget time.Duration, acc *sweeps, pr *refProbe) (map[string][]byte, bool) {
	correct := true
	for t, n := time.Now(), 0; n < minSweeps || time.Since(t) < budget; n++ {
		wall, cpu, req, bodies := sweepReports(s, op)
		if !checkSweep(op, or, bodies, want) {
			correct = false
		}
		if want == nil {
			want = bodies
		}
		acc.wallMS, acc.cpuMS = append(acc.wallMS, wall), append(acc.cpuMS, cpu)
		pr.run()
		acc.reqMS = append(acc.reqMS, req...)
	}
	return want, correct
}

// sweepReports requests every report once from the front daemon. It
// returns the summed latency, the front daemon's CPU time over the
// sweep, each request's latency and the bodies.
func sweepReports(s *sut, op *ops) (wallMS, cpuMS float64, reqMS []float64, bodies map[string][]byte) {
	bodies = map[string][]byte{}
	c0 := s.front().cpuTime()
	for _, name := range stream.ReportNames() {
		d, body, err := getReport(s.front().base, name)
		if err != nil {
			op.fail("report %s: %v", name, err)
			continue
		}
		wallMS += d
		reqMS = append(reqMS, d)
		bodies[name] = body
	}
	cpuMS = float64(s.front().cpuTime()-c0) / 1e6
	if cpuMS <= 0 {
		op.fail("report sweep: no CPU time read for %s", s.front().name)
	}
	return wallMS, cpuMS, reqMS, bodies
}

// checkSweep counts each report of a sweep as one operation: it must
// equal want's bytes when want is set, else the oracle's report. It
// returns whether every report did.
func checkSweep(op *ops, or *oracle, bodies, want map[string][]byte) bool {
	correct := true
	for _, name := range stream.ReportNames() {
		body, ok := bodies[name]
		switch {
		case !ok:
			correct = false // the failed request is already counted
			continue
		case want != nil && string(want[name]) != string(body):
			op.fail("report %s changed between sweeps", name)
			correct = false
			continue
		case want == nil:
			if err := or.check(name, body); err != nil {
				op.fail("oracle: %v", err)
				correct = false
				continue
			}
		}
		op.ok()
	}
	return correct
}

// deciles lists the 10th..90th percentiles of xs, for the artifact.
func deciles(xs []float64) []float64 {
	var out []float64
	for q := 1; q <= 9; q++ {
		v, _ := percentile(xs, float64(q)/10)
		out = append(out, v)
	}
	return out
}

func failedRatio(op *ops) float64 {
	if op.attempted == 0 {
		return 1
	}
	return float64(op.failed) / float64(op.attempted)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mtlsbench:", err)
	return 1
}

// finish prints the human-readable table and the result line, writes
// the artifact, and returns the exit status.
func finish(o options, st stamp, op *ops, m map[string]metric, detail map[string]any, notes []string, correct, valid bool) int {
	res := result{Correct: correct, Attempted: op.attempted, Failed: op.failed, Metrics: m}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("mtlsbench %s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d %s\n",
		o.workload, o.seed, o.seconds, o.trace, st.NProc, st.GOMAXPROCS, st.Go)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Printf("  %-34s %14.6g ratio (%d of %d operations)\n", "ops_failed_ratio", failedRatio(op), op.failed, op.attempted)
	if rep, ok := detail["report"].(timing); ok {
		fmt.Printf("  %-34s %14.6g ms (median of %d requests)\n", "report_p50_ms", rep.P50, rep.N)
	}
	// The figures behind the gates that count scaled CPU time.
	for _, n := range []struct{ name, unit, what string }{
		{"probe_ms", "ms", "reference probe CPU time"},
		{"setup_cpu_s", "s", "CPU time"}, {"catchup_rows_per_cpu_s_unscaled", "rows/s", "CPU time"},
		{"report_sweep_cpu_ms_unscaled", "ms", "CPU time"},
		{"setup_wall_s", "s", "wall time"}, {"catchup_rows_per_s", "rows/s", "wall time"},
		{"report_sweep_ms", "ms", "wall time"}, {"recovery_s", "s", "wall time"},
	} {
		if xs, ok := detail[n.name].([]float64); ok && len(xs) > 0 {
			fmt.Printf("  %-34s %14.6g %s (median of %d, %s)\n", n.name, median(xs), n.unit, len(xs), n.what)
		}
	}
	for _, n := range notes {
		fmt.Println("  note:", n)
	}
	art := artifact{Stamp: st, Result: res, Valid: valid, Notes: notes, Detail: detail, Reasons: op.reasons}
	dir := filepath.Join(o.out, "mtlsbench", "results")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		data, _ := json.MarshalIndent(art, "", "  ")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mtlsbench: write artifact:", err)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	switch {
	case !valid:
		return 3
	case !correct || op.failed > 0:
		return 1
	}
	return 0
}
