package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	mtls "repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/zeek"
)

// stages maps each report name to its pipeline stage, as
// internal/stream's report registry does, so the traced run can time
// the stage inside WithPipeline apart from the materialization around
// it. replay checks the set against stream.ReportNames and each stage's
// output against Report, so a drifted copy fails the run.
var stages = map[string]func(*core.Pipeline) any{
	"preprocess":   func(p *core.Pipeline) any { return p.PreprocessReport() },
	"table1":       func(p *core.Pipeline) any { return p.CertStats() },
	"figure1":      func(p *core.Pipeline) any { return p.Prevalence() },
	"table2":       func(p *core.Pipeline) any { return p.Services() },
	"table3":       func(p *core.Pipeline) any { return p.Inbound() },
	"figure2":      func(p *core.Pipeline) any { return p.Outbound() },
	"table4":       func(p *core.Pipeline) any { return p.DummyIssuers() },
	"serials":      func(p *core.Pipeline) any { return p.Serials() },
	"table5":       func(p *core.Pipeline) any { return p.SharingSame() },
	"table6":       func(p *core.Pipeline) any { return p.SharingCross() },
	"figure3":      func(p *core.Pipeline) any { return p.BadDates() },
	"figure4":      func(p *core.Pipeline) any { return p.Validity() },
	"figure5":      func(p *core.Pipeline) any { return p.Expired() },
	"table7":       func(p *core.Pipeline) any { return p.Utilization() },
	"table8":       func(p *core.Pipeline) any { return p.Contents() },
	"table9":       func(p *core.Pipeline) any { return p.Unidentified() },
	"table13":      func(p *core.Pipeline) any { return p.SharedInfo() },
	"table14":      func(p *core.Pipeline) any { return p.NonMutual() },
	"concerns":     func(p *core.Pipeline) any { return p.Concerns() },
	"santypes":     func(p *core.Pipeline) any { return p.SANTypes() },
	"durations":    func(p *core.Pipeline) any { return p.Durations() },
	"versions":     func(p *core.Pipeline) any { return p.Versions() },
	"fingerprints": func(p *core.Pipeline) any { return p.Fingerprints() },
}

// traceCycles is how many times the traced run sweeps the reports;
// core.<report>_ms is the median stage time over them.
const traceCycles = 3

// traceCkptBatches is how many live batches pass between the traced
// run's checkpoints: twenty per run, enough for delta commits and a
// background compaction (every 8 segments) on every workload.
const traceCkptBatches = liveBatches / 20

// replayOut is what one pass of the in-process replay measured besides
// its spans.
type replayOut struct {
	wall      time.Duration
	expo      exposition // every engine's, tail's and the aggregator's series
	hotMax    float64    // restored engine's stream_store_hot_bytes, the larger of after restore and after its rebuild
	ckptBytes float64    // sum of stream_checkpoint_bytes over checkpoints
	restored  uint64     // rows the restored engine holds
}

// siteRun is one site's tails and engine inside the replay.
type siteRun struct {
	reg  *metrics.Registry
	ssl  *zeek.SSLTail
	x509 *zeek.X509Tail
	sslF *os.File
	xF   *os.File
	eng  *stream.Engine
	ckpt string
}

// replay drives every layer in process, in the daemon's order, over
// the workload's rows: context build, zeek tails over appended logs,
// stream batch ingest and drain with periodic checkpoints, report
// materialization and JSON encoding, restore, export, the snapshot
// codec, and an aggregator syncing the site engines. Spans are
// recorded around each call when tr is on.
func replay(w wload, ds *dataset, seed uint64, dir string, tr *tracer) (*replayOut, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	out := &replayOut{}

	sp := tr.start(nil, "workload.context", "")
	spec, err := mtls.ParseSpec(ds.specYAML)
	if err != nil {
		return nil, err
	}
	build, err := mtls.Generate(spec, mtls.WithScale(w.scale), mtls.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	in := mtls.InputFromBuild(build)
	in.Raw = nil
	tr.end(sp, 0)

	sites := make([]*siteRun, len(ds.sites))
	for i := range ds.sites {
		sr, err := openSite(w, in, ds, i, dir)
		if err != nil {
			return nil, err
		}
		defer sr.close()
		sites[i] = sr
	}
	poll := func(req string) (int, error) {
		n := 0
		for _, sr := range sites {
			k, err := sr.pollOnce(tr, req)
			if err != nil {
				return n, err
			}
			n += k
		}
		return n, nil
	}
	catchUp := func(req string) error {
		for {
			n, err := poll(req)
			if err != nil || n == 0 {
				return err
			}
		}
	}
	checkpoint := func(req string) error {
		for _, sr := range sites {
			s := tr.start(nil, "stream.drain", req)
			sr.eng.Drain()
			tr.end(s, 0)
			s = tr.start(nil, "stream.checkpoint", req)
			err := sr.eng.WriteCheckpoint(sr.ckpt, map[string]int64{
				chaos.SSLLog: sr.ssl.Offset(), chaos.X509Log: sr.x509.Offset()})
			tr.end(s, 0)
			if err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			out.ckptBytes += sr.reg.Gauge("stream_checkpoint_bytes", "").Value()
		}
		return nil
	}

	if err := catchUp("backlog"); err != nil {
		return nil, err
	}
	for k, b := range ds.plan {
		req := fmt.Sprintf("batch-%d", k)
		s := tr.start(nil, "loadgen.append", req)
		for i, sr := range sites {
			if err := sr.append(b.ssl[i], b.x509); err != nil {
				return nil, err
			}
		}
		tr.end(s, b.rows)
		if _, err := poll(req); err != nil {
			return nil, err
		}
		if (k+1)%traceCkptBatches == 0 {
			if err := checkpoint(req); err != nil {
				return nil, err
			}
		}
	}
	for i, sr := range sites {
		if err := sr.append(ds.tailSSL[i], ds.tailX509); err != nil {
			return nil, err
		}
	}
	if err := catchUp("tail"); err != nil {
		return nil, err
	}
	for _, sr := range sites {
		s := tr.start(nil, "stream.drain", "final")
		sr.eng.Drain()
		tr.end(s, 0)
	}

	// Restore the first site's last checkpoint into a fresh engine on a
	// tiered store. Its first report rebuilds the derived state, as a
	// restarted daemon's does, so every workload has a rebuild, spills
	// and faults to measure.
	if err := checkpoint("final"); err != nil {
		return nil, err
	}
	// The hot tier gets a quarter of the checkpoint's size, so on every
	// workload the store spills on restore and faults records back on
	// the rebuild.
	ckptBytes, err := dirBytes(sites[0].ckpt)
	if err != nil {
		return nil, err
	}
	s := tr.start(nil, "stream.restore", "restore")
	restoreReg := metrics.New()
	rcfg := stream.Config{Input: in, Store: "disk", Metrics: restoreReg,
		StoreDir: filepath.Join(dir, "restore.store"), HotBytes: max(1, ckptBytes/4)}
	restored, _, err := stream.Restore(rcfg, sites[0].ckpt)
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	rst := restored.Stats()
	out.restored = rst.ConnsIngested + rst.CertsIngested
	tr.end(s, int(out.restored))
	hot := restoreReg.Gauge("stream_store_hot_bytes", "")
	out.hotMax = hot.Value()
	_, err = restored.Report("preprocess")
	out.hotMax = max(out.hotMax, hot.Value())
	restored.Close()
	if err != nil {
		return nil, fmt.Errorf("report after restore: %w", err)
	}

	// Export, encode and decode each site's full snapshot, then let an
	// aggregator pull the sites over HTTP.
	var urls []string
	for i, sr := range sites {
		req := fmt.Sprintf("site-%d", i)
		s := tr.start(nil, "stream.export", req)
		st, err := sr.eng.Export(0, 0)
		tr.end(s, 0)
		if err != nil {
			return nil, fmt.Errorf("export: %w", err)
		}
		var buf bytes.Buffer
		s = tr.start(nil, "distrib.encode", req)
		err = distrib.Encode(&buf, distrib.FromExport(st))
		tr.end(s, buf.Len())
		if err != nil {
			return nil, fmt.Errorf("encode: %w", err)
		}
		s = tr.start(nil, "distrib.decode", req)
		_, err = distrib.Decode(&buf)
		tr.end(s, 0)
		if err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/api/v1/snapshot", distrib.NewSensor(sr.eng, nil, nil).Handler())
		srv := httptest.NewServer(mux)
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	aggReg := metrics.New()
	agg, err := distrib.NewAggregator(distrib.Config{Input: in, Sensors: urls, Metrics: aggReg})
	if err != nil {
		return nil, err
	}
	s = tr.start(nil, "distrib.syncall", "sync")
	err = agg.SyncAll(context.Background())
	tr.end(s, 0)
	if err != nil {
		return nil, fmt.Errorf("aggregator sync: %w", err)
	}

	// Reports come from what users query: the aggregator on a fleet,
	// else the monitor's engine. Elsewhere one aggregator report still
	// runs a merge.
	var front interface {
		stream.Materializer
		Report(string) (any, error)
	} = sites[0].eng
	if w.sensors > 0 {
		front = agg
	}
	// The aggregator's first materialization after a sync is one merge.
	s = tr.start(nil, "distrib.merge", "merge")
	agg.WithPipeline(func(*core.Pipeline) {})
	tr.end(s, 0)
	if err := sweepTraced(front, tr); err != nil {
		return nil, err
	}

	var text strings.Builder
	for _, sr := range sites {
		sr.reg.WritePrometheus(&text)
	}
	restoreReg.WritePrometheus(&text)
	aggReg.WritePrometheus(&text)
	if out.expo, err = parseExposition(text.String()); err != nil {
		return nil, err
	}
	out.wall = time.Since(t0)
	return out, nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

func openSite(w wload, in *core.Input, ds *dataset, i int, dir string) (*siteRun, error) {
	logs := filepath.Join(dir, fmt.Sprintf("logs%d", i))
	if err := os.MkdirAll(logs, 0o755); err != nil {
		return nil, err
	}
	sr := &siteRun{reg: metrics.New(), ckpt: filepath.Join(dir, fmt.Sprintf("site%d.ckpt", i))}
	var err error
	if sr.sslF, err = os.Create(filepath.Join(logs, chaos.SSLLog)); err != nil {
		return nil, err
	}
	if sr.xF, err = os.Create(filepath.Join(logs, chaos.X509Log)); err != nil {
		sr.sslF.Close()
		return nil, err
	}
	if err := sr.append(ds.sslHead[i], ds.x509Head); err != nil {
		sr.close()
		return nil, err
	}
	sr.ssl = zeek.NewSSLTail(filepath.Join(logs, chaos.SSLLog))
	sr.x509 = zeek.NewX509Tail(filepath.Join(logs, chaos.X509Log))
	zopts := zeek.Options{Metrics: sr.reg}
	zeek.RejectTotals(sr.reg)
	for _, t := range []interface {
		Instrument(*metrics.Registry)
		SetOptions(zeek.Options)
	}{sr.ssl, sr.x509} {
		t.Instrument(sr.reg)
		t.SetOptions(zopts)
	}
	sr.eng, err = stream.New(stream.Config{Input: in, Metrics: sr.reg,
		TrackExport: true})
	if err != nil {
		sr.close()
		return nil, err
	}
	return sr, nil
}

func (sr *siteRun) append(ssl, x509 []byte) error {
	if _, err := sr.xF.Write(x509); err != nil {
		return err
	}
	_, err := sr.sslF.Write(ssl)
	return err
}

// pollOnce polls x509.log then ssl.log once, as one round of the
// daemon's catch-up loop, and hands the rows to the engine in
// zeek.DefaultBatchSize runs.
func (sr *siteRun) pollOnce(tr *tracer, req string) (int, error) {
	s := tr.start(nil, "zeek.poll", req)
	certs, err := sr.x509.Poll()
	tr.end(s, len(certs))
	if err != nil {
		return 0, err
	}
	s = tr.start(nil, "stream.ingest", req)
	for lo := 0; lo < len(certs); lo += zeek.DefaultBatchSize {
		sr.eng.IngestCertBatch(certs[lo:min(lo+zeek.DefaultBatchSize, len(certs))])
	}
	tr.end(s, len(certs))
	s = tr.start(nil, "zeek.poll", req)
	conns, err := sr.ssl.Poll()
	tr.end(s, len(conns))
	if err != nil {
		return 0, err
	}
	s = tr.start(nil, "stream.ingest", req)
	for lo := 0; lo < len(conns); lo += zeek.DefaultBatchSize {
		sr.eng.IngestConnBatch(conns[lo:min(lo+zeek.DefaultBatchSize, len(conns))])
	}
	tr.end(s, len(conns))
	return len(certs) + len(conns), nil
}

func (sr *siteRun) close() {
	if sr.eng != nil {
		sr.eng.Close()
	}
	sr.sslF.Close()
	sr.xF.Close()
}

// sweepTraced materializes every report traceCycles times. Each request
// is a stream.report span (the WithPipeline call Report makes) with the
// stage inside it as a core.<name> child, followed by an
// mtlsd.json_encode span encoding the value as the daemon's writeJSON
// does. The first cycle also checks each stage against Report.
func sweepTraced(front interface {
	stream.Materializer
	Report(string) (any, error)
}, tr *tracer) error {
	names := stream.ReportNames()
	if len(names) != len(stages) {
		return fmt.Errorf("stage table has %d reports, stream serves %d", len(stages), len(names))
	}
	for c := 0; c < traceCycles; c++ {
		for _, name := range names {
			fn, ok := stages[name]
			if !ok {
				return fmt.Errorf("stage table lacks report %q", name)
			}
			req := fmt.Sprintf("report-%d-%s", c, name)
			var v any
			outer := tr.start(nil, "stream.report", req)
			front.WithPipeline(func(p *core.Pipeline) {
				s := tr.start(outer, "core."+name, req)
				v = fn(p)
				tr.end(s, 0)
			})
			tr.end(outer, 0)
			var buf bytes.Buffer
			s := tr.start(nil, "mtlsd.json_encode", req)
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			err := enc.Encode(v)
			tr.end(s, buf.Len())
			if err != nil {
				return fmt.Errorf("encode %s: %w", name, err)
			}
			if c == 0 {
				want, err := front.Report(name)
				if err != nil {
					return err
				}
				got, _ := json.Marshal(v)
				exp, _ := json.Marshal(want)
				if !bytes.Equal(got, exp) {
					return fmt.Errorf("stage table's %s differs from Report(%q)", name, name)
				}
			}
		}
	}
	return nil
}

// parseNsPerRow times zeek's batch parsers over the rendered logs in
// memory: the parse cost alone, without file reads.
func parseNsPerRow(ds *dataset, tr *tracer) (float64, error) {
	rows := 0
	s := tr.start(nil, "zeek.parse", "parse")
	for i := range ds.sites {
		err := zeek.ForEachSSLBatch(bytes.NewReader(ds.sslFull[i]), func(b []zeek.SSLRecord) error {
			rows += len(b)
			return nil
		})
		if err != nil {
			return 0, err
		}
		err = zeek.ForEachX509Batch(bytes.NewReader(ds.x509Full), func(b []zeek.X509Record) error {
			rows += len(b)
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	tr.end(s, rows)
	d, _, _ := tr.total("zeek.parse")
	return float64(d.Nanoseconds()) / float64(rows), nil
}

// traced runs the in-process replay with spans off and then on, and
// returns the per-layer metrics: span-derived ones from the second pass,
// counters from its registries and, where the live daemons are the
// better witness, from their /metrics pages scraped after the drain.
func traced(o options, w wload, ds *dataset, op *ops, detail map[string]any, daemonText string) (map[string]metric, error) {
	dir := filepath.Join(o.out, "mtlsbench", fmt.Sprintf("trace-%s-%d", w.name, os.Getpid()))
	off, err := replay(w, ds, o.seed, dir, newTracer(false))
	if err != nil {
		return nil, fmt.Errorf("traced run (spans off): %w", err)
	}
	tr := newTracer(true)
	on, err := replay(w, ds, o.seed, dir, tr)
	if err != nil {
		return nil, fmt.Errorf("traced run (spans on): %w", err)
	}
	parseNs, err := parseNsPerRow(ds, tr)
	if err != nil {
		return nil, err
	}
	daemon, err := parseExposition(daemonText)
	if err != nil {
		return nil, err
	}
	m, err := layerMetrics(w, ds, tr, on, daemon, parseNs)
	if err != nil {
		op.fail("%v", err)
	}
	m["trace.overhead_pct"] = metric{100 * (on.wall.Seconds() - off.wall.Seconds()) / off.wall.Seconds(), "%"}
	m["loadgen.late_p99_ms"] = metric{detail["loadgen_late_p99_ms"].(float64), "ms"}
	for _, bad := range []string{"distrib_sync_errors_total", "distrib_full_resyncs_total"} {
		if v, _ := on.expo.sum(bad, nil); v > 0 {
			op.fail("traced aggregator: %s = %v", bad, v)
		}
	}
	for _, bad := range []string{"mtlsd_tail_errors_total", "zeek_rows_rejected_total"} {
		if v, _ := daemon.sum(bad, nil); v > 0 {
			op.fail("daemon: %s = %v", bad, v)
		}
	}
	if v, _ := daemon.sum("mtlsd_http_requests_total", nil); v > 0 {
		ok, _ := daemon.sum("mtlsd_http_requests_total", map[string]string{"code": "200"})
		if v > ok {
			op.fail("daemon: %v HTTP requests answered non-200", v-ok)
		}
	}
	spans := filepath.Join(o.out, "mtlsbench", "results", fmt.Sprintf("%s-seed%d-spans.json", w.name, o.seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err == nil {
		if err := tr.writeSpans(spans); err != nil {
			fmt.Fprintln(os.Stderr, "mtlsbench: write spans:", err)
		}
	}
	detail["traced_wall_s"] = map[string]float64{"spans_off": off.wall.Seconds(), "spans_on": on.wall.Seconds()}
	return m, nil
}

// layerMetrics derives the per-layer metrics named in BENCHMARK.json.
// Quantiles of the traced run come from its spans, which time each call
// exactly; histogram quantiles are used only for the live daemons,
// whose many samples spread over the buckets.
func layerMetrics(w wload, ds *dataset, tr *tracer, on *replayOut, daemon exposition, parseNs float64) (map[string]metric, error) {
	m := map[string]metric{}
	var missing []string
	sumOf := func(e exposition, name string, want map[string]string) float64 {
		v, ok := e.sum(name, want)
		if !ok {
			missing = append(missing, name)
		}
		return v
	}
	histQ := func(e exposition, name string, want map[string]string, q float64) float64 {
		h, ok := e.histogram(name, want)
		if !ok {
			missing = append(missing, name)
			return 0
		}
		v := h.quantile(q)
		if v != v { // NaN: no observations
			return 0
		}
		return v
	}
	secs := func(name string) float64 { d, _, _ := tr.total(name); return d.Seconds() }
	meanMS := func(name string) float64 {
		d, n, _ := tr.total(name)
		if n == 0 {
			missing = append(missing, name)
			return 0
		}
		return float64(d) / 1e6 / float64(n)
	}

	m["workload.context_s"] = metric{secs("workload.context"), "s"}

	// zeek: the live daemons' tailers, plus traced parse and read.
	m["zeek.poll_s"] = metric{sumOf(daemon, "tail_poll_seconds_sum", nil), "s"}
	m["zeek.polls"] = metric{sumOf(daemon, "tail_poll_seconds_count", nil), "count"}
	m["zeek.rows"] = metric{sumOf(daemon, "tail_rows_total", nil), "count"}
	m["zeek.bytes"] = metric{sumOf(daemon, "tail_bytes_read_total", nil), "bytes"}
	pollD, _, pollRows := tr.total("zeek.poll")
	m["zeek.parse_ns_per_row"] = metric{parseNs, "ns"}
	m["zeek.read_ns_per_row"] = metric{float64(pollD.Nanoseconds())/float64(max(1, pollRows)) - parseNs, "ns"}

	// stream ingest.
	m["stream.ingest_call_s"] = metric{secs("stream.ingest"), "s"}
	m["stream.drain_s"] = metric{secs("stream.drain"), "s"}
	m["stream.apply_wait_p50_ms"] = metric{1e3 * histQ(daemon, "stream_apply_latency_seconds", nil, 0.5), "ms"}
	m["stream.apply_wait_p99_ms"] = metric{1e3 * histQ(daemon, "stream_apply_latency_seconds", nil, 0.99), "ms"}

	// stream evict/materialize, from the traced engines.
	e := on.expo
	m["stream.rebuilds"] = metric{sumOf(e, "stream_rebuilds_total", nil), "count"}
	m["stream.rebuild_s"] = metric{sumOf(e, "stream_rebuild_seconds_sum", nil), "s"}
	m["stream.materialize_s"] = metric{sumOf(e, "stream_materialize_seconds_sum", nil), "s"}
	matMS := tr.durations("stream.report")
	matP50, _ := percentile(matMS, 0.5)
	matP99, _ := percentile(matMS, 0.99)
	m["stream.materialize_p50_ms"] = metric{matP50, "ms"}
	m["stream.materialize_p99_ms"] = metric{matP99, "ms"}
	self := selfTimes(tr.spans)
	var selfSum time.Duration
	nReports := 0
	for _, s := range tr.spans {
		if s.Name == "stream.report" {
			selfSum += self[s.ID]
			nReports++
		}
	}
	m["stream.materialize_self_ms"] = metric{float64(selfSum) / 1e6 / float64(max(1, nReports)), "ms"}

	// stream durability.
	m["stream.checkpoints"] = metric{sumOf(e, "stream_checkpoints_total", nil), "count"}
	m["stream.checkpoint_s"] = metric{sumOf(e, "stream_checkpoint_seconds_sum", nil), "s"}
	ckptP99, _ := percentile(tr.durations("stream.checkpoint"), 0.99)
	m["stream.checkpoint_p99_ms"] = metric{ckptP99, "ms"}
	m["stream.checkpoint_bytes"] = metric{on.ckptBytes, "bytes"}
	m["stream.compactions"] = metric{sumOf(e, "stream_checkpoint_compactions_total", nil), "count"}
	m["stream.compact_s"] = metric{sumOf(e, "stream_compact_seconds_sum", nil), "s"}
	restoreS := secs("stream.restore")
	m["stream.restore_s"] = metric{restoreS, "s"}
	m["stream.restore_rows_per_s"] = metric{float64(on.restored) / restoreS, "rows/s"}

	// store tiers.
	spilled := sumOf(e, "stream_store_spilled_total", nil)
	loaded := sumOf(e, "stream_store_loaded_total", nil)
	m["store.spilled"] = metric{spilled, "count"}
	m["store.loaded"] = metric{loaded, "count"}
	ratio := 0.0
	if spilled > 0 {
		ratio = loaded / spilled
	}
	m["store.fault_ratio"] = metric{ratio, "ratio"}
	m["store.hot_bytes_max"] = metric{on.hotMax, "bytes"}
	m["store.cold_conns"] = metric{sumOf(e, "stream_store_cold_conns", nil), "count"}

	// core stages: median per report over the traced sweeps.
	for name := range stages {
		m["core."+name+"_ms"] = metric{median(tr.durations("core." + name)), "ms"}
	}

	// mtlsd HTTP serving, from the live daemons.
	rep := map[string]string{"path": "/api/v1/reports/"}
	m["mtlsd.report_server_p50_ms"] = metric{1e3 * histQ(daemon, "mtlsd_http_request_seconds", rep, 0.5), "ms"}
	m["mtlsd.report_server_p99_ms"] = metric{1e3 * histQ(daemon, "mtlsd_http_request_seconds", rep, 0.99), "ms"}
	m["mtlsd.json_encode_ms"] = metric{meanMS("mtlsd.json_encode"), "ms"}

	// distrib, from the traced aggregator and codec.
	m["distrib.syncs"] = metric{sumOf(e, "distrib_syncs_total", nil), "count"}
	m["distrib.sync_bytes"] = metric{sumOf(e, "distrib_sync_bytes_total", nil), "bytes"}
	m["distrib.merges"] = metric{sumOf(e, "distrib_merges_total", nil), "count"}
	m["distrib.merge_s"] = metric{sumOf(e, "distrib_merge_seconds_sum", nil), "s"}
	m["distrib.merge_p50_ms"] = metric{median(tr.durations("distrib.merge")), "ms"}
	m["stream.export_ms"] = metric{1e3 * secs("stream.export"), "ms"}
	m["distrib.encode_ms"] = metric{1e3 * secs("distrib.encode"), "ms"}
	m["distrib.decode_ms"] = metric{1e3 * secs("distrib.decode"), "ms"}
	_, _, snapBytes := tr.total("distrib.encode")
	m["distrib.snapshot_bytes"] = metric{float64(snapBytes), "bytes"}
	m["distrib.syncall_ms"] = metric{1e3 * secs("distrib.syncall"), "ms"}

	m["loadgen.rows"] = metric{float64(ds.backlogRows() + ds.liveRows()), "count"}

	if len(missing) > 0 {
		sort.Strings(missing)
		return m, fmt.Errorf("per-layer series missing: %s", strings.Join(missing, ", "))
	}
	return m, nil
}
