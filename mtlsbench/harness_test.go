package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},
		{40, 0.75},  // p75 of 40: rank 30, 10 above
		{99, 0.75},  // p90 of 99: rank 90, 9 above
		{100, 0.90}, // p90 of 100: rank 90, 10 above
		{199, 0.90},
		{200, 0.95}, // p95 of 200: rank 190, 10 above
		{499, 0.95},
		{500, 0.98}, // p98 of 500: rank 490, 10 above
		{999, 0.98},
		{1000, 0.99},
		{1250, 0.99},
		{10000, 0.999},
	} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tm, err := summarize("x", xs, 0.90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if tm.P50 != 50 || tm.Tail != 90 || tm.Highest != 0.90 {
		t.Errorf("summary = %+v, want p50 50, p90 90, highest 0.90", tm)
	}
	if _, err := summarize("x", xs, 0.95); err == nil {
		t.Error("p95 of 100 samples has 5 above it; want an error")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{2.1, 2.2, 1.9, 2.0, 2.5, 2.3, 1.8, 2.4, 2.05, 2.15}, [3]float64{1.975, 2.125, 2.325}},
	} {
		got, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestSpread(t *testing.T) {
	sp, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(sp-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", sp, want)
	}
}

func TestMatchFreshness(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	plan := []batch{
		{due: 0, conns: []uint64{10}, certs: 5},
		{due: 10 * time.Millisecond, conns: []uint64{20}, certs: 5},
		{due: 20 * time.Millisecond, conns: []uint64{30}, certs: 6},
		{due: 30 * time.Millisecond, conns: []uint64{40}, certs: 6},
	}
	written := []time.Time{at(1), at(11), at(21), at(31)}
	samples := []progress{
		{at: at(0), conns: []uint64{0}, certs: 0},
		{at: at(5), conns: []uint64{10}, certs: 5},  // batch 0 applied
		{at: at(15), conns: []uint64{10}, certs: 5}, // batch 1 not yet
		{at: at(25), conns: []uint64{30}, certs: 6}, // batches 1 and 2
		// A restart: counts fall back to the checkpoint's, then climb.
		{at: at(40), conns: []uint64{20}, certs: 5},
		{at: at(50), conns: []uint64{40}, certs: 6}, // batch 3
	}
	got, unmatched := matchFreshness(start, plan, written, samples)
	want := []float64{5, 15, 5, 20}
	if unmatched != 0 || len(got) != len(want) {
		t.Fatalf("got %v (%d unmatched), want %v", got, unmatched, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("batch %d freshness = %v ms, want %v", i, got[i], want[i])
		}
	}

	// A sample from before the write never counts, and certificates
	// must be applied too.
	plan = []batch{{due: 0, conns: []uint64{5}, certs: 3}}
	written = []time.Time{at(10)}
	samples = []progress{
		{at: at(5), conns: []uint64{5}, certs: 3},
		{at: at(12), conns: []uint64{5}, certs: 2},
		{at: at(14), conns: []uint64{5}, certs: 3},
	}
	got, unmatched = matchFreshness(start, plan, written, samples)
	if unmatched != 0 || len(got) != 1 || got[0] != 14 {
		t.Errorf("got %v (%d unmatched), want [14]", got, unmatched)
	}
	got, unmatched = matchFreshness(start, plan, written, samples[:2])
	if unmatched != 1 || len(got) != 0 {
		t.Errorf("got %v (%d unmatched), want none matched", got, unmatched)
	}
}

func TestCoversSumsCertsOverSites(t *testing.T) {
	p := progress{conns: []uint64{4, 6}, certs: 10}
	if !p.covers([]uint64{4, 6}, 5) {
		t.Error("two sites with 5 certs each: 10 applied should cover")
	}
	if p.covers([]uint64{4, 6}, 6) {
		t.Error("12 certs wanted, 10 applied: should not cover")
	}
	if p.covers([]uint64{5, 6}, 5) {
		t.Error("site 0 behind: should not cover")
	}
}

const expoText = `# HELP stream_apply_latency_seconds ingest enqueue to apply latency
# TYPE stream_apply_latency_seconds histogram
stream_apply_latency_seconds_bucket{le="0.001"} 2
stream_apply_latency_seconds_bucket{le="0.01"} 6
stream_apply_latency_seconds_bucket{le="0.1"} 10
stream_apply_latency_seconds_bucket{le="+Inf"} 10
stream_apply_latency_seconds_sum 0.25
stream_apply_latency_seconds_count 10
# TYPE mtlsd_http_request_seconds histogram
mtlsd_http_request_seconds_bucket{path="/api/v1/reports/",le="0.01"} 1
mtlsd_http_request_seconds_bucket{path="/api/v1/reports/",le="+Inf"} 3
mtlsd_http_request_seconds_sum{path="/api/v1/reports/"} 0.5
mtlsd_http_request_seconds_count{path="/api/v1/reports/"} 3
mtlsd_http_request_seconds_bucket{path="/api/v1/stats",le="0.01"} 7
mtlsd_http_request_seconds_bucket{path="/api/v1/stats",le="+Inf"} 7
mtlsd_http_request_seconds_sum{path="/api/v1/stats"} 0.01
mtlsd_http_request_seconds_count{path="/api/v1/stats"} 7
tail_rows_total{file="ssl"} 100
tail_rows_total{file="x509"} 40
weird{a="x\"y,z}"} 1.5
`

func TestExpositionHistogram(t *testing.T) {
	e, err := parseExposition(expoText)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := e.histogram("stream_apply_latency_seconds", nil)
	if !ok || h.sum != 0.25 || h.count != 10 {
		t.Fatalf("histogram sum/count = %v/%v (found %v), want 0.25/10", h.sum, h.count, ok)
	}
	// Rank 5 of 10 falls in (0.001, 0.01], which holds ranks 3..6.
	if got, want := h.quantile(0.5), 0.001+0.009*3/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// A rank in the +Inf bucket reads the highest finite bound.
	rep := map[string]string{"path": "/api/v1/reports/"}
	hr, _ := e.histogram("mtlsd_http_request_seconds", rep)
	if hr.count != 3 || hr.sum != 0.5 || hr.quantile(0.99) != 0.01 {
		t.Errorf("reports histogram = %+v, p99 %v", hr, hr.quantile(0.99))
	}
	all, _ := e.histogram("mtlsd_http_request_seconds", nil)
	if all.count != 10 {
		t.Errorf("merged count = %v, want 10", all.count)
	}
	if v, ok := e.sum("tail_rows_total", nil); !ok || v != 140 {
		t.Errorf("tail_rows_total sum = %v, want 140", v)
	}
	if v, _ := e.sum("weird", map[string]string{"a": `x"y,z}`}); v != 1.5 {
		t.Errorf("escaped label value not matched: %v", v)
	}
	if _, ok := e.sum("absent_total", nil); ok {
		t.Error("absent series reported as found")
	}
	// Two daemons' pages add up by concatenation.
	two, _ := parseExposition(expoText + expoText)
	if v, _ := two.sum("tail_rows_total", map[string]string{"file": "ssl"}); v != 200 {
		t.Errorf("two pages: ssl rows = %v, want 200", v)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []*span{
		{ID: 1, Name: "stream.report", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.table1", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.table2", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "core.table3", Start: 80, End: 120}, // runs past its parent
		{ID: 5, Name: "zeek.poll", Start: 200, End: 250},
	}
	self := selfTimes(spans)
	if got := self[1]; got != 30 {
		t.Errorf("report self time = %v, want 30 (100 minus 10..60 and 80..100)", got)
	}
	by := layerSelf(spans)
	if by["stream"] != 30e-9 || by["zeek"] != 50e-9 {
		t.Errorf("layer self times = %v", by)
	}
}

func TestStealPct(t *testing.T) {
	a := parseCPUTicks("cpu  1150212 0 125348 1413265 3124 0 25622 273078 0 0")
	b := parseCPUTicks("cpu  1150243 0 125353 1415222 3124 0 25622 273103 0 0")
	if a.total != 1150212+125348+1413265+3124+25622+273078 || a.steal != 273078 {
		t.Fatalf("parsed %+v", a)
	}
	// 25 of 2018 ticks stolen.
	if got, want := stealPct(a, b), 100*25.0/2018; math.Abs(got-want) > 1e-9 {
		t.Errorf("steal = %v%%, want %v%%", got, want)
	}
	if got := stealPct(b, a); got != 0 {
		t.Errorf("steal over a backwards interval = %v, want 0", got)
	}
	if got := parseCPUTicks("cpu0 1 2 3 4 5 6 7 8"); got != (cpuTicks{}) {
		t.Errorf("a per-CPU line parsed as the aggregate: %+v", got)
	}
}

func TestRefProbe(t *testing.T) {
	var p refProbe
	if f := p.factor(); f != 0 {
		t.Errorf("factor before any probe = %v, want 0", f)
	}
	p.run()
	if p.ms[0] <= 0 {
		t.Fatalf("probe CPU time = %v ms, want > 0", p.ms[0])
	}
	// The factor is the median probe time over the nominal one.
	p.ms = []float64{4 * probeNominalMS, probeNominalMS / 2, 3 * probeNominalMS / 2}
	if got := p.factor(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("factor = %v, want 1.5", got)
	}
}
