package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// ops counts operations attempted and failed across a run. Safe for
// concurrent use.
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

func (o *ops) ok() {
	o.mu.Lock()
	o.attempted++
	o.mu.Unlock()
}

func (o *ops) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.mu.Lock()
	o.attempted++
	o.failed++
	if len(o.reasons) < 20 {
		o.reasons = append(o.reasons, msg)
	}
	o.mu.Unlock()
	fmt.Fprintln(os.Stderr, "mtlsbench: failed:", msg)
}

// appender holds each site's logs open for the live phase, so an
// append is one write of pre-rendered bytes.
type appender struct {
	ssl, x509 []*os.File
}

func openAppender(ds *dataset) (*appender, error) {
	a := &appender{}
	for _, st := range ds.sites {
		for _, spec := range []struct {
			name string
			dst  *[]*os.File
		}{{chaos.SSLLog, &a.ssl}, {chaos.X509Log, &a.x509}} {
			f, err := os.OpenFile(filepath.Join(st.dir, spec.name), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				a.close()
				return nil, err
			}
			*spec.dst = append(*spec.dst, f)
		}
	}
	return a, nil
}

// write appends one batch: certificates first, as a Zeek sensor
// flushes x509.log ahead of the ssl.log rows that reference them.
func (a *appender) write(ssl [][]byte, x509 []byte) error {
	for i := range a.ssl {
		if len(x509) > 0 {
			if _, err := a.x509[i].Write(x509); err != nil {
				return err
			}
		}
		if len(ssl[i]) > 0 {
			if _, err := a.ssl[i].Write(ssl[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *appender) close() {
	for _, f := range append(a.ssl, a.x509...) {
		f.Close()
	}
}

// liveOut is what the live phase measured.
type liveOut struct {
	freshMS  []float64 // per batch: scheduled write -> stats shows it applied
	lateMS   []float64 // per batch: scheduled write -> write started
	pollMS   []float64 // per stats poll: request -> answer
	tailRows int
}

// matchFreshness pairs each batch with the first stats sample, taken no
// earlier than the batch's write, that shows the batch applied; it
// returns due→sample times in ms and how many batches never matched.
// Both sequences are in time order and batch targets only grow, so each
// batch's match is at or after its predecessor's and one forward pass
// suffices.
func matchFreshness(start time.Time, plan []batch, written []time.Time, samples []progress) ([]float64, int) {
	out := make([]float64, 0, len(plan))
	j, unmatched := 0, 0
	for k, b := range plan {
		for j < len(samples) && (samples[j].at.Before(written[k]) || !samples[j].covers(b.conns, b.certs)) {
			j++
		}
		if j == len(samples) {
			unmatched = len(plan) - k
			break
		}
		out = append(out, float64(samples[j].at.Sub(start.Add(b.due)))/1e6)
	}
	return out, unmatched
}

// runLive drives the open-loop generator for the plan and one stats
// poller. It returns once every appended row is applied or drainWait
// lapses.
func runLive(s *sut, o *ops, drainWait time.Duration) (*liveOut, error) {
	app, err := openAppender(s.ds)
	if err != nil {
		return nil, err
	}
	defer app.close()
	plan := s.ds.plan
	out := &liveOut{}
	written := make([]time.Time, len(plan))

	// The poller itself detects the drain, so the sample that shows the
	// last rows applied is always among the samples freshness reads.
	all, certs := s.allRows()
	var wg sync.WaitGroup
	var tailWritten atomic.Bool
	stopPoll, drained := make(chan struct{}), make(chan struct{})
	var samples []progress
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			t0 := time.Now()
			p, err := s.fetchProgress()
			out.pollMS = append(out.pollMS, float64(time.Since(t0))/1e6)
			if err != nil {
				o.fail("stats poll: %v", err)
			} else {
				o.ok()
				samples = append(samples, p)
				if tailWritten.Load() && p.covers(all, certs) {
					close(drained)
					return
				}
			}
			time.Sleep(s.w.statsEvery)
		}
	}()

	start := time.Now()
	for k, b := range plan {
		due := start.Add(b.due)
		time.Sleep(time.Until(due))
		written[k] = time.Now()
		out.lateMS = append(out.lateMS, float64(written[k].Sub(due))/1e6)
		if err := app.write(b.ssl, b.x509); err != nil {
			o.fail("append batch %d: %v", k, err)
		} else {
			o.ok()
		}
	}
	// Rows the live phase did not reach are appended untimed, so the
	// oracle always covers the whole build.
	if err := app.write(s.ds.tailSSL, s.ds.tailX509); err != nil {
		o.fail("append tail: %v", err)
	}
	for _, b := range s.ds.tailSSL {
		out.tailRows += countLines(b)
	}
	out.tailRows += countLines(s.ds.tailX509) * len(s.ds.sites)

	tailWritten.Store(true)
	select {
	case <-drained:
		o.ok()
	case <-time.After(drainWait):
		o.fail("drain: rows not applied after %v", drainWait)
	}
	close(stopPoll)
	wg.Wait()
	var unmatched int
	out.freshMS, unmatched = matchFreshness(start, plan, written, samples)
	if unmatched > 0 {
		o.fail("%d batches never observed applied", unmatched)
	}
	return out, nil
}

// allRows returns the full per-site conn counts and the cert count.
func (s *sut) allRows() ([]uint64, uint64) {
	conns := make([]uint64, len(s.ds.sites))
	for i, st := range s.ds.sites {
		conns[i] = uint64(st.hi - st.lo)
	}
	return conns, uint64(len(s.ds.certs))
}

// getReport fetches one report and returns its latency in ms and body.
// A non-200 answer is an error.
func getReport(base, name string) (float64, []byte, error) {
	t0 := time.Now()
	resp, err := client.Get(base + "/api/v1/reports/" + name)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return ms, body, nil
}

func countLines(b []byte) int {
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}
