package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
)

// daemon is one mtlsd process slot: a monitor, a sensor or the
// aggregator. The slot keeps its address across restarts.
type daemon struct {
	name string
	args []string
	base string
	log  string

	mu   sync.Mutex
	proc *chaos.Proc
}

// sut is the system under test: the workload's mtlsd processes.
type sut struct {
	bin   string
	w     wload
	ds    *dataset
	work  string
	sites []*daemon // one per log site: the monitor, or the sensors
	agg   *daemon   // fleet only

}

// client is the benchmark's HTTP client. Its pool holds at most two
// connections to a host; one is in use at a time, except while a drain
// wait overlaps the stats poller.
var client = &http.Client{
	Timeout:   30 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2},
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newSUT lays out the daemon slots and their flags. The daemons get the
// spec, scale and seed they need to rebuild the analysis context, and
// nothing about the run.
func newSUT(bin string, w wload, ds *dataset, work string, seed uint64) (*sut, error) {
	s := &sut{bin: bin, w: w, ds: ds, work: work}
	specPath := filepath.Join(work, "workload.spec.yaml")
	if err := os.WriteFile(specPath, ds.specYAML, 0o644); err != nil {
		return nil, err
	}
	ctx := []string{"-spec", specPath, "-scale", strconv.Itoa(w.scale),
		"-seed", strconv.FormatUint(seed, 10), "-log-level", "warn"}
	for i, st := range ds.sites {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		role, name := "monitor", "monitor"
		if w.sensors > 0 {
			role, name = "sensor", fmt.Sprintf("sensor%d", i)
		}
		args := append([]string{"-role", role, "-logs", st.dir, "-listen", addr,
			"-poll", pollEvery.String(), "-shards", "1"}, ctx...)
		s.sites = append(s.sites, &daemon{name: name, args: args, base: "http://" + addr,
			log: filepath.Join(work, name+".log")})
	}
	if w.sensors > 0 {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		var peers []string
		for _, d := range s.sites {
			peers = append(peers, strings.TrimPrefix(d.base, "http://"))
		}
		args := append([]string{"-role", "aggregator", "-listen", addr,
			"-sensors", strings.Join(peers, ","), "-sync-every", syncEvery.String()}, ctx...)
		s.agg = &daemon{name: "aggregator", args: args, base: "http://" + addr,
			log: filepath.Join(work, "aggregator.log")}
	}
	return s, nil
}

// all lists every daemon slot.
func (s *sut) all() []*daemon {
	if s.agg == nil {
		return s.sites
	}
	return append(append([]*daemon(nil), s.sites...), s.agg)
}

// front is the daemon users query: the aggregator on a fleet, else the
// monitor.
func (s *sut) front() *daemon {
	if s.agg != nil {
		return s.agg
	}
	return s.sites[0]
}

// resetState rewrites each site's logs with its rows — all of them when
// full is set, else the live phase's backlog: the state before a cold
// start.
func (s *sut) resetState(full bool) error {
	for i := range s.sites {
		if err := os.RemoveAll(s.ds.sites[i].dir); err != nil {
			return err
		}
		if err := os.MkdirAll(s.ds.sites[i].dir, 0o755); err != nil {
			return err
		}
		ssl, x509 := s.ds.sslHead[i], s.ds.x509Head
		if full {
			ssl, x509 = s.ds.sslFull[i], s.ds.x509Full
		}
		if err := os.WriteFile(filepath.Join(s.ds.sites[i].dir, chaos.SSLLog), ssl, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(s.ds.sites[i].dir, chaos.X509Log), x509, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (d *daemon) start(bin string) error {
	p, err := chaos.StartProc(bin, d.args, d.log)
	if err != nil {
		return fmt.Errorf("start %s: %w", d.name, err)
	}
	d.mu.Lock()
	d.proc = p
	d.mu.Unlock()
	return nil
}

// stop ends the slot's process: SIGKILL when kill is set (the crash
// recovery measures), else SIGTERM with a grace period. It returns
// the process's peak resident set (VmHWM) in bytes, read just before,
// or 0 when no process was running.
func (d *daemon) stop(kill bool) (int64, error) {
	d.mu.Lock()
	p := d.proc
	d.proc = nil
	d.mu.Unlock()
	if p == nil || p.Exited() {
		return 0, nil
	}
	hwm := readHWM(p.PID())
	if kill {
		return hwm, p.Kill()
	}
	return hwm, p.Stop(10 * time.Second)
}

// readHWM returns the process's peak resident set (VmHWM) in bytes,
// 0 when /proc has no answer.
func readHWM(pid int) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// waitHealthy polls each daemon's health endpoint every few ms until
// every one answers, and returns the CPU time each had run when it
// first answered, summed. Set-up is read off this loop, so its cadence
// is the resolution of set-up time.
func waitHealthy(ds []*daemon, timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	pending := append([]*daemon(nil), ds...)
	var cpu time.Duration
	for time.Now().Before(deadline) {
		rest := pending[:0]
		for _, d := range pending {
			resp, err := client.Get(d.base + "/api/v1/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					c := d.cpuTime()
					if c <= 0 {
						return 0, fmt.Errorf("%s: no CPU time in /proc/<pid>/task/*/schedstat", d.name)
					}
					cpu += c
					continue
				}
			}
			rest = append(rest, d)
		}
		if pending = rest; len(pending) == 0 {
			return cpu, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, fmt.Errorf("%s not healthy after %v", pending[0].base, timeout)
}

// startAll starts the deployment. It returns the time from the first
// exec until every daemon answers healthy, and the CPU time the daemons
// ran until each answered. The site daemons start at once; on a fleet
// the aggregator starts when they answer, as a unit ordering would
// start it. Started beside them, its first syncs would land while the
// sensors still rebuild their context, and the backoff those failures
// set would decide when catch-up begins.
func (s *sut) startAll() (wall, cpu time.Duration, err error) {
	t0 := time.Now()
	for _, d := range s.sites {
		if err := d.start(s.bin); err != nil {
			return 0, 0, err
		}
	}
	if cpu, err = waitHealthy(s.sites, 60*time.Second); err != nil {
		return 0, 0, err
	}
	if s.agg != nil {
		if err := s.agg.start(s.bin); err != nil {
			return 0, 0, err
		}
		c, err := waitHealthy([]*daemon{s.agg}, 60*time.Second)
		if err != nil {
			return 0, 0, err
		}
		cpu += c
	}
	return time.Since(t0), cpu, nil
}

// stopAll stops every slot, with SIGKILL when kill is set, and returns
// the sum of the stopped processes' peak resident sets: what the
// deployment held at most.
func (s *sut) stopAll(kill bool) (int64, error) {
	var first error
	var hwm int64
	for _, d := range s.all() {
		n, err := d.stop(kill)
		if err != nil && first == nil {
			first = fmt.Errorf("stop %s: %w", d.name, err)
		}
		hwm += n
	}
	return hwm, first
}

// progress is what /api/v1/stats on the front daemon says was applied:
// conn rows per site, and cert rows summed over sites.
type progress struct {
	at    time.Time // when the answer arrived
	conns []uint64
	certs uint64
}

// statsDoc is the part of mtlsd's /api/v1/stats the benchmark reads.
type statsDoc struct {
	ConnsIngested uint64
	CertsIngested uint64
	Sensors       []struct{ ConnsIngested uint64 }
}

func (s *sut) fetchStats() (statsDoc, error) {
	var st statsDoc
	resp, err := client.Get(s.front().base + "/api/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /api/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (s *sut) fetchProgress() (progress, error) {
	st, err := s.fetchStats()
	p := progress{at: time.Now(), certs: st.CertsIngested}
	if err != nil {
		return p, err
	}
	if s.agg == nil {
		p.conns = []uint64{st.ConnsIngested}
		return p, nil
	}
	if len(st.Sensors) != len(s.sites) {
		return p, fmt.Errorf("aggregator reports %d sensors, want %d", len(st.Sensors), len(s.sites))
	}
	for _, ss := range st.Sensors {
		p.conns = append(p.conns, ss.ConnsIngested)
	}
	return p, nil
}

// rows is the total row count p shows applied.
func (p progress) rows() uint64 {
	n := p.certs
	for _, c := range p.conns {
		n += c
	}
	return n
}

// covers reports whether p shows at least the per-site conn rows and
// per-site cert rows in want.
func (p progress) covers(conns []uint64, certs uint64) bool {
	if len(p.conns) != len(conns) || p.certs < certs*uint64(len(conns)) {
		return false
	}
	for i, c := range conns {
		if p.conns[i] < c {
			return false
		}
	}
	return true
}

// catchupPollEvery is the pause between /api/v1/stats polls while a
// catch-up runs: the resolution of each catch-up's wall time and of
// the daemon CPU time counted against it.
const catchupPollEvery = 5 * time.Millisecond

// waitApplied polls until the front daemon shows the given rows and
// returns when it first did. Failed polls are retried: callers use it
// right after a (re)start.
func (s *sut) waitApplied(conns []uint64, certs uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	var last progress
	var lastErr error
	for time.Now().Before(deadline) {
		p, err := s.fetchProgress()
		if err == nil && p.covers(conns, certs) {
			return p.at, nil
		}
		last, lastErr = p, err
		time.Sleep(catchupPollEvery)
	}
	return time.Time{}, fmt.Errorf("rows not applied after %v: have conns %v certs %d, want conns %v certs %d/site (last error: %v)",
		timeout, last.conns, last.certs, conns, certs, lastErr)
}

// scrape concatenates every daemon's /metrics page; the exposition
// accessors then sum a series over the deployment.
func (s *sut) scrape() (string, error) {
	var b strings.Builder
	for _, d := range s.all() {
		body, err := chaos.FetchBody(d.base, "/metrics")
		if err != nil {
			return "", fmt.Errorf("%s: %w", d.name, err)
		}
		b.Write(body)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// cpuTime returns the CPU time the deployment's live processes have
// run, summed over daemons.
func (s *sut) cpuTime() time.Duration {
	var t time.Duration
	for _, d := range s.all() {
		t += d.cpuTime()
	}
	return t
}

// cpuTime returns the CPU time the slot's live process has run, summed
// over its threads, from /proc/<pid>/task/*/schedstat; 0 when no
// process runs or /proc has no answer.
func (d *daemon) cpuTime() time.Duration {
	d.mu.Lock()
	p := d.proc
	d.mu.Unlock()
	if p == nil {
		return 0
	}
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", p.PID()))
	if err != nil {
		return 0
	}
	var ns int64
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", p.PID(), t.Name()))
		if err != nil {
			continue
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err == nil {
			ns += v
		}
	}
	return time.Duration(ns)
}
