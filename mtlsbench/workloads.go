package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	mtls "repro"
	"repro/internal/scenario"
	"repro/internal/workload"
	"repro/internal/zeek"
)

// wload is one named benchmark workload over the campus spec. Every
// rate is in connection rows per second summed over all sites;
// certificate rows ride along in proportion (see buildPlan). Why each
// exists is in README.md.
type wload struct {
	name  string
	scale int // generator scale divisor

	pace    workload.Pace // live-phase rate profile
	sensors int           // 0 = one monitor; n = n sensors behind one aggregator

	// rounds is how many cold starts over the whole dataset precede the
	// live phase, each followed by timed report sweeps, so catch-up,
	// recovery and report samples interleave across the run and a slow
	// spell of the host touches all of them alike. Every start after
	// the first follows a SIGKILL of the previous daemons.
	rounds int

	// statsEvery is the pause between the live phase's /api/v1/stats
	// polls, which sets the resolution of freshness. An aggregator's
	// stats walk its whole certificate roster under the lock its syncs
	// apply under, so polling it as often as a monitor would make the
	// poller its main load and freshness would measure the poller.
	statsEvery time.Duration
}

// pollEvery is the daemon's log poll interval on every workload. The
// daemon default (2s) would make freshness read back the poll period.
const pollEvery = 20 * time.Millisecond

// syncEvery is the aggregator's sensor pull interval. It is not a
// multiple of pollEvery: two equal periods would lock into a phase
// fixed for the whole run, and freshness would move with that phase
// from run to run. At 13 ms, freshness was mostly sync and poller work
// on two contended vCPUs, and its p90 moved by two fifths with the
// host's steal; at 47 ms the waits the schedule sets dominate.
const syncEvery = 47 * time.Millisecond

// backlogShare is the share of each site's conn rows written before
// the live phase's daemons start.
const backlogShare = 0.4

// liveBatches is how many appends the open-loop generator makes per
// run, at any --seconds.
const liveBatches = 1250

var workloads = []wload{
	{
		name: "ingest-burst", scale: 150,
		pace:       workload.Pace{Rate: 2000, BurstEvery: 2500 * time.Millisecond, BurstLen: 500 * time.Millisecond, BurstFactor: 8},
		rounds:     10,
		statsEvery: 2 * time.Millisecond,
	},
	{
		name: "fleet", scale: 1000,
		pace:       workload.Pace{Rate: 800},
		sensors:    2,
		rounds:     16,
		statsEvery: 20 * time.Millisecond,
	},
}

func findWorkload(name string) (wload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return wload{}, fmt.Errorf("unknown workload %q", name)
}

// site is one daemon's log directory: the monitor's, or one sensor's.
// Every site sees the full certificate stream; connections are split
// into contiguous ranges, so the aggregator's sensor-ordered merge
// replays them in the generator's order.
type site struct {
	dir    string
	lo, hi int // conn rows [lo, hi) belong to this site
}

// batch is one open-loop append: bytes rendered before the timed phase,
// the time it is due, and the cumulative row counts each site must show
// once it is applied.
type batch struct {
	due   time.Duration
	ssl   [][]byte // per site
	x509  []byte   // the same certificate rows go to every site
	conns []uint64 // cumulative conn rows per site after this batch
	certs uint64   // cumulative cert rows per site after this batch
	rows  int      // rows in this batch over all sites
}

// dataset is a workload's generated input, fully rendered.
type dataset struct {
	build    *mtls.Build
	specYAML []byte
	digest   string
	conns    []zeek.SSLRecord
	certs    []zeek.X509Record
	extended bool
	sites    []site

	backlogConns []int // per site
	backlogCerts int
	sslHead      [][]byte // per site: header + backlog rows
	x509Head     []byte
	sslFull      [][]byte // per site: header + every row
	x509Full     []byte
	plan         []batch
	tailSSL      [][]byte // rows the live phase did not reach, per site
	tailX509     []byte
}

// generate builds the workload's dataset for seed and renders every
// byte the run will append.
func generate(w wload, seed uint64, seconds int, work string) (*dataset, error) {
	spec := mtls.CampusSpec()
	build, err := mtls.Generate(spec, mtls.WithScale(w.scale), mtls.WithSeed(seed))
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	ds := &dataset{build: build, specYAML: []byte(scenario.Render(spec)), conns: build.Raw.Conns}
	sum := sha256.Sum256(ds.specYAML)
	ds.digest = hex.EncodeToString(sum[:8])
	if ds.certs, err = certRows(build, filepath.Join(work, "source")); err != nil {
		return nil, err
	}
	for i := range ds.conns {
		if ds.conns[i].JA3 != "" || ds.conns[i].JA4 != "" {
			ds.extended = true
			break
		}
	}
	n := max(1, w.sensors)
	for i := 0; i < n; i++ {
		ds.sites = append(ds.sites, site{
			dir: filepath.Join(work, fmt.Sprintf("logs%d", i)),
			lo:  len(ds.conns) * i / n, hi: len(ds.conns) * (i + 1) / n,
		})
	}
	return ds, ds.buildPlan(w, seconds)
}

// certRows writes the build's logs once and reads the x509 rows back,
// so the rows the benchmark appends are exactly the serialized form.
func certRows(build *mtls.Build, dir string) ([]zeek.X509Record, error) {
	if err := mtls.WriteLogs(build.Raw, dir); err != nil {
		return nil, fmt.Errorf("write source logs: %w", err)
	}
	defer os.RemoveAll(dir)
	f, err := os.Open(filepath.Join(dir, "x509.log"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := zeek.ReadX509(f)
	if err != nil {
		return nil, fmt.Errorf("read back x509 rows: %w", err)
	}
	return recs, nil
}

// buildPlan splits each site's rows into the backlog, liveBatches
// open-loop appends paced by w.pace over seconds, and a tail of rows
// the live phase did not reach (appended after it, so the oracle
// always covers the whole build). Certificates follow overall
// connection progress.
func (ds *dataset) buildPlan(w wload, seconds int) error {
	nSites := len(ds.sites)
	written := make([]int, nSites)
	ds.backlogConns = make([]int, nSites)
	ds.sslHead = make([][]byte, nSites)
	total := len(ds.conns)
	certsFor := func() int {
		done := 0
		for _, c := range written {
			done += c
		}
		if total == 0 {
			return len(ds.certs)
		}
		return done * len(ds.certs) / total
	}
	for i, s := range ds.sites {
		written[i] = int(float64(s.hi-s.lo) * backlogShare)
		ds.backlogConns[i] = written[i]
		b, err := renderSSL(ds.conns[s.lo:s.lo+written[i]], true, ds.extended)
		if err != nil {
			return err
		}
		ds.sslHead[i] = b
	}
	ds.backlogCerts = certsFor()
	var err error
	if ds.x509Head, err = renderX509(ds.certs[:ds.backlogCerts], true); err != nil {
		return err
	}
	certDone := ds.backlogCerts

	tick := time.Duration(seconds) * time.Second / liveBatches
	pacer := &workload.Pacer{Pace: w.pace}
	carry := make([]float64, nSites)
	for k := 1; k <= liveBatches; k++ {
		elapsed := time.Duration(k) * tick
		want := pacer.Step(elapsed, tick)
		b := batch{due: elapsed - tick, ssl: make([][]byte, nSites), conns: make([]uint64, nSites)}
		for i, s := range ds.sites {
			carry[i] += float64(want) / float64(nSites)
			n := min(int(carry[i]), s.hi-s.lo-written[i])
			carry[i] -= float64(int(carry[i]))
			lo := s.lo + written[i]
			if b.ssl[i], err = renderSSL(ds.conns[lo:lo+n], false, ds.extended); err != nil {
				return err
			}
			written[i] += n
			b.conns[i] = uint64(written[i])
			b.rows += n
		}
		ct := certsFor()
		if b.x509, err = renderX509(ds.certs[certDone:ct], false); err != nil {
			return err
		}
		b.rows += ct - certDone
		certDone = ct
		b.certs = uint64(certDone)
		ds.plan = append(ds.plan, b)
	}
	ds.tailSSL = make([][]byte, nSites)
	ds.sslFull = make([][]byte, nSites)
	for i, s := range ds.sites {
		if ds.sslFull[i], err = renderSSL(ds.conns[s.lo:s.hi], true, ds.extended); err != nil {
			return err
		}
		if ds.tailSSL[i], err = renderSSL(ds.conns[s.lo+written[i]:s.hi], false, ds.extended); err != nil {
			return err
		}
	}
	if ds.x509Full, err = renderX509(ds.certs, true); err != nil {
		return err
	}
	ds.tailX509, err = renderX509(ds.certs[certDone:], false)
	return err
}

// liveRows counts the rows the open-loop generator appends.
func (ds *dataset) liveRows() int {
	n := 0
	for _, b := range ds.plan {
		n += b.rows
	}
	return n
}

// backlogRows counts the rows pre-written before the daemon starts,
// over all sites.
func (ds *dataset) backlogRows() int {
	n := ds.backlogCerts * len(ds.sites)
	for _, c := range ds.backlogConns {
		n += c
	}
	return n
}

func renderSSL(recs []zeek.SSLRecord, header, extended bool) ([]byte, error) {
	var buf bytes.Buffer
	w := zeek.NewSSLWriter(&buf)
	w.Extended = extended
	if header {
		if err := w.WriteHeader(); err != nil {
			return nil, err
		}
	} else {
		w.SkipHeader()
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return nil, err
		}
	}
	err := w.Flush()
	return buf.Bytes(), err
}

func renderX509(recs []zeek.X509Record, header bool) ([]byte, error) {
	var buf bytes.Buffer
	w := zeek.NewX509Writer(&buf)
	if header {
		if err := w.WriteHeader(); err != nil {
			return nil, err
		}
	} else {
		w.SkipHeader()
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return nil, err
		}
	}
	err := w.Flush()
	return buf.Bytes(), err
}
