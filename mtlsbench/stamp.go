package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// stamp identifies what produced a result: the host class, the code and
// the inputs. Results are comparable only within one host class.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Scale      int    `json:"scale"`
	SpecDigest string `json:"spec_digest"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Source     string `json:"source_digest"`
}

func newStamp(w wload, ds *dataset, o options) stamp {
	return stamp{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Scale: w.scale, SpecDigest: ds.digest,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GOARCH: runtime.GOARCH,
		Commit: commit(), Source: sourceDigest("."),
	}
}

// commit is the git revision of the checkout, or of the build when the
// checkout is not a git repository, or "none".
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// sourceDigest hashes the Go sources and module files under root, so
// two results from checkouts without git history can still be told
// apart by code.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.HasSuffix(path, ".yaml")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostClass is what must match before two results may be compared.
// It reads this benchmark's stamp and the host blocks of the older
// hand-made BENCH_*.json files ({"host": {"cpus"|"cores": n, ...}}).
type hostClass struct {
	CPUs       int
	GOMAXPROCS int
	GOARCH     string
}

func readHostClass(path string) (hostClass, map[string]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return hostClass{}, nil, err
	}
	var doc struct {
		Stamp  *stamp `json:"stamp"`
		Result struct {
			Metrics map[string]metric `json:"metrics"`
		} `json:"result"`
		Host struct {
			CPUs   int    `json:"cpus"`
			Cores  int    `json:"cores"`
			GOARCH string `json:"goarch"`
		} `json:"host"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return hostClass{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Stamp != nil {
		return hostClass{doc.Stamp.NProc, doc.Stamp.GOMAXPROCS, doc.Stamp.GOARCH}, doc.Result.Metrics, nil
	}
	cpus := max(doc.Host.CPUs, doc.Host.Cores)
	if cpus == 0 {
		return hostClass{}, nil, fmt.Errorf("%s: no host core count recorded", path)
	}
	// Hand-made files predate GOMAXPROCS stamping; Go defaulted it to
	// the core count.
	return hostClass{cpus, cpus, doc.Host.GOARCH}, nil, nil
}

// compareMain prints new/old ratios of two results' metrics, and
// refuses when they come from different host classes.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: mtlsbench compare OLD.json NEW.json")
		return 2
	}
	oldH, oldM, err := readHostClass(args[0])
	if err != nil {
		return fail(err)
	}
	newH, newM, err := readHostClass(args[1])
	if err != nil {
		return fail(err)
	}
	if oldH.CPUs != newH.CPUs || oldH.GOMAXPROCS != newH.GOMAXPROCS ||
		(oldH.GOARCH != "" && newH.GOARCH != "" && oldH.GOARCH != newH.GOARCH) {
		fmt.Fprintf(os.Stderr, "mtlsbench: refusing to compare across host classes: %+v vs %+v\n", oldH, newH)
		return 1
	}
	return printRatios(os.Stdout, oldM, newM)
}

func printRatios(w io.Writer, oldM, newM map[string]metric) int {
	names := make([]string, 0, len(newM))
	for n := range newM {
		if _, ok := oldM[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		ratio := newM[n].Value / oldM[n].Value
		fmt.Fprintf(w, "%-34s %14.6g -> %14.6g %s (x%.3f)\n", n, oldM[n].Value, newM[n].Value, newM[n].Unit, ratio)
	}
	return 0
}

// spreadMain reads result files (artifacts, or files whose last line is
// a result line) and prints, per workload and metric, the median and
// the quartile spread as a share of the median — the steadiness figure
// each end-to-end metric's bound is checked against.
func spreadMain(paths []string) int {
	byWL := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return fail(err)
		}
		var art artifact
		if err := json.Unmarshal(data, &art); err != nil {
			return fail(fmt.Errorf("%s: %w", p, err))
		}
		wl := art.Stamp.Workload
		if byWL[wl] == nil {
			byWL[wl] = map[string][]float64{}
		}
		for n, m := range art.Result.Metrics {
			byWL[wl][n] = append(byWL[wl][n], m.Value)
		}
	}
	wls := make([]string, 0, len(byWL))
	for wl := range byWL {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		names := make([]string, 0, len(byWL[wl]))
		for n := range byWL[wl] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			xs := byWL[wl][n]
			sp, err := spread(xs)
			if err != nil {
				fmt.Printf("%-16s %-34s n=%d %v\n", wl, n, len(xs), err)
				continue
			}
			fmt.Printf("%-16s %-34s n=%-3d median %12.6g spread %.4f\n", wl, n, len(xs), median(xs), sp)
		}
	}
	return 0
}

// cpuTicks is the host's aggregate CPU time from /proc/stat, in clock
// ticks: all of it, and the share the hypervisor gave to other guests
// (steal). Zero when /proc/stat is unreadable.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPUTicks(line)
}

// parseCPUTicks reads the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal, then guest times that user
// already counts.
func parseCPUTicks(line string) cpuTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of host CPU time stolen between a and b, in
// percent: how much the other tenants of the host took from this run.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}
