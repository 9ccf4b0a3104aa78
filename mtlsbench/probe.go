package main

import (
	"sort"
	"strconv"
	"syscall"
	"time"
)

// The reference probe is a fixed task that shares no code with the
// program under test but does the same kind of work: it allocates,
// fills a map of formatted keys, sorts them and formats values, so the
// Go runtime's allocator and collector run as they do in the daemons.
// Its CPU time tracks how fast the host runs such code at the moment.
// On a shared 2-vCPU VM the daemons' CPU time for the same work moved
// by a fifth from run to run with how busy the host's other guests
// were, through shared cores, caches and memory, and the probe's CPU
// time moved with it. The CPU-time gates are therefore scaled to a
// host on which the probe takes probeNominalMS; the unscaled CPU times
// stay in the run's record.
const (
	probeKeys      = 1 << 14
	probeRepeats   = 4
	probeNominalMS = 30.0
)

var probeSink int

// probeCPU runs the probe once and returns the CPU time the benchmark
// process spent on it, collector included. Nothing else in the process
// runs while it does.
func probeCPU() time.Duration {
	before := processCPU()
	for r := 0; r < probeRepeats; r++ {
		m := make(map[string]int)
		keys := make([]string, 0, probeKeys)
		for i := 0; i < probeKeys; i++ {
			k := strconv.Itoa(i*7919 + r)
			m[k] = i
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b []byte
		for _, k := range keys {
			b = strconv.AppendInt(b, int64(m[k]), 10)
		}
		probeSink += len(b)
	}
	return processCPU() - before
}

// processCPU is the benchmark process's user and system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// refProbe collects the probe's CPU times over one run. The probe runs
// between measurements, never beside them, so it competes with no
// measured daemon work for a CPU.
type refProbe struct{ ms []float64 }

func (p *refProbe) run() { p.ms = append(p.ms, float64(probeCPU())/1e6) }

// factor is how much slower than nominal the host ran code like the
// probe during the run: the probe's median CPU time over
// probeNominalMS. It is 0 when the probe has not run.
func (p *refProbe) factor() float64 {
	if len(p.ms) == 0 {
		return 0
	}
	return median(p.ms) / probeNominalMS
}
