package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// exposition is a parsed /metrics page, or several concatenated: every
// accessor sums over all matching series, so the pages of a fleet's
// daemons add up by appending them.
type exposition []promSample

// parseExposition reads the text format mtlsd serves on /metrics.
func parseExposition(text string) (exposition, error) {
	var out exposition
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %d: %w", n+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return s, fmt.Errorf("bad label set in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// matches reports whether every key of want carries the same value in s.
func (s promSample) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds the values of every series called name whose labels include
// want (nil matches all). found is false when no series matched.
func (e exposition) sum(name string, want map[string]string) (total float64, found bool) {
	for _, s := range e {
		if s.name == name && s.matches(want) {
			total += s.value
			found = true
		}
	}
	return total, found
}

// promHist is a histogram family summed over series: cumulative bucket
// counts by upper bound, plus _sum and _count.
type promHist struct {
	bounds []float64 // ascending, +Inf last
	cum    []float64
	sum    float64
	count  float64
}

// histogram merges every series of the histogram family name whose
// labels include want.
func (e exposition) histogram(name string, want map[string]string) (promHist, bool) {
	var h promHist
	byLE := map[float64]float64{}
	found := false
	for _, s := range e {
		if !s.matches(want) {
			continue
		}
		switch s.name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				continue
			}
			byLE[le] += s.value
		case name + "_sum":
			h.sum += s.value
			found = true
		case name + "_count":
			h.count += s.value
			found = true
		}
	}
	for le := range byLE {
		h.bounds = append(h.bounds, le)
	}
	sort.Float64s(h.bounds)
	for _, le := range h.bounds {
		h.cum = append(h.cum, byLE[le])
	}
	return h, found
}

// quantile estimates the q-quantile the way Prometheus's
// histogram_quantile does: find the bucket holding rank q·count and
// interpolate linearly inside it. A rank in the +Inf bucket returns the
// highest finite bound. NaN when the histogram is empty.
func (h promHist) quantile(q float64) float64 {
	if len(h.cum) == 0 || h.cum[len(h.cum)-1] == 0 {
		return math.NaN()
	}
	total := h.cum[len(h.cum)-1]
	rank := q * total
	for i, c := range h.cum {
		if c < rank {
			continue
		}
		if math.IsInf(h.bounds[i], 1) {
			if i == 0 {
				return math.NaN()
			}
			return h.bounds[i-1]
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = h.bounds[i-1], h.cum[i-1]
		}
		if c == below {
			return h.bounds[i]
		}
		return lo + (h.bounds[i]-lo)*(rank-below)/(c-below)
	}
	return h.bounds[len(h.bounds)-1]
}
