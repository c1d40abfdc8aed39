package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"divflow/internal/stats"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition (a page-fault storm, a slow fsync) does not
// move it.
const setupReps = 101

// medianSetup runs build setupReps times, timing each, and returns the
// median duration in seconds. Every build but the last is torn down with
// discard; the last value is returned for the run to use. Each build starts
// on a freshly collected heap, so the garbage of the one before is not
// charged to it: without that, set-ups of about a millisecond split into a
// fast and a slow group and the median jumped between them.
func medianSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			discard(v)
		} else {
			last = v
		}
	}
	return last, stats.Percentile(times, 50), nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct is stats.Percentile that answers 0 for an empty sample, so a traced
// metric of a code path the run never took reads as zero work.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB. Where
// /proc is unavailable it falls back to the memory the Go runtime obtained
// from the OS, which bounds the resident set from above.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// allocMB returns the bytes allocated on the heap since the process started,
// in MB.
func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// promSample is one sample line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the sample lines of a Prometheus text exposition (the
// service's GET /metrics body). Comment lines are skipped.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[open+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:open]
		}
		out = append(out, s)
	}
	return out, nil
}

// promSum adds every sample of the named series across its label sets.
func promSum(samples []promSample, name string) float64 {
	var t float64
	for _, s := range samples {
		if s.name == name {
			t += s.value
		}
	}
	return t
}

// promQuantile merges every label set of the named histogram and estimates
// its p-th percentile with the service's own estimator
// (stats.HistogramQuantile, the one behind /v1/stats), in the histogram's
// unit. It answers 0 for an empty histogram.
func promQuantile(samples []promSample, name string, p float64) float64 {
	cum := map[float64]float64{}
	for _, s := range samples {
		if s.name != name+"_bucket" {
			continue
		}
		le := math.Inf(1)
		if s.labels["le"] != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(s.labels["le"], 64); err != nil {
				continue
			}
		}
		cum[le] += s.value
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		if !math.IsInf(le, 1) {
			bounds = append(bounds, le)
		}
	}
	sort.Float64s(bounds)
	counts := make([]uint64, len(bounds)+1)
	prev := 0.0
	for i, le := range bounds {
		counts[i] = uint64(cum[le] - prev)
		prev = cum[le]
	}
	counts[len(bounds)] = uint64(cum[math.Inf(1)] - prev)
	q := stats.HistogramQuantile(bounds, counts, p)
	if math.IsNaN(q) {
		return 0
	}
	return q
}

// getJSON serves one GET through the handler in-process.
func getJSON(h http.Handler, path string, v any) (int, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return rec.Code, nil
	}
	return rec.Code, json.Unmarshal(rec.Body.Bytes(), v)
}

// scrapeMetrics reads GET /metrics through the handler in-process.
func scrapeMetrics(h http.Handler) ([]promSample, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseProm(rec.Body.String())
}
